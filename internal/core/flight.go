package core

import (
	"fmt"
	"io"
	"strings"

	"protozoa/internal/cache"
	"protozoa/internal/engine"
	"protozoa/internal/mem"
	"protozoa/internal/obs/flight"
)

// This file is the machine's one emit: each protocol step builds a
// flight record and hands it to every view subscribed to its kind — the
// flight ring (behind the Chrome trace, message log and -flight log),
// the latency fold, the transition audit, the checker and the
// attribution tracker. Each emit site tests the kind mask first, so a
// machine with no views pays one branch per site. The stall watchdog,
// sampled on timeline ticks, lives here too.

// kindMask is a set of record kinds, one bit per flight.Kind.
type kindMask uint32

// The machine's own record kinds, past the ring's vocabulary: no ring
// subscribes to them, so no log carries them. A value record is a
// completed reference: its trace.Kind in Sub, the core in Src, the word
// address in Region and the value the core observed in Txn (an RMW's
// old value). The attribution records hold the core in Src and the
// region in Region. A fill's R is the filled range. A death's R is the
// dead block's, Valid and Dirty its read and written footprint, Txn
// its unfolded references and From its used words. An invalidation's
// Src is the victim, Req the offender (-1 for a recall) and Txn the
// words lost; a fan-out's Txn is the probe count.
const (
	kindValue flight.Kind = flight.NumKinds + iota
	kindFill
	kindDeath
	kindInval
	kindUpgrade
	kindFanout
)

// Each view's subscription.
const (
	ringKinds    = kindMask(1)<<flight.NumKinds - 1
	stateKinds   = kindMask(1)<<flight.KindL1State | kindMask(1)<<flight.KindDirState
	valueKinds   = kindMask(1) << kindValue
	checkerKinds = valueKinds | kindMask(1)<<flight.KindL1State | kindMask(1)<<flight.KindTxnEnd
	attribKinds  = kindMask(1)<<kindFill | kindMask(1)<<kindDeath | kindMask(1)<<kindInval |
		kindMask(1)<<kindUpgrade | kindMask(1)<<kindFanout
	// phaseKinds are the phase edges the latency fold reads.
	phaseKinds = kindMask(1)<<flight.KindMissStart | kindMask(1)<<flight.KindMissEnd |
		kindMask(1)<<flight.KindDirAccept | kindMask(1)<<flight.KindTxnStart |
		kindMask(1)<<flight.KindTxnProcess | kindMask(1)<<flight.KindTxnLastAck
)

// A view is one subscriber: emit hands see every record whose kind is
// in kinds, and Run calls end, when set, once the run completes.
type view struct {
	kinds kindMask
	see   func(*flight.Record)
	end   func()
}

// on reports whether any view reads records of kind k.
func (s *System) on(k flight.Kind) bool { return s.kinds&(1<<k) != 0 }

// emit hands r to every view subscribed to its kind, in subscription
// order. The views read one copy of it, s.rec; they keep no pointer to
// it and emit nothing themselves, so r stays on the caller's stack.
func (s *System) emit(r *flight.Record) {
	s.rec = *r
	bit := kindMask(1) << r.Kind
	for i := range s.views {
		if v := &s.views[i]; v.kinds&bit != 0 {
			v.see(&s.rec)
		}
	}
}

// subscribe adds a view. A view that reads word values arms them, so
// it must subscribe before the machine processes its first event.
func (s *System) subscribe(v view) {
	s.mustLive()
	if v.kinds&valueKinds != 0 {
		if s.eng.Processed() > 0 {
			panic("core: a view reading word values subscribed after the machine processed an event: it must subscribe before the run, since word values are tracked only from then on")
		}
		if !s.on(kindValue) {
			s.armValues()
		}
	}
	s.views = append(s.views, v)
	s.kinds |= v.kinds
}

// DefaultStallCycles is the watchdog threshold when the caller passes 0:
// far beyond any healthy transaction (a worst-case miss is a few
// thousand cycles with memory and fan-out), small enough to flag a
// wedged transaction long before the event-count watchdog gives up.
const DefaultStallCycles = 50_000

// flightRecordsPerMsg sizes the flight ring when capacity is expressed
// in messages (the EnableMessageLog contract): a message's life is
// bounded by send + deliver + free plus its share of miss/txn/state
// records.
const flightRecordsPerMsg = 8

// EnableFlightRecorder attaches the flight recorder, keeping the most
// recent capacity records (<= 0 selects flight.DefaultCap). Call before
// Run. Every view that needs the ring (the flight log, message log,
// Chrome trace and stall watchdog) calls this; the ring grows to the
// largest capacity any caller asks for. The ring keeps state changes
// only, not self-loop edges.
func (s *System) EnableFlightRecorder(capacity int) *flight.Recorder {
	if s.flight != nil {
		s.flight.Grow(capacity)
		return s.flight
	}
	rec := flight.NewRecorder(capacity)
	s.flight = rec
	s.subscribe(view{kinds: ringKinds, see: func(r *flight.Record) {
		if r.From != r.To || stateKinds&(1<<r.Kind) == 0 {
			rec.Record(*r)
		}
	}})
	return rec
}

// FlightRecorder returns the attached recorder, nil when disabled.
func (s *System) FlightRecorder() *flight.Recorder { return s.flight }

// FlightRecords returns the transcript in execution order (nil when
// the recorder is disabled).
func (s *System) FlightRecords() []flight.Record {
	if s.flight == nil {
		return nil
	}
	return s.flight.Records()
}

// FlightDropped reports records evicted by ring wrap (0 when disabled).
func (s *System) FlightDropped() uint64 {
	if s.flight == nil {
		return 0
	}
	return s.flight.Dropped()
}

// flightNames is the Sub vocabulary for rendering core-recorded logs.
func flightNames() *flight.Names {
	return &flight.Names{Msgs: append([]string(nil), msgNames[:]...)}
}

// WriteFlightLog exports the transcript in the .pzfl format
// protozoa inspect reads. EnableFlightRecorder must have been called.
func (s *System) WriteFlightLog(w io.Writer) error {
	if s.flight == nil {
		return fmt.Errorf("core: flight recorder not enabled")
	}
	meta := flight.Meta{
		Protocol:    s.cfg.Protocol.String(),
		Cores:       s.cfg.Cores,
		RegionBytes: s.cfg.RegionBytes,
		Dropped:     s.flight.Dropped(),
		Msgs:        append([]string(nil), msgNames[:]...),
	}
	return flight.WriteLog(w, meta, s.flight.Records())
}

// flightMsg emits one message-lifecycle step at tile, when a view
// reads its kind. Every field is copied out of the message, so the
// record stays valid after the message is recycled into the pool.
func (s *System) flightMsg(k flight.Kind, tile int, m *Msg) {
	if s.on(k) {
		s.emitMsg(k, tile, m)
	}
}

func (s *System) emitMsg(k flight.Kind, tile int, m *Msg) {
	var flags uint8
	if m.StillSharer {
		flags |= flight.FlagStillSharer
	}
	if m.StillOwner {
		flags |= flight.FlagStillOwner
	}
	if m.Direct {
		flags |= flight.FlagDirect
	}
	if m.ForwardedData {
		flags |= flight.FlagForwarded
	}
	s.emit(&flight.Record{
		Cycle: s.eng.Now(), Tile: int16(tile), Kind: k, Sub: uint8(m.Type),
		Src: int16(m.Src), Dst: int16(m.Dst), Req: int16(m.Requester),
		Region: uint64(m.Region), Txn: m.TxnID,
		R: m.R, Valid: m.Valid, Dirty: m.Dirty, Flags: flags,
	})
}

// flightDir emits one directory-transaction step at this slice, when a
// view reads its kind. req is the requesting core (-1 for inclusion
// recalls). The kind test inlines into the call site.
func (d *dirSlice) flightDir(k flight.Kind, region mem.RegionID, txn uint64, req int, sub uint8) {
	if d.sys.on(k) {
		d.emitDir(k, region, txn, req, sub)
	}
}

func (d *dirSlice) emitDir(k flight.Kind, region mem.RegionID, txn uint64, req int, sub uint8) {
	d.sys.emit(&flight.Record{
		Cycle: d.sys.eng.Now(), Tile: int16(d.node), Kind: k, Sub: sub,
		Src: int16(d.node), Dst: -1, Req: int16(req),
		Region: uint64(region), Txn: txn,
	})
}

// flightStateCode packs the L1's current region state (strongest
// resident stable state + MSHR transient) into a flight code.
func (l *l1Ctrl) flightStateCode(region mem.RegionID) uint8 {
	strongest := cache.Invalid
	for _, b := range l.cache.BlocksInRegion(region) {
		if b.State > strongest {
			strongest = b.State
		}
	}
	tr := flight.TransNone
	if ms := l.openMSHR(region); ms != nil {
		switch {
		case ms.upgrade:
			tr = flight.TransSM
		case ms.mode.write():
			tr = flight.TransIM
		default:
			tr = flight.TransIS
		}
	}
	return flight.L1Code(uint8(strongest), tr)
}

// flightDirCode packs a directory entry's stable state (Table 2).
func (d *dirSlice) flightDirCode(e *dirEntry) uint8 {
	switch {
	case e.owners.Count() > 1:
		return flight.DirOPlus
	case e.owners.Count() == 1:
		return flight.DirO
	case !e.sharers.Empty():
		return flight.DirSS
	default:
		return flight.DirI
	}
}

// stateEdge emits the edge region took on cause since the from
// snapshot (a flightStateCode taken before the step).
func (l *l1Ctrl) stateEdge(region mem.RegionID, from, cause uint8) {
	l.sys.emit(&flight.Record{
		Cycle: l.sys.eng.Now(), Tile: int16(l.id),
		Kind: flight.KindL1State, Sub: cause,
		Src: int16(l.id), Dst: -1, Req: int16(l.id),
		Region: uint64(region), From: from, To: l.flightStateCode(region),
	})
}

// stateEdge emits the edge e took on cause since the from snapshot (a
// flightDirCode). src is the stepping node; req the requesting core, -1
// for a spontaneous writeback.
func (d *dirSlice) stateEdge(e *dirEntry, from, cause uint8, src, req int) {
	d.sys.emit(&flight.Record{
		Cycle: d.sys.eng.Now(), Tile: int16(d.node),
		Kind: flight.KindDirState, Sub: cause,
		Src: int16(src), Dst: -1, Req: int16(req),
		Region: uint64(e.region), From: from, To: d.flightDirCode(e),
	})
}

// StallReport is one watchdog detection: a transaction outstanding
// longer than the threshold at a timeline tick.
type StallReport struct {
	Core      int
	Region    mem.RegionID
	Request   string // GETS / GETX / UPGRADE
	IssuedAt  engine.Cycle
	FlaggedAt engine.Cycle
}

func (r StallReport) String() string {
	return fmt.Sprintf("core %d %s region %d outstanding %d cycles (issued @%d, flagged @%d)",
		r.Core, r.Request, r.Region, r.FlaggedAt-r.IssuedAt, r.IssuedAt, r.FlaggedAt)
}

// EnableStallWatchdog arms the stall watchdog: at every timeline tick,
// any miss outstanding longer than threshold cycles (<= 0 selects
// DefaultStallCycles) is reported once — its causal transcript (the
// region's recent flight records) plus the blocking directory entry's
// queue state stream to out (nil discards the dumps; Stalls() keeps the
// reports either way). Arms the flight recorder and timeline sampling
// if the caller has not configured them. Call before Run.
func (s *System) EnableStallWatchdog(threshold engine.Cycle, out io.Writer) {
	if threshold <= 0 {
		threshold = DefaultStallCycles
	}
	s.stallThreshold = threshold
	s.stallOut = out
	s.EnableFlightRecorder(0)
	if s.timelineInterval == 0 {
		s.EnableTimeline(0)
	}
}

// Stalls returns the watchdog's detections in flag order.
func (s *System) Stalls() []StallReport { return s.stalls }

// checkStalls runs at every timeline tick; now is the tick's cycle.
func (s *System) checkStalls(now engine.Cycle) {
	if s.stallThreshold == 0 {
		return
	}
	for _, l1 := range s.l1s {
		if !l1.msLive {
			continue
		}
		ms := &l1.ms
		// One report per miss, not one per tick it stays stuck.
		if ms.stalled || now-ms.issuedAt < s.stallThreshold {
			continue
		}
		ms.stalled = true
		rep := StallReport{
			Core: l1.id, Region: ms.region, Request: ms.request(),
			IssuedAt: ms.issuedAt, FlaggedAt: now,
		}
		s.stalls = append(s.stalls, rep)
		if s.stallOut != nil {
			fmt.Fprint(s.stallOut, s.stallDump(rep))
		}
	}
}

// stallDump renders one detection: the report line, the home directory
// entry blocking the region, and the region's causal transcript.
func (s *System) stallDump(rep StallReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "protozoa: stall watchdog: %s\n", rep)
	d := s.dirs[s.home(rep.Region)]
	if e := d.lookup(rep.Region); e != nil {
		fmt.Fprintf(&b, "  %s\n", dirEntryLine(d, e))
	} else {
		fmt.Fprintf(&b, "  dir %2d region %d: no entry\n", d.node, rep.Region)
	}
	recs := s.flightForRegion(rep.Region, stallTranscriptCap)
	fmt.Fprintf(&b, "  transcript (region %d, last %d records):\n", rep.Region, len(recs))
	names := flightNames()
	for _, r := range recs {
		fmt.Fprintf(&b, "    %s\n", r.Format(names))
	}
	return b.String()
}

// stallTranscriptCap / violationTranscriptCap bound the transcripts
// attached to watchdog dumps and checker violations.
const (
	stallTranscriptCap     = 32
	violationTranscriptCap = 64
)

// flightForRegion filters the transcript to one region's last n
// records.
func (s *System) flightForRegion(region mem.RegionID, n int) []flight.Record {
	if s.flight == nil {
		return nil
	}
	var out []flight.Record
	for _, r := range s.flight.Records() {
		if r.Region == uint64(region) {
			out = append(out, r)
		}
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// flightTail renders the transcript's last n records — the
// auto-dump attached to checker violations and deadlock diagnoses.
func (s *System) flightTail(n int) string {
	if s.flight == nil {
		return ""
	}
	recs := s.flight.Records()
	if len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return flight.Transcript(recs, flightNames())
}

// dirEntryLine renders one directory entry's live state (shared by the
// deadlock diagnosis and the stall watchdog's queue-state dump).
func dirEntryLine(d *dirSlice, e *dirEntry) string {
	var b strings.Builder
	status := "idle"
	if e.busy {
		status = "busy"
	}
	fmt.Fprintf(&b, "dir %2d region %d: %s sharers=%v owners=%v queue=%d",
		d.node, uint64(e.region), status, e.sharers, e.owners, len(e.queue))
	if e.txn != nil {
		fmt.Fprintf(&b, " txn=%d (%s) waiting=%d", e.txn.id, e.txn.req.Type, e.txn.waiting)
	} else if e.busy {
		fmt.Fprintf(&b, " awaiting unblock")
	}
	if e.pendingUnblock {
		fmt.Fprintf(&b, " (unblock parked)")
	}
	return b.String()
}
