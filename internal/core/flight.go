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

// This file wires the flight spine (internal/obs/flight) into the
// machine: one record ring fed by nil-checked hooks at every protocol
// step — the machine's only observability hooks — the stall watchdog
// sampled on timeline ticks, and the log export behind protozoa sim's
// -flight flag. The Chrome trace, message log and latency breakdown are
// views over the same records. Like the rest of the observability
// layer, everything here is opt-in and the disabled machine pays one
// nil check per potential record.

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
// largest capacity any caller asks for.
func (s *System) EnableFlightRecorder(capacity int) *flight.Recorder {
	if s.flight != nil {
		s.flight.Grow(capacity)
		return s.flight
	}
	s.flight = flight.NewRecorder(capacity)
	return s.flight
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

// causeCodes maps the transition-audit event vocabulary (message names
// plus the core-side causes) onto flight Sub codes.
var causeCodes = func() map[string]uint8 {
	m := make(map[string]uint8, len(msgNames)+5)
	for i, n := range msgNames {
		m[n] = uint8(i)
	}
	m["Load"] = flight.CauseLoad
	m["Store"] = flight.CauseStore
	m["GrantReissue"] = flight.CauseReissue
	m["Grant"] = uint8(MsgGrant)
	m["FwdGetS"] = uint8(MsgFwdGetS)
	return m
}()

func causeCode(event string) uint8 {
	if c, ok := causeCodes[event]; ok {
		return c
	}
	return flight.SubNone
}

// flightMsg records one message-lifecycle step at tile. Every field is
// copied out of the message, so the record stays valid after the
// message is recycled into the pool.
func (s *System) flightMsg(k flight.Kind, tile int, m *Msg) {
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
	s.flight.Record(flight.Record{
		Cycle: s.eng.Now(), Tile: int16(tile), Kind: k, Sub: uint8(m.Type),
		Src: int16(m.Src), Dst: int16(m.Dst), Req: int16(m.Requester),
		Region: uint64(m.Region), Txn: m.TxnID,
		R: m.R, Valid: m.Valid, Dirty: m.Dirty, Flags: flags,
	})
}

// phaseOn reports whether any view consumes the six miss/transaction
// phase records (miss-start, dir-accept, txn-start, txn-process,
// txn-last-ack, miss-end): the flight ring or the online latency fold.
// Every other record kind feeds the ring alone and guards on s.flight.
func (s *System) phaseOn() bool { return s.flight != nil || s.lat != nil }

// record hands one record to every view that is on: the ring and the
// latency fold.
func (s *System) record(r flight.Record) {
	if s.flight != nil {
		s.flight.Record(r)
	}
	if lat := s.lat; lat != nil {
		lat.Fold(&r)
	}
}

// flightDir records one directory-transaction step at this slice. req
// is the requesting core (-1 for inclusion recalls).
func (d *dirSlice) flightDir(k flight.Kind, region mem.RegionID, txn uint64, req int, sub uint8) {
	d.sys.record(flight.Record{
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

// stallKey deduplicates watchdog detections: one report per miss, not
// one per tick it stays stuck.
type stallKey struct {
	core   int
	issued engine.Cycle
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
	s.stallSeen = make(map[stallKey]bool)
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
		if now-ms.issuedAt < s.stallThreshold {
			continue
		}
		key := stallKey{core: l1.id, issued: ms.issuedAt}
		if s.stallSeen[key] {
			continue
		}
		s.stallSeen[key] = true
		kind := "GETS"
		if ms.upgrade {
			kind = "UPGRADE"
		} else if ms.mode.write() {
			kind = "GETX"
		}
		rep := StallReport{
			Core: l1.id, Region: ms.region, Request: kind,
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
