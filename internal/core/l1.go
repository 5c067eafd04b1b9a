package core

import (
	"fmt"

	"protozoa/internal/stats"

	"protozoa/internal/cache"
	"protozoa/internal/engine"
	"protozoa/internal/mem"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/obs/flight"
	"protozoa/internal/predictor"
)

// l1Ctrl is one core's private L1 cache controller. It owns the
// Amoeba storage, the PC predictor, and the region-indexed MSHRs, and
// implements the L1 half of every protocol variant: miss issue,
// fills, upgrades, and the multi-block CHECK/GATHER snoop handling of
// Figure 3 (including the Figure 6 race where a forwarded probe
// arrives while a miss to another sub-block of the same region is
// outstanding).
type l1Ctrl struct {
	sys   *System
	id    int
	cache *cache.Cache
	pred  predictor.Predictor

	// ms is the single MSHR: the in-order core blocks on every miss, so
	// at most one is ever live (the hardware indexes MSHRs at REGION
	// granularity; with one outstanding miss a single slot is the exact
	// same structure, without a map allocation per miss).
	ms     mshr
	msLive bool

	// causes remembers, per word, why this L1 last lost it — the
	// cold/capacity/coherence/granularity miss classification. Indexed
	// by region; each value packs the region's words' deathCauses two
	// bits per word (word w at bits 2w and 2w+1).
	causes mem.RegionTable[uint32]
}

// completer receives the value of a finished memory reference; the cpu
// implements it. A plain interface instead of a func(uint64) field
// keeps the per-access path closure-free.
type completer interface {
	complete(val uint64)
}

// deathCause classifies how a word last left this L1. It fits the two
// bits per word l1Ctrl.causes packs.
type deathCause uint8

const (
	neverResident deathCause = iota
	diedByEviction
	diedByInvalidation
)

// mshr tracks one outstanding CPU-side miss. The in-order core has at
// most one, but the map is keyed by region to mirror the hardware
// structure (the paper indexes MSHRs at REGION granularity and
// serializes multiple misses to the same region).
// accessMode distinguishes the CPU reference kinds at the L1.
type accessMode uint8

const (
	accRead accessMode = iota
	accWrite
	accRMW
)

func (m accessMode) write() bool { return m != accRead }

type mshr struct {
	region   mem.RegionID
	mode     accessMode
	upgrade  bool
	upgradeR mem.Range // resident block an UPGRADE covers
	want     mem.Range
	word     uint8
	pc       uint64
	storeVal uint64
	issuedAt engine.Cycle // miss-latency accounting
	done     completer

	// folded marks a reference a mid-run attribution read already
	// counted (foldPending); its completion only marks the word.
	folded bool
}

// tableChunks recycles the chunks of the L1 causes tables and the
// directory indexes across machines. Unless cleared, the poison marks
// every word of a cause table died-by-invalidation (misclassifying
// misses) and points every directory slot far past its arena.
var tableChunks = mem.ChunkPool[uint32]{Poison: 0xaaaaaaaa}

func newL1(sys *System, id int, c *cache.Cache, p predictor.Predictor) *l1Ctrl {
	return &l1Ctrl{sys: sys, id: id, cache: c, pred: p,
		causes: mem.RegionTable[uint32]{Pool: &tableChunks}}
}

// openMSHR returns the live MSHR for the region, or nil.
func (l *l1Ctrl) openMSHR(region mem.RegionID) *mshr {
	if l.msLive && l.ms.region == region {
		return &l.ms
	}
	return nil
}

// markDeath records how a dead block's words left the cache.
func (l *l1Ctrl) markDeath(b *cache.Block, cause deathCause) {
	packed := l.causes.Get(uint64(b.Region))
	for w := b.R.Start; ; w++ {
		packed = packed&^(3<<(2*w)) | uint32(cause)<<(2*w)
		if w == b.R.End {
			break
		}
	}
	l.causes.Set(uint64(b.Region), packed)
}

// classifyMiss attributes a miss to cold / capacity / coherence /
// granularity. An upgrade re-acquiring write permission on resident
// data counts as a coherence miss (a prior invalidation or shared
// grant forces it); a miss on a word of a partially resident region is
// a granularity miss (adaptive storage underfetched); otherwise the
// region's last death decides.
func (l *l1Ctrl) classifyMiss(region mem.RegionID, w uint8, upgrade bool) {
	if upgrade {
		l.sys.st.MissesCoherence++
		return
	}
	switch deathCause(l.causes.Get(uint64(region)) >> (2 * w) & 3) {
	case diedByEviction:
		l.sys.st.MissesCapacity++
	case diedByInvalidation:
		l.sys.st.MissesCoherence++
	default:
		if l.cache.HasRegion(region) {
			l.sys.st.MissesGranularity++
		} else {
			l.sys.st.MissesCold++
		}
	}
}

// cs is this core's per-core counter slice.
func (l *l1Ctrl) cs() *stats.CoreStats { return &l.sys.st.PerCore[l.id] }

// applyWrite commits a store or RMW to a writable block and returns
// the value the CPU observes (the stored value, or the pre-increment
// value for an RMW).
func applyWrite(b *cache.Block, w uint8, mode accessMode, storeVal uint64) uint64 {
	b.State = cache.Modified
	if mode == accRMW {
		old := b.Word(w)
		b.SetWord(w, old+1)
		return old
	}
	b.SetWord(w, storeVal)
	return storeVal
}

// resolve performs one CPU memory reference at the end of the L1
// pipeline: the fused per-core event fires it L1HitLat cycles after
// issue, so values bind at completion time. done.complete is invoked
// with the loaded value (or the stored value) when the reference
// completes; the in-order core issues at most one reference at a time.
func (l *l1Ctrl) resolve(addr mem.Addr, mode accessMode, pc, storeVal uint64, done completer) {
	g := l.sys.geom
	region, w := g.Region(addr), g.WordOffset(addr)
	edges := l.sys.edgesOn()
	var from uint8
	if edges {
		from = l.flightStateCode(region)
	}
	b := l.cache.Lookup(region, w)
	if b != nil && (!mode.write() || b.State == cache.Modified || b.State == cache.Exclusive) {
		l.sys.st.L1Hits++
		l.cs().Hits++
		b.Note(w, mode.write())
		val := b.Word(w)
		if mode.write() {
			val = applyWrite(b, w, mode, storeVal)
		}
		if edges {
			l.stateEdge(region, from, accessCause(mode))
		}
		done.complete(val)
		return
	}
	if b != nil && b.State == cache.Shared {
		// Write to a clean shared block: upgrade miss.
		l.sys.st.L1Misses++
		l.cs().Misses++
		l.sys.st.UpgradeMisses++
		if l.sys.attrib != nil {
			l.sys.attrib.Upgrade(l.id, region)
		}
		l.classifyMiss(region, w, true)
		l.startMiss(mshr{
			region: region, mode: mode, upgrade: true, upgradeR: b.R,
			want: b.R, word: w, pc: pc, storeVal: storeVal, done: done,
		}, MsgUpgrade)
	} else {
		// Plain miss: predict the fetch range and trim it against
		// resident sub-blocks so blocks never overlap.
		l.sys.st.L1Misses++
		l.cs().Misses++
		l.classifyMiss(region, w, false)
		want := l.cache.TrimFill(region, l.pred.Predict(pc, region, w), w)
		ms := mshr{
			region: region, mode: mode,
			want: want, word: w, pc: pc, storeVal: storeVal, done: done,
		}
		if mode.write() {
			l.startMiss(ms, MsgGetX)
		} else {
			l.startMiss(ms, MsgGetS)
		}
	}
	if edges {
		l.stateEdge(region, from, accessCause(mode))
	}
}

// accessCause is the state-edge cause code of a CPU reference.
func accessCause(mode accessMode) uint8 {
	if mode.write() {
		return flight.CauseStore
	}
	return flight.CauseLoad
}

func (l *l1Ctrl) startMiss(ms mshr, t MsgType) {
	if l.msLive {
		panic(fmt.Sprintf("core: L1 %d issued a second miss to region %d (in-order core)", l.id, ms.region))
	}
	ms.issuedAt = l.sys.eng.Now()
	l.ms = ms
	l.msLive = true
	l.sys.mshrLive++
	if l.sys.phaseOn() {
		l.sys.record(flight.Record{
			Cycle: ms.issuedAt, Tile: int16(l.id),
			Kind: flight.KindMissStart, Sub: uint8(t),
			Src: int16(l.id), Dst: int16(l.sys.home(ms.region)), Req: int16(l.id),
			Region: uint64(ms.region), R: ms.want,
		})
	}
	m := l.sys.newMsg()
	m.Type = t
	m.Src = l.id
	m.Dst = l.sys.home(ms.region)
	m.Region = ms.region
	m.R = ms.want
	m.Requester = l.id
	l.sys.send(m)
}

// retireMiss records the completed miss's latency. The miss-end record
// carries the same Now() as RecordMissLatency, so the latency fold's
// phase sums reconcile exactly against stats.AvgMissLatency.
func (l *l1Ctrl) retireMiss(ms *mshr) {
	now := l.sys.eng.Now()
	l.sys.st.RecordMissLatency(uint64(now - ms.issuedAt))
	l.sys.mshrLive--
	if l.sys.phaseOn() {
		l.sys.record(flight.Record{
			Cycle: now, Tile: int16(l.id),
			Kind: flight.KindMissEnd, Sub: flight.SubNone,
			Src: int16(l.id), Dst: -1, Req: int16(l.id),
			Region: uint64(ms.region),
		})
	}
}

// recv dispatches a directory-to-L1 message.
func (l *l1Ctrl) recv(m *Msg) {
	switch m.Type {
	case MsgData, MsgDataE, MsgDataM:
		l.fill(m)
	case MsgGrant:
		l.grant(m)
	case MsgFwdGetS:
		l.probeGetS(m)
	case MsgFwdGetX, MsgInv:
		l.probeInval(m)
	default:
		panic(fmt.Sprintf("core: L1 %d received unexpected %v", l.id, m.Type))
	}
}

// fill installs an arriving data response and completes the miss.
func (l *l1Ctrl) fill(m *Msg) {
	ms := l.openMSHR(m.Region)
	if ms == nil {
		panic(fmt.Sprintf("core: L1 %d data for region %d without MSHR", l.id, m.Region))
	}
	if l.sys.edgesOn() {
		defer l.stateEdge(m.Region, l.flightStateCode(m.Region), uint8(m.Type))
	}
	var st cache.State
	switch m.Type {
	case MsgData:
		st = cache.Shared
	case MsgDataE:
		st = cache.Exclusive
	case MsgDataM:
		st = cache.Modified
	}
	blk := cache.Block{
		Region: m.Region, R: m.R, State: st,
		FetchPC: ms.pc, FetchWord: ms.word,
	}
	copy(blk.Data[m.R.Start:m.R.End+1], m.Words[m.R.Start:m.R.End+1])
	l.sys.st.RecordFill(m.R.Words())
	l.sys.st.DataWordsIn += uint64(m.PayloadWords())
	if l.sys.attrib != nil {
		l.sys.attrib.Fill(l.id, m.Region, m.R.Words())
	}
	victims := l.cache.Insert(blk)
	l.handleVictims(victims)

	b := l.cache.Lookup(m.Region, ms.word)
	if b == nil {
		panic("core: filled block immediately evicted (set budget too small)")
	}
	noteMiss(b, ms)
	val := b.Word(ms.word)
	if ms.mode.write() {
		val = applyWrite(b, ms.word, ms.mode, ms.storeVal)
	}
	done := ms.done
	l.msLive = false
	l.retireMiss(ms)
	l.sendUnblock(m.Region)
	done.complete(val)
}

// sendUnblock reopens the region at the directory once a response has
// been installed.
func (l *l1Ctrl) sendUnblock(region mem.RegionID) {
	m := l.sys.newMsg()
	m.Type = MsgUnblock
	m.Src = l.id
	m.Dst = l.sys.home(region)
	m.Region = region
	l.sys.send(m)
}

// grant completes an upgrade. If a racing remote write invalidated the
// block while the upgrade was queued at the directory (the L1 answered
// ACK-S for its other sub-blocks, so the directory still saw it as a
// sharer), the upgrade is reissued as a full GETX — the SM -> IM path.
func (l *l1Ctrl) grant(m *Msg) {
	ms := l.openMSHR(m.Region)
	if ms == nil || !ms.upgrade {
		panic(fmt.Sprintf("core: L1 %d grant for region %d without upgrade MSHR", l.id, m.Region))
	}
	edges := l.sys.edgesOn()
	var from uint8
	if edges {
		from = l.flightStateCode(m.Region)
	}
	b := l.cache.Peek(m.Region, ms.word)
	if b == nil {
		// Block was invalidated under us: unblock the directory, then
		// retry as a full write miss (it will queue behind any activity).
		l.sendUnblock(m.Region)
		ms.upgrade = false
		ms.want = l.cache.TrimFill(ms.region, ms.upgradeR, ms.word)
		retry := l.sys.newMsg()
		retry.Type = MsgGetX
		retry.Src = l.id
		retry.Dst = l.sys.home(ms.region)
		retry.Region = ms.region
		retry.R = ms.want
		retry.Requester = l.id
		l.sys.send(retry)
		if edges {
			l.stateEdge(m.Region, from, flight.CauseReissue)
		}
		return
	}
	noteMiss(b, ms)
	val := applyWrite(b, ms.word, ms.mode, ms.storeVal)
	done := ms.done
	l.msLive = false
	l.retireMiss(ms)
	l.sendUnblock(m.Region)
	if edges {
		l.stateEdge(m.Region, from, uint8(MsgGrant))
	}
	done.complete(val)
}

// probeGetS handles a forwarded read probe: the L1 is (possibly) an
// owner and must surrender write permission on the requested words.
// MESI and Protozoa-SW downgrade the whole region (region-granularity
// coherence); SW+MR and MW downgrade only overlapping sub-blocks, so
// non-overlapping dirty data stays writable (adaptive coherence
// granularity).
func (l *l1Ctrl) probeGetS(m *Msg) {
	if l.sys.edgesOn() {
		defer l.stateEdge(m.Region, l.flightStateCode(m.Region), uint8(MsgFwdGetS))
	}
	blocks := l.cache.BlocksInRegion(m.Region)
	if len(blocks) == 0 {
		l.nack(m)
		return
	}
	reply := l.sys.newMsg()
	reply.Type = MsgAck
	reply.Src = l.id
	reply.Dst = m.Src
	reply.Region = m.Region
	reply.TxnID = m.TxnID
	reply.ForwardedData = m.Direct && l.tryDirectForward(m, MsgData)
	scopeOverlap := l.overlapCoherence()
	processed := 0
	for _, b := range blocks {
		if scopeOverlap && !b.R.Overlaps(m.R) {
			continue
		}
		processed++
		switch b.State {
		case cache.Modified:
			l.carry(reply, b)
			b.State = cache.Shared
		case cache.Exclusive:
			b.State = cache.Shared
		}
	}
	reply.StillSharer = true
	reply.StillOwner = l.anyDirtyOrExclusive(m.Region)
	l.finishReply(reply, processed)
}

// probeInval handles FWD_GETX and INV probes: a remote writer needs
// the requested words, so overlapping sub-blocks must be invalidated
// (the whole region under MESI/Protozoa-SW). Under SW+MR an owner
// additionally loses write permission on its non-overlapping blocks —
// the single-writer rule — while under MW they stay writable.
func (l *l1Ctrl) probeInval(m *Msg) {
	if l.sys.edgesOn() {
		defer l.stateEdge(m.Region, l.flightStateCode(m.Region), uint8(m.Type))
	}
	if m.Type == MsgInv {
		l.sys.st.InvMsgs++
	}
	if !l.cache.HasRegion(m.Region) {
		l.nack(m)
		return
	}
	reply := l.sys.newMsg()
	reply.Type = MsgAck
	reply.Src = l.id
	reply.Dst = m.Src
	reply.Region = m.Region
	reply.TxnID = m.TxnID
	if m.Type == MsgFwdGetX {
		// Capture the words before they are extracted below.
		reply.ForwardedData = m.Direct && l.tryDirectForward(m, MsgDataM)
	}
	var extracted []cache.Block
	if l.overlapCoherence() {
		extracted = l.cache.ExtractOverlapping(m.Region, m.R)
	} else {
		extracted = l.cache.ExtractRegion(m.Region)
	}

	processed := len(extracted)
	for i := range extracted {
		b := &extracted[i]
		l.markDeath(b, diedByInvalidation)
		l.classifyDeath(b)
		if b.State == cache.Modified {
			l.carry(reply, b)
		}
	}
	if len(extracted) > 0 {
		l.sys.st.Invalidations++
		l.cs().Invalidations++
		if l.sys.attrib != nil {
			words := 0
			for i := range extracted {
				words += extracted[i].R.Words()
			}
			// Recall INVs carry Requester -1: no core is the offender.
			l.sys.attrib.Invalidation(m.Region, m.Requester, l.id, words)
		}
	}
	// Protozoa-SW+MR: the probed owner is fully revoked — remaining
	// dirty blocks are written back and downgraded to Shared, so only
	// one writer exists at a time.
	if l.sys.cfg.Protocol == ProtozoaSWMR && m.Type == MsgFwdGetX {
		for _, b := range l.cache.BlocksInRegion(m.Region) {
			switch b.State {
			case cache.Modified:
				l.carry(reply, b)
				b.State = cache.Shared
				processed++
			case cache.Exclusive:
				b.State = cache.Shared
				processed++
			}
		}
	}
	reply.StillSharer = l.cache.HasRegion(m.Region)
	reply.StillOwner = l.anyDirtyOrExclusive(m.Region)
	l.finishReply(reply, processed)
}

// overlapCoherence reports whether probes act at the granularity of
// the request (adaptive coherence) or the whole region.
func (l *l1Ctrl) overlapCoherence() bool {
	p := l.sys.cfg.Protocol
	return p == ProtozoaSWMR || p == ProtozoaMW
}

func (l *l1Ctrl) anyDirtyOrExclusive(region mem.RegionID) bool {
	for _, b := range l.cache.BlocksInRegion(region) {
		if b.State == cache.Modified || b.State == cache.Exclusive {
			return true
		}
	}
	return false
}

// carry adds a dirty block's words to a writeback reply and classifies
// the outgoing payload bytes as used or unused.
func (l *l1Ctrl) carry(reply *Msg, b *cache.Block) {
	reply.Type = MsgWback
	copy(reply.Words[b.R.Start:b.R.End+1], b.Data[b.R.Start:b.R.End+1])
	reply.Valid = reply.Valid.Union(b.R.Bitmap())
	reply.Dirty = reply.Dirty.Union(b.R.Bitmap())
	l.classifyWriteback(b)
}

// finishReply fixes the reply type from what was gathered and sends it
// after the multi-block gather penalty (the CPU_B/COH_B blocking states
// of Figure 8 cost one cycle per extra gathered block).
func (l *l1Ctrl) finishReply(reply *Msg, processed int) {
	if reply.Type != MsgWback {
		if reply.StillSharer {
			reply.Type = MsgAckS
		} else {
			reply.Type = MsgAck
		}
	}
	if reply.Type == MsgWback {
		l.sys.st.Writebacks++
		l.sys.st.DataWordsOut += uint64(reply.PayloadWords())
	}
	delay := engine.Cycle(0)
	if processed > 1 {
		delay = engine.Cycle(processed - 1)
	}
	reply.phase = phaseSend
	l.sys.eng.ScheduleRunner(delay, reply)
}

// tryDirectForward implements the 3-hop fast path (Section 6): when
// the probed L1's resident blocks fully cover the requested range, it
// supplies the requester directly and tells the directory via the
// reply's ForwardedData flag. Partial or no coverage returns false —
// the transaction falls back to 4-hop and the directory supplies the
// data from the (patched) L2.
func (l *l1Ctrl) tryDirectForward(m *Msg, grant MsgType) bool {
	// Probe coverage first, so no message is taken from the pool on the
	// fall-back-to-4-hop path.
	for w := m.R.Start; ; w++ {
		if l.cache.Peek(m.Region, w) == nil {
			return false
		}
		if w == m.R.End {
			break
		}
	}
	data := l.sys.newMsg()
	data.Type = grant
	data.Src = l.id
	data.Dst = m.Requester
	data.Region = m.Region
	data.R = m.R
	data.Valid = m.R.Bitmap()
	for w := m.R.Start; ; w++ {
		data.Words[w] = l.cache.Peek(m.Region, w).Word(w)
		if w == m.R.End {
			break
		}
	}
	l.sys.st.DirectForwards++
	l.sys.send(data)
	return true
}

// nack answers a probe when nothing of the region is resident: the
// stale-directory-entry case after a silent clean eviction.
func (l *l1Ctrl) nack(probe *Msg) {
	m := l.sys.newMsg()
	m.Type = MsgNack
	m.Src = l.id
	m.Dst = probe.Src
	m.Region = probe.Region
	m.TxnID = probe.TxnID
	l.sys.send(m)
}

// handleVictims processes capacity evictions: classify each dead
// block, train the predictor, and write back dirty victims with the
// WBACK/WBACK_LAST distinction of Section 3.3 (clean victims drop
// silently, leaving the directory stale until a NACK cleans it up).
func (l *l1Ctrl) handleVictims(victims []cache.Block) {
	for i := range victims {
		v := &victims[i]
		l.sys.st.Evictions++
		l.markDeath(v, diedByEviction)
		l.classifyDeath(v)
		if v.State != cache.Modified {
			// Bloom directories cannot tolerate silent drops: notify the
			// home when the last block of a region leaves (the TL
			// replacement-notification discipline). Precise directories
			// keep the paper's silent-drop-then-NACK behaviour.
			if l.sys.cfg.Directory == DirBloom && !l.cache.HasRegion(v.Region) {
				note := l.sys.newMsg()
				note.Type = MsgWbackLast
				note.Src = l.id
				note.Dst = l.sys.home(v.Region)
				note.Region = v.Region
				l.sys.send(note)
			}
			continue
		}
		wb := l.sys.newMsg()
		wb.Src = l.id
		wb.Dst = l.sys.home(v.Region)
		wb.Region = v.Region
		wb.Valid = v.R.Bitmap()
		wb.Dirty = v.R.Bitmap()
		copy(wb.Words[v.R.Start:v.R.End+1], v.Data[v.R.Start:v.R.End+1])
		wb.StillSharer = l.cache.HasRegion(v.Region)
		wb.StillOwner = l.anyDirtyOrExclusive(v.Region)
		if wb.StillSharer {
			wb.Type = MsgWback
		} else {
			wb.Type = MsgWbackLast
		}
		l.sys.st.Writebacks++
		l.sys.st.DataWordsOut += uint64(wb.PayloadWords())
		l.classifyWriteback(v)
		l.sys.send(wb)
	}
}

// classifyDeath attributes a dead block's fetched words as used or
// unused (Figure 9), folds its footprint into the attribution tracker,
// and trains the predictor on the observed usage.
func (l *l1Ctrl) classifyDeath(b *cache.Block) {
	used := b.UsedWords()
	l.sys.st.UsedDataBytes += uint64(used) * mem.WordBytes
	l.sys.st.UnusedDataBytes += uint64(b.R.Words()-used) * mem.WordBytes
	if l.sys.attrib != nil {
		// Every fill eventually reaches one of the classifyDeath sites
		// (eviction, invalidation, or Run's residual flush), so the
		// tracker's fetched == used + unused reconciles exactly, and
		// every reference a block served is folded exactly once.
		l.sys.attrib.Death(l.id, b.Region, footprint(b), used, b.R.Words())
		b.Refs = 0
	}
	l.pred.Train(b.FetchPC, b.Region, b.FetchWord, b.Touched(), b.R)
}

// footprint is the block's attribution footprint. The tracker sees
// the L1's references once per block life: each reference is noted on
// the block that serves it (a hit, or the fill or grant completing a
// miss), and classifyDeath folds the block in.
func footprint(b *cache.Block) attrib.Footprint {
	return attrib.Footprint{Read: b.Read, Wrote: b.Wrote, Refs: b.Refs}
}

// noteMiss records a completed miss's reference on the block that
// serves it. A reference a mid-run read already counted only marks
// its word.
func noteMiss(b *cache.Block, ms *mshr) {
	if ms.folded {
		b.Touch(ms.word, ms.mode.write())
	} else {
		b.Note(ms.word, ms.mode.write())
	}
}

// foldPending brings the tracker up to date with every reference this
// L1 resolved: the resident blocks' unfolded references, and an open
// miss's reference, counted now and only marked when it completes.
func (l *l1Ctrl) foldPending() {
	l.cache.Blocks(func(b *cache.Block) {
		if b.Refs != 0 {
			l.sys.attrib.Fold(l.id, b.Region, footprint(b))
			b.Refs = 0
		}
	})
	if ms := &l.ms; l.msLive && !ms.folded {
		l.sys.attrib.Fold(l.id, ms.region, attrib.Reference(ms.word, ms.mode.write()))
		ms.folded = true
	}
}

// classifyWriteback attributes an outgoing writeback payload's words.
func (l *l1Ctrl) classifyWriteback(b *cache.Block) {
	used := b.UsedWords()
	l.sys.st.UsedDataBytes += uint64(used) * mem.WordBytes
	l.sys.st.UnusedDataBytes += uint64(b.R.Words()-used) * mem.WordBytes
}
