// Package selfprof is the simulator's self-profiling layer: where
// internal/obs observes the simulated machine, selfprof observes the
// simulator itself — the PDES window loop's round structure, the
// per-tile event queues' occupancy, and the wall-clock split between
// running events, waiting at barriers, and coordinator bookkeeping.
//
// It exists to answer questions like the one PR 8 left open: the
// workers=1 window loop runs ~1.44x slower than the sequential engine
// on the same event stream — where do those cycles go? The layer is
// strictly opt-in (System.EnableSelfProf before Run); every hot-path
// site in core and engine guards on a single nil check, and recording
// is allocation-free: shards are padded per-tile structs bumped by the
// goroutine that owns the tile for the round, and round spans land in
// preallocated rings.
//
// Synchronization rides the window loop's existing happens-before
// chain: the coordinator writes a shard's round fields before the
// epoch counter release, the worker running the tile writes its run
// fields before its done-counter store, and the coordinator reads
// after the done acquire — no additional atomics, race-detector clean.
package selfprof

import (
	"math/bits"
	"time"

	"protozoa/internal/engine"
)

// DefaultSpanCap bounds each span ring (one per tile, plus the
// coordinator's): 4096 rounds ≈ 160 KB/tile of spans, enough to see
// the steady-state round texture without growing with the run.
const DefaultSpanCap = 4096

// Span is one wall-clock execution span: a tile running one PDES round
// (or, on the coordinator ring, one whole round including the barrier).
type Span struct {
	Round   uint64 // coordinator round number (1-based)
	StartNs int64  // wall-clock offset from Profile.Start
	DurNs   int64
	Bound   uint64 // window bound the run was given (exclusive cycle)
	Clock   uint64 // tile clock (or round simNow) when the span ended
	Events  uint64 // events processed inside the span
}

// spanRing is a fixed-capacity overwrite-oldest span buffer.
type spanRing struct {
	buf   []Span
	next  int
	total uint64 // spans ever recorded; dropped = total - len(kept)
}

func (r *spanRing) record(sp Span) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = sp
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.total++
}

// snapshot returns the retained spans oldest-first.
func (r *spanRing) snapshot() []Span {
	if r.total >= uint64(len(r.buf)) {
		out := make([]Span, 0, len(r.buf))
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	out := make([]Span, r.next)
	copy(out, r.buf[:r.next])
	return out
}

func (r *spanRing) dropped() uint64 {
	if kept := uint64(len(r.buf)); r.total > kept {
		return r.total - kept
	}
	return 0
}

// TileShard is one tile's self-profiling accumulator. The embedded
// engine.Prof is attached to the tile's event queue via SetProf; the
// round counters are maintained by the window-loop coordinator; the
// run-side fields (Events, WallNs, spans) are written by whichever
// goroutine executes the tile's window, which the epoch/done atomics
// order against the coordinator's reads. Padding inside engine.Prof
// plus the trailing pad keep adjacent shards off shared cache lines.
type TileShard struct {
	Queue engine.Prof // ring/far/micro occupancy, refusals, limit cuts

	BusyRounds      uint64 // rounds this tile executed a window
	IdleRounds      uint64 // rounds it did not (empty queue, or skipped)
	SkippedWithWork uint64 // idle rounds where work was queued but the bound didn't clear its peek
	Events          uint64 // events processed across busy rounds
	WallNs          int64  // wall-clock inside RunUntil across busy rounds
	MicroHits       uint64 // zero-delay schedules (engine.MicroHits, filled at finish)

	// CurRound is the round number this tile was dealt into, written by
	// the coordinator before the epoch release so the executing worker
	// can stamp the span without touching coordinator state.
	CurRound uint64

	// Epoch anchors span timestamps (copy of Profile.Start).
	Epoch time.Time

	spans spanRing

	_ [64]byte // keep neighbouring shards apart
}

// RecordSpan appends one round-execution span to the tile's ring.
func (ts *TileShard) RecordSpan(sp Span) { ts.spans.record(sp) }

// Spans returns the retained spans oldest-first.
func (ts *TileShard) Spans() []Span { return ts.spans.snapshot() }

// WorkerShard is one crew worker's wall-clock split, written only by
// that worker (the coordinator's wait lives in Profile.CoordWaitNs).
type WorkerShard struct {
	SpinNs int64  // waiting for a new epoch between rounds
	BusyNs int64  // running the tiles dealt to this worker
	Rounds uint64 // epochs this worker processed

	_ [64]byte
}

// widthBuckets is the round-width histogram size: log2 buckets with
// upper bounds 2^0 .. 2^(widthBuckets-1) cycles; the last bucket also
// absorbs anything wider. 18 buckets cover the soloSlice cap (2^16)
// with headroom.
const widthBuckets = 18

// WidthHist is a log2 histogram of PDES round widths (the window
// granted to the round's minimum tile, in cycles).
type WidthHist struct {
	Buckets [widthBuckets]uint64
	Sum     uint64
	Max     uint64
	N       uint64
}

// Observe files one round width.
func (h *WidthHist) Observe(w uint64) {
	if w == 0 {
		w = 1
	}
	idx := bits.Len64(w - 1) // ceil(log2(w)): 1→0, 2→1, 3..4→2, …
	if idx >= widthBuckets {
		idx = widthBuckets - 1
	}
	h.Buckets[idx]++
	h.Sum += w
	h.N++
	if w > h.Max {
		h.Max = w
	}
}

// Quantile returns the upper bound of the bucket holding quantile q
// (0 < q <= 1) — a coarse percentile, exact to the log2 bucketing.
func (h *WidthHist) Quantile(q float64) uint64 {
	if h.N == 0 {
		return 0
	}
	target := uint64(q * float64(h.N))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen >= target {
			return uint64(1) << i
		}
	}
	return uint64(1) << (widthBuckets - 1)
}

// Profile is the run-wide self-profiling state. The coordinator owns
// every field except the tile shards' run-side fields and the worker
// shards; see the package comment for the synchronization story.
type Profile struct {
	Mode       string // "pdes" or "sequential"
	Workers    int    // crew size (PDES), 0 in sequential mode
	LookaheadW uint64 // mesh lookahead W used for window bounds

	Start time.Time

	Rounds             uint64 // window-loop iterations that ran at least one tile
	InlineRounds       uint64 // rounds run on the coordinator without dispatching the crew
	SoloExtendedRounds uint64 // rounds whose minimum tile got a window beyond min1+W
	BarrierReleases    uint64 // global-barrier count-and-release events
	InjectedMsgs       uint64 // cross-tile messages moved from outboxes at round edges

	Width WidthHist

	// Wall-clock decomposition of the window loop. BookkeepingNs is
	// derived at report time: LoopNs - RunNs (scan, bounds, injection,
	// peek refresh, barrier accounting).
	LoopNs      int64 // total windowLoop wall-clock
	RunNs       int64 // run phase (inline tile runs or pool dispatch+wait)
	CoordWaitNs int64 // coordinator polling worker done-counters (within RunNs)
	MergeNs     int64 // mergePDES (shard fold) wall-clock

	TotalEvents uint64 // EventsProcessed() at finish
	TotalNs     int64  // wall-clock of the whole Run

	Tiles      []TileShard
	WorkerWait []WorkerShard // indexed by crew worker; [0] unused (coordinator)

	coord spanRing // whole-round spans on the coordinator
}

// New returns a profile for a machine with the given tile and crew
// counts. spanCap <= 0 selects DefaultSpanCap; spanCap == 1 keeps the
// rings but minimal (tests).
func New(tiles, workers, spanCap int) *Profile {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	p := &Profile{
		Start: time.Now(),
		Tiles: make([]TileShard, tiles),
		coord: spanRing{buf: make([]Span, spanCap)},
	}
	p.Workers = workers
	if workers > 1 {
		p.WorkerWait = make([]WorkerShard, workers)
	}
	for i := range p.Tiles {
		p.Tiles[i].Epoch = p.Start
		p.Tiles[i].spans = spanRing{buf: make([]Span, spanCap)}
	}
	return p
}

// RecordRound appends one whole-round span to the coordinator ring.
func (p *Profile) RecordRound(sp Span) { p.coord.record(sp) }

// CoordSpans returns the retained coordinator round spans oldest-first.
func (p *Profile) CoordSpans() []Span { return p.coord.snapshot() }
