package obs

import (
	"fmt"

	"protozoa/internal/obs/flight"
)

// Phase is one segment of a coherence transaction's life, from the L1
// issuing the miss to the fill (or grant) installing. The five phases
// tile the interval exactly, so their per-miss sums always add up to
// the miss's total latency — the invariant the report checks against
// stats.AvgMissLatency.
type Phase uint8

const (
	// PhaseReqNoC is the request's network flight: L1 issue to the
	// home directory accepting (or queueing) it.
	PhaseReqNoC Phase = iota
	// PhaseDirQueue is time spent queued behind an earlier transaction
	// on the same region (zero when the region was idle).
	PhaseDirQueue
	// PhaseL2Access is the directory's L2 lookup, including the
	// one-time memory fetch on a region's first touch.
	PhaseL2Access
	// PhaseFanOut is the probe round trip: FWD/INV fan-out until the
	// last ack returns (zero when no sharer needed probing).
	PhaseFanOut
	// PhaseData is response assembly and flight until the L1 installs
	// the fill (or applies the upgrade grant).
	PhaseData
	NumPhases
)

// String names the phase.
func (p Phase) String() string {
	if p < NumPhases {
		return flight.PhaseNames[p]
	}
	return "Phase(?)"
}

// Fixed-bucket total-latency histogram geometry: LatBuckets buckets of
// LatBucketWidth cycles each; the last bucket absorbs the overflow.
const (
	LatBucketWidth = 32
	LatBuckets     = 128
)

// LatencyBreakdown accumulates per-phase miss-latency sums and a
// fixed-bucket histogram of total latency, per system (one protocol).
// It is an online fold over the flight spine's six miss/transaction
// records (miss-start, dir-accept, txn-start, txn-process, txn-last-ack,
// miss-end), fed as they are emitted — so it stays exact however small
// the flight ring is, and needs no ring at all when it is the only view.
type LatencyBreakdown struct {
	open []coreFold // per requesting core

	PhaseSum [NumPhases]uint64
	Count    uint64
	TotalSum uint64
	MaxLat   uint64
	Hist     [LatBuckets]uint64
}

// coreFold is one core's share of the fold: its open miss's phase chain
// and the totals its completed misses have accrued. Every record folded
// into a slot belongs to that core's causal chain (an in-order core has
// one miss outstanding).
type coreFold struct {
	chain flight.Chain
	live  bool
	done  LatencyBreakdown
}

// NewLatencyBreakdown sizes the per-core fold table.
func NewLatencyBreakdown(cores int) *LatencyBreakdown {
	return &LatencyBreakdown{open: make([]coreFold, cores)}
}

// Fold applies one flight record, keyed by its requesting core (Req):
// miss-start opens the core's chain, the directory-phase kinds stamp
// it (flight.Chain's overwrite semantics, so a reissued upgrade's
// abandoned round folds into req-noc), and miss-end closes it and
// accrues its phases. Other kinds, and records with no requesting core
// (inclusion recalls), are ignored.
func (l *LatencyBreakdown) Fold(r *flight.Record) {
	if r.Req < 0 || int(r.Req) >= len(l.open) {
		return
	}
	c := &l.open[r.Req]
	switch r.Kind {
	case flight.KindMissStart:
		c.chain = flight.Chain{uint64(r.Cycle)}
		c.live = true
	case flight.KindMissEnd:
		if !c.live {
			return
		}
		c.live = false
		now := uint64(r.Cycle)
		c.done.add(c.chain.Close(now), now-c.chain[0])
	default:
		c.chain.Stamp(r)
	}
}

// add accrues one completed miss.
func (l *LatencyBreakdown) add(dwell [NumPhases]uint64, total uint64) {
	for p, d := range dwell {
		l.PhaseSum[p] += d
	}
	l.Count++
	l.TotalSum += total
	if total > l.MaxLat {
		l.MaxLat = total
	}
	l.Hist[min(total/LatBucketWidth, LatBuckets-1)]++
}

// Settle moves every core's accrued totals into the exported fields.
// The machine calls it once Run completes; until then the exported
// fields hold only what earlier Settle calls moved.
func (l *LatencyBreakdown) Settle() {
	for i := range l.open {
		l.Merge(&l.open[i].done)
		l.open[i].done = LatencyBreakdown{}
	}
}

// Merge folds another breakdown's accumulated totals into l (the open
// fold tables are not merged; merge settled runs only).
func (l *LatencyBreakdown) Merge(other *LatencyBreakdown) {
	for p := range l.PhaseSum {
		l.PhaseSum[p] += other.PhaseSum[p]
	}
	l.Count += other.Count
	l.TotalSum += other.TotalSum
	if other.MaxLat > l.MaxLat {
		l.MaxLat = other.MaxLat
	}
	for b := range l.Hist {
		l.Hist[b] += other.Hist[b]
	}
}

// AvgPhase is the mean cycles per completed miss spent in the phase.
func (l *LatencyBreakdown) AvgPhase(p Phase) float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.PhaseSum[p]) / float64(l.Count)
}

// AvgTotal is the mean total miss latency; by construction it equals
// the sum of the per-phase averages.
func (l *LatencyBreakdown) AvgTotal() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.TotalSum) / float64(l.Count)
}

// Percentile returns the upper bound of the histogram bucket holding
// the p-th percentile (p in (0,100]), clamped to the observed maximum.
func (l *LatencyBreakdown) Percentile(p float64) uint64 {
	if l.Count == 0 {
		return 0
	}
	threshold := uint64(float64(l.Count) * p / 100)
	if threshold == 0 {
		threshold = 1
	}
	var cum uint64
	for b, c := range l.Hist {
		cum += c
		if cum >= threshold {
			bound := uint64(b+1) * LatBucketWidth
			if b == LatBuckets-1 || bound > l.MaxLat {
				// The overflow bucket is unbounded above; report the
				// observed maximum (likewise when the bucket edge
				// exceeds every recorded latency).
				bound = l.MaxLat
			}
			return bound
		}
	}
	return l.MaxLat
}

// Row renders the decomposition as one aligned text line: per-phase
// averages, the total, and the latency tail.
func (l *LatencyBreakdown) Row() string {
	s := ""
	for p := Phase(0); p < NumPhases; p++ {
		s += fmt.Sprintf(" %11.1f", l.AvgPhase(p))
	}
	return s + fmt.Sprintf(" %11.1f  p50<=%-6d p95<=%-6d p99<=%-6d",
		l.AvgTotal(), l.Percentile(50), l.Percentile(95), l.Percentile(99))
}
