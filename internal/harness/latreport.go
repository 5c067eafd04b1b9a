package harness

import (
	"fmt"
	"strings"

	"protozoa/internal/core"
	"protozoa/internal/obs"
)

// mergedBreakdown folds every workload's breakdown for one protocol
// into a single accumulator.
func (m *Matrix) mergedBreakdown(p core.Protocol) *obs.LatencyBreakdown {
	merged := &obs.LatencyBreakdown{}
	for _, w := range m.Workloads {
		if b := m.Breakdowns[w][p]; b != nil {
			merged.Merge(b)
		}
	}
	return merged
}

// PhaseDecomposition renders the per-protocol miss-latency phase
// table: average cycles per miss in each transaction phase, their sum,
// and the stats-side average miss latency they must reconcile with
// (the phases tile the miss interval, so the two columns agree to
// rounding — the cross-check the observability layer is built around).
// It reads Matrix.Breakdowns, which only the report's matrix holds.
func (m *Matrix) PhaseDecomposition() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s", "protocol")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		fmt.Fprintf(&b, " %11s", p)
	}
	fmt.Fprintf(&b, " %11s %11s %8s %10s  %s\n", "phase-sum", "avg-lat", "q-high", "zero-delay", "tail")
	for _, p := range m.Protocols {
		lat := m.mergedBreakdown(p)
		var misses, latSum, qHigh, zeroDelay uint64
		for _, w := range m.Workloads {
			if s := m.Get(w, p); s != nil {
				misses += s.L1Misses
				latSum += s.MissLatencySum
				// Queue high-water is a per-run peak, not additive;
				// report the deepest any workload's queue got.
				if s.EventQueueHighWater > qHigh {
					qHigh = s.EventQueueHighWater
				}
				zeroDelay += s.ZeroDelayHits
			}
		}
		avg := 0.0
		if misses > 0 {
			avg = float64(latSum) / float64(misses)
		}
		var phaseSum float64
		for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
			phaseSum += lat.AvgPhase(ph)
		}
		fmt.Fprintf(&b, "%-15s", p)
		for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
			fmt.Fprintf(&b, " %11.1f", lat.AvgPhase(ph))
		}
		fmt.Fprintf(&b, " %11.1f %11.1f %8d %10d  p50<=%d p95<=%d p99<=%d\n",
			phaseSum, avg, qHigh, zeroDelay,
			lat.Percentile(50), lat.Percentile(95), lat.Percentile(99))
	}
	return b.String()
}
