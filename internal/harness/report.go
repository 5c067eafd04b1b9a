package harness

import (
	"fmt"
	"strings"

	"protozoa/internal/core"
	"protozoa/internal/stats"
)

// RenderStats formats one run's measurements as a human-readable
// report (used by protozoa sim and the quickstart example).
func RenderStats(workload string, p core.Protocol, s *stats.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s under %s\n", workload, p)
	fmt.Fprintf(&b, "  instructions      %12d\n", s.Instructions)
	fmt.Fprintf(&b, "  accesses          %12d (%d loads, %d stores)\n", s.Accesses, s.Loads, s.Stores)
	fmt.Fprintf(&b, "  L1 hits/misses    %12d / %d (%.2f MPKI, %.2f%% miss rate)\n",
		s.L1Hits, s.L1Misses, s.MPKI(), s.MissRatePct())
	fmt.Fprintf(&b, "  miss classes      %12d cold, %d capacity, %d coherence, %d granularity\n",
		s.MissesCold, s.MissesCapacity, s.MissesCoherence, s.MissesGranularity)
	fmt.Fprintf(&b, "  upgrade misses    %12d\n", s.UpgradeMisses)
	fmt.Fprintf(&b, "  invalidations     %12d (%d INV probes)\n", s.Invalidations, s.InvMsgs)
	fmt.Fprintf(&b, "  evictions         %12d (%d writebacks)\n", s.Evictions, s.Writebacks)
	fmt.Fprintf(&b, "  data traffic      %12d B used, %d B unused (%.1f%% used)\n",
		s.UsedDataBytes, s.UnusedDataBytes, s.UsedPct())
	fmt.Fprintf(&b, "  control traffic   %12d B:", s.ControlTotal())
	for c := 0; c < stats.NumClasses; c++ {
		fmt.Fprintf(&b, " %s=%d", stats.Class(c), s.ControlBytes[c])
	}
	fmt.Fprintf(&b, "\n")
	fmt.Fprintf(&b, "  total traffic     %12d B\n", s.TrafficTotal())
	fmt.Fprintf(&b, "  network           %12d messages, %d flits, %d flit-hops\n",
		s.Messages, s.Flits, s.FlitHops)
	d := s.BlockDistBuckets()
	fmt.Fprintf(&b, "  fill granularity  1-2w %.1f%%  3-4w %.1f%%  5-6w %.1f%%  7-8w %.1f%%\n",
		d[0], d[1], d[2], d[3])
	one, plus, multi := s.OwnerMix()
	fmt.Fprintf(&b, "  dir O-state mix   1owner %.1f%%  1owner+sharers %.1f%%  >1owner %.1f%%\n",
		one, plus, multi)
	fmt.Fprintf(&b, "  miss latency      %12.1f cycles avg, p50 <= %d, p95 <= %d, max %d\n",
		s.AvgMissLatency(), s.MissLatencyP(50), s.MissLatencyP(95), s.MissLatencyMax)
	fmt.Fprintf(&b, "  execution         %12d cycles\n", s.ExecCycles)
	fmt.Fprintf(&b, "  engine queue      %12d high-water, %d zero-delay hits\n",
		s.EventQueueHighWater, s.ZeroDelayHits)
	fmt.Fprintf(&b, "  energy (est.)     %s\n", stats.DefaultEnergyModel().Estimate(s))
	if len(s.PerCore) > 0 {
		fmt.Fprintf(&b, "  per core          %6s %10s %10s %10s %8s\n",
			"core", "accesses", "hits", "misses", "invals")
		for c := range s.PerCore {
			cs := &s.PerCore[c]
			fmt.Fprintf(&b, "                    %6d %10d %10d %10d %8d\n",
				c, cs.Accesses, cs.Hits, cs.Misses, cs.Invalidations)
		}
	}
	return b.String()
}
