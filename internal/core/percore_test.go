package core

import (
	"testing"

	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// TestPerCoreStatsSumToAggregates: the per-core breakdown must
// partition the aggregate counters exactly, on every protocol.
func TestPerCoreStatsSumToAggregates(t *testing.T) {
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 4)
			perCore := workloads.RandomRecords(4, 800, 8, 40, 606)
			sys, err := NewSystem(cfg, perCore)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			s := sys.Stats()
			var acc, loads, stores, hits, misses, invals uint64
			for _, cs := range s.PerCore {
				acc += cs.Accesses
				loads += cs.Loads
				stores += cs.Stores
				hits += cs.Hits
				misses += cs.Misses
				invals += cs.Invalidations
			}
			if acc != s.Accesses || loads != s.Loads || stores != s.Stores {
				t.Errorf("access sums %d/%d/%d != aggregates %d/%d/%d",
					acc, loads, stores, s.Accesses, s.Loads, s.Stores)
			}
			if hits != s.L1Hits || misses != s.L1Misses {
				t.Errorf("hit/miss sums %d/%d != aggregates %d/%d", hits, misses, s.L1Hits, s.L1Misses)
			}
			if invals != s.Invalidations {
				t.Errorf("invalidation sum %d != aggregate %d", invals, s.Invalidations)
			}
		})
	}
}

// TestPerCoreStatsAttributed: an idle core records nothing; a busy one
// records its own accesses.
func TestPerCoreStatsAttributed(t *testing.T) {
	sys := runSys(t, testConfig(MESI, 2), [][]trace.Access{
		{ld(0x0), st(0x0), ld(0x40)},
		nil,
	})
	s := sys.Stats()
	if s.PerCore[0].Accesses != 3 || s.PerCore[0].Misses != 2 {
		t.Errorf("core 0 = %+v, want 3 accesses, 2 misses", s.PerCore[0])
	}
	if s.PerCore[1].Accesses != 0 {
		t.Errorf("idle core 1 = %+v, want zero", s.PerCore[1])
	}
}
