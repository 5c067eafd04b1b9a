package core

// The random protocol tester, following the paper's validation
// methodology ("We have tested protozoa extensively with the random
// tester (1 million accesses)"). Random multi-core access records
// drive the full system while an observer checks, at every directory
// quiescent point:
//
//   - the SWMR invariant at the protocol's granularity: region
//     granularity for MESI/Protozoa-SW, word granularity for
//     SW+MR/MW, plus the single-writer-per-region rule for SW+MR;
//   - value integrity: every word cached anywhere equals the golden
//     value (the last value written in coherence order), so lost
//     writebacks, stale copies, or mis-patched L2 data are caught;
//   - every completed load observed the golden value at completion.

import (
	"fmt"
	"testing"

	"protozoa/internal/workloads"
)

// newChecker attaches the library Checker (internal/core/checker.go)
// and reports its violations as test failures when the test ends.
func newChecker(t *testing.T, sys *System) *Checker {
	t.Helper()
	c := NewChecker(sys)
	t.Cleanup(func() {
		for _, v := range c.Violations() {
			t.Error(v)
		}
	})
	return c
}

func runRandomStress(t *testing.T, p Protocol, cores, accesses, regions int, seed uint64, smallCache bool) {
	t.Helper()
	cfg := testConfig(p, cores)
	cfg.MaxEvents = uint64(cores*accesses)*40 + 1_000_000
	if smallCache {
		// Tiny cache: constant evictions exercise WBACK/WBACK_LAST,
		// silent drops, and NACK paths.
		cfg.L1Sets = 2
		cfg.L1SetBudget = 144
	}
	perCore := workloads.RandomRecords(cores, accesses, regions, 40, seed)
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(t, sys)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if chk.Checks == 0 {
		t.Error("checker never ran")
	}
	if got := sys.Stats().Accesses; got != uint64(cores*accesses) {
		t.Errorf("completed %d accesses, want %d", got, cores*accesses)
	}
}

func TestRandomStressAllProtocols(t *testing.T) {
	for _, p := range AllProtocols {
		for seed := uint64(1); seed <= 3; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", p, seed), func(t *testing.T) {
				runRandomStress(t, p, 4, 1500, 8, seed, false)
			})
		}
	}
}

func TestRandomStressSmallCache(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			runRandomStress(t, p, 4, 1500, 12, 99, true)
		})
	}
}

func TestRandomStressWithContention(t *testing.T) {
	// Golden-value checking with NoC link contention enabled, and the
	// contended run must not finish earlier than the uncontended one.
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			run := func(contention bool) *System {
				cfg := testConfig(p, 4)
				cfg.Noc.ModelContention = contention
				cfg.MaxEvents = 5_000_000
				perCore := workloads.RandomRecords(4, 1500, 8, 40, 42)
				sys, err := NewSystem(cfg, perCore)
				if err != nil {
					t.Fatal(err)
				}
				if contention {
					newChecker(t, sys)
				}
				if err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				return sys
			}
			base := run(false)
			cont := run(true)
			if cont.Stats().ExecCycles < base.Stats().ExecCycles {
				t.Errorf("contended run (%d cycles) faster than uncontended (%d)",
					cont.Stats().ExecCycles, base.Stats().ExecCycles)
			}
			if cont.Stats().LinkStallCycles == 0 {
				t.Error("no link stalls under a contended random workload")
			}
		})
	}
}

func TestRandomStressWithBlockMerging(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 4)
			cfg.MergeL1Blocks = true
			cfg.MaxEvents = 5_000_000
			perCore := workloads.RandomRecords(4, 1500, 8, 40, 19)
			sys, err := NewSystem(cfg, perCore)
			if err != nil {
				t.Fatal(err)
			}
			chk := newChecker(t, sys)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if chk.Checks == 0 {
				t.Error("checker never ran")
			}
		})
	}
}

func TestRandomStressSixteenCores(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			runRandomStress(t, p, 16, 400, 6, 7, false)
		})
	}
}

// TestRandomStressMillion reproduces the paper's full-scale random
// test: one million checked accesses across the protocol family
// (250k per protocol, 16 cores). Skipped under -short. The protocols
// run as parallel subtests: each owns its machine, and the race pass
// then sees machines running side by side in one process, sharing
// only the engine's pooled queue storage.
func TestRandomStressMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("million-access stress skipped in -short mode")
	}
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			runRandomStress(t, p, 16, 15625, 16, 2013, false)
		})
	}
}
