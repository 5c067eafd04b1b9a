package core

// Miss-classification tests: the four classes must partition the miss
// count exactly, and each class must dominate where its mechanism
// dominates.

import (
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

func classSum(sys *System) uint64 {
	s := sys.Stats()
	return s.MissesCold + s.MissesCapacity + s.MissesCoherence + s.MissesGranularity
}

func TestMissClassesPartitionMisses(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 4)
			cfg.L1Sets = 2
			cfg.L1SetBudget = 144
			perCore := workloads.RandomRecords(4, 1500, 10, 40, 77)
			sys, err := NewSystem(cfg, perCore)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := classSum(sys), sys.Stats().L1Misses; got != want {
				t.Errorf("class sum %d != misses %d", got, want)
			}
		})
	}
}

func TestMissClassColdOnly(t *testing.T) {
	// Streaming through fresh regions: everything cold.
	var recs []trace.Access
	for i := 0; i < 40; i++ {
		recs = append(recs, ld(regAddr(i)))
	}
	sys := runSys(t, testConfig(MESI, 1), [][]trace.Access{recs})
	s := sys.Stats()
	if s.MissesCold != s.L1Misses || s.MissesCoherence != 0 || s.MissesCapacity != 0 {
		t.Errorf("classes = %d/%d/%d/%d, want all cold",
			s.MissesCold, s.MissesCapacity, s.MissesCoherence, s.MissesGranularity)
	}
}

func TestMissClassCapacity(t *testing.T) {
	// Thrash one set, then re-read: the re-reads are capacity misses.
	cfg := testConfig(MESI, 1)
	cfg.L1Sets = 1
	var recs []trace.Access
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 8; i++ { // 8 regions > 4 ways
			recs = append(recs, ld(regAddr(i)))
		}
	}
	sys := runSys(t, cfg, [][]trace.Access{recs})
	s := sys.Stats()
	if s.MissesCapacity == 0 {
		t.Error("no capacity misses while thrashing")
	}
	if s.MissesCoherence != 0 {
		t.Errorf("coherence misses = %d on a single core", s.MissesCoherence)
	}
	if s.MissesCold != 8 {
		t.Errorf("cold misses = %d, want 8", s.MissesCold)
	}
}

func TestMissClassCoherenceOnFalseSharing(t *testing.T) {
	// MESI on the false-sharing counter: after the two cold misses,
	// every miss is a coherence miss. Under MW (one-word fills) the
	// coherence column collapses to the warm-up upgrades.
	mesi := runSys(t, testConfig(MESI, 2), falseSharingRecords(150))
	s := mesi.Stats()
	if s.MissesCoherence < s.L1Misses*9/10-2 {
		t.Errorf("MESI coherence misses = %d of %d, want nearly all", s.MissesCoherence, s.L1Misses)
	}

	cfg := testConfig(ProtozoaMW, 2)
	cfg.PredictorOverride = oneWordOverride
	mw := runSys(t, cfg, falseSharingRecords(150))
	sm := mw.Stats()
	if sm.MissesCoherence > 2 {
		t.Errorf("MW coherence misses = %d, want <= 2 (the warm-up upgrade)", sm.MissesCoherence)
	}
}

func TestMissClassGranularityUnderfetch(t *testing.T) {
	// One-word fills over an 8-word streaming region: 1 cold miss plus
	// 7 granularity misses per region.
	cfg := testConfig(ProtozoaSW, 1)
	cfg.PredictorOverride = oneWordOverride
	var recs []trace.Access
	for r := 0; r < 4; r++ {
		for w := 0; w < 8; w++ {
			recs = append(recs, ld(regAddr(r)+mem.Addr(w*8)))
		}
	}
	sys := runSys(t, cfg, [][]trace.Access{recs})
	s := sys.Stats()
	if s.MissesCold != 4 || s.MissesGranularity != 28 {
		t.Errorf("cold/granularity = %d/%d, want 4/28", s.MissesCold, s.MissesGranularity)
	}
}
