package core

// Tests for the Section 6 "Non-Inclusive Shared Cache" design issue:
// the L2 drops exclusively granted words and must later assemble
// responses from an owner writeback plus re-fetched memory words.

import (
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/predictor"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

func nonInclusiveCfg(p Protocol, n int) Config {
	cfg := testConfig(p, n)
	cfg.NonInclusiveL2 = true
	return cfg
}

// TestNonInclusiveAssemblyFlow is the paper's Section 6 fallback
// scenario: a block granted Exclusive is silently dropped, so neither
// the stale owner (NACK) nor the non-inclusive L2 (copy dropped at
// grant time) has the words — the directory must re-fetch them from
// memory to complete the response.
func TestNonInclusiveAssemblyFlow(t *testing.T) {
	cfg := nonInclusiveCfg(MESI, 2)
	cfg.L1Sets = 1
	var c0 []trace.Access
	c0 = append(c0, ld(0x0)) // DataE: the L2 drops its copy of region 0
	for i := 1; i <= 8; i++ {
		c0 = append(c0, ld(regAddr(2*i))) // silently evict region 0
	}
	c0 = append(c0, trace.Access{Kind: trace.Barrier})
	sys := runSys(t, cfg, [][]trace.Access{
		c0,
		{{Kind: trace.Barrier}, ld(0x0)},
	})
	st := sys.Stats()
	if st.MemFetches == 0 {
		t.Error("non-inclusive L2 never re-fetched dropped words")
	}
	if st.ControlBytes[4] == 0 { // ClassNACK: the stale owner
		t.Error("expected the stale owner's NACK")
	}
}

// TestNonInclusivePartialOwnerCoverage: the owner was granted only a
// sub-range; after it is revoked, a request spanning more than the
// owner's words assembles from its writeback plus L2-valid words.
func TestNonInclusivePartialOwnerCoverage(t *testing.T) {
	cfg := nonInclusiveCfg(ProtozoaSW, 2)
	cfg.PredictorOverride = func(int) predictor.Predictor {
		return rangePred{ranges: []mem.Range{{Start: 2, End: 6}, {Start: 0, End: 3}}}
	}
	base := mem.Addr(256 * 64)
	perCore := [][]trace.Access{
		{{Kind: trace.Barrier}, ld(base)}, // GETS 0-3
		{st(base + 2*8), {Kind: trace.Barrier}},
	}
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	rec := &loadRecorder{}
	sys.SetObserver(rec)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Words 0-1 stayed L2-valid (never granted), 2-3 come back with the
	// owner's writeback: no memory fetch needed, values correct.
	if sys.Stats().MemFetches != 0 {
		t.Errorf("mem fetches = %d, want 0 (writeback covers the gap)", sys.Stats().MemFetches)
	}
	if len(rec.loads) != 1 || rec.loads[0].val != 0 {
		t.Errorf("load = %+v, want untouched word 0 (zero)", rec.loads)
	}
}

func TestNonInclusiveValueIntegrity(t *testing.T) {
	// A written value must survive the L2 dropping its copy: write,
	// evict the L1 block (writeback restores L2 validity), read back.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := nonInclusiveCfg(p, 1)
			cfg.L1Sets = 1
			var recs []trace.Access
			recs = append(recs, st(0x0))
			for i := 1; i <= 8; i++ {
				recs = append(recs, ld(regAddr(i)))
			}
			recs = append(recs, ld(0x0))
			perCore := [][]trace.Access{recs}
			sys, err := NewSystem(cfg, perCore)
			if err != nil {
				t.Fatal(err)
			}
			chk := newChecker(t, sys)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			_ = chk
		})
	}
}

func TestNonInclusiveStress(t *testing.T) {
	// Full random stress with golden-value checking over the
	// non-inclusive L2, for every protocol, plus the finite-L2 combo.
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := nonInclusiveCfg(p, 4)
			cfg.L2RegionsPerTile = 4
			cfg.MaxEvents = 8_000_000
			perCore := workloads.RandomRecords(4, 1200, 12, 40, 808)
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
