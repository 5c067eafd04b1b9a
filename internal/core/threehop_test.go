package core

// Tests for the 3-hop extension (Section 6, "3-hop vs 4-hop"): direct
// owner-to-requester forwarding with 4-hop fallback when the forward
// cannot complete at the owner.

import (
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// regAddr is the base address of the i-th 64-byte region.
func regAddr(i int) mem.Addr { return mem.Addr(i * 64) }

func threeHopCfg(p Protocol, n int) Config {
	cfg := testConfig(p, n)
	cfg.ThreeHop = true
	return cfg
}

func TestThreeHopForwardsOwnerData(t *testing.T) {
	// Core 1 dirties a region; core 0 reads it. The owner covers the
	// whole (full-region) request, so it must forward directly.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			sys := runSys(t, threeHopCfg(p, 2), [][]trace.Access{
				{{Kind: trace.Barrier}, ld(0x1000)},
				{st(0x1000), {Kind: trace.Barrier}},
			})
			if sys.Stats().DirectForwards == 0 {
				t.Error("no direct forwards on an owned-region read")
			}
		})
	}
}

func TestThreeHopValueCorrect(t *testing.T) {
	// The forwarded data must carry the owner's dirty value.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := threeHopCfg(p, 2)
			perCore := [][]trace.Access{
				{{Kind: trace.Barrier}, ld(0x1000)},
				{st(0x1000), {Kind: trace.Barrier}},
			}
			sys, err := NewSystem(cfg, perCore)
			if err != nil {
				t.Fatal(err)
			}
			rec := &loadRecorder{}
			onLoads(sys, rec.onLoad)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			want := uint64(2)<<40 | 1
			if len(rec.loads) != 1 || rec.loads[0].val != want {
				t.Errorf("loads = %+v, want value %#x", rec.loads, want)
			}
		})
	}
}

func TestThreeHopFallbackOnPartialCoverage(t *testing.T) {
	// With a one-word predictor, the owner holds only word 0 while the
	// requester asks for word 4's fill trimmed range — for MESI-style
	// full requests the owner holds word 0 only, so a read of words
	// beyond it cannot complete at the owner and falls back to 4-hop.
	cfg := threeHopCfg(ProtozoaSW, 2)
	cfg.PredictorOverride = oneWordOverride
	sys := runSys(t, cfg, [][]trace.Access{
		{{Kind: trace.Barrier}, ld(0x1020)}, // word 4: owner has only word 0
		{st(0x1000), {Kind: trace.Barrier}},
	})
	st := sys.Stats()
	if st.DirectForwards != 0 {
		t.Errorf("direct forwards = %d, want 0 (partial coverage must fall back)", st.DirectForwards)
	}
	if st.L1Misses != 2 {
		t.Errorf("misses = %d, want 2", st.L1Misses)
	}
}

func TestThreeHopFallbackOnStaleOwner(t *testing.T) {
	// The owner silently dropped its clean-exclusive block: the forward
	// cannot complete (the paper's E-dropped case) and the directory
	// supplies the data itself after the NACK.
	cfg := threeHopCfg(MESI, 2)
	cfg.L1Sets = 1
	var c0 []trace.Access
	c0 = append(c0, ld(0x0)) // E grant
	for i := 1; i <= 8; i++ {
		c0 = append(c0, ld(regAddr(i))) // silently evict region 0
	}
	c0 = append(c0, trace.Access{Kind: trace.Barrier})
	sys := runSys(t, cfg, [][]trace.Access{
		c0,
		{{Kind: trace.Barrier}, ld(0x0)},
	})
	st := sys.Stats()
	if st.DirectForwards != 0 {
		t.Errorf("direct forwards = %d, want 0 (stale owner)", st.DirectForwards)
	}
	if st.ControlBytes[4] == 0 { // ClassNACK
		t.Error("expected a NACK from the stale owner")
	}
}

func TestThreeHopReducesLatency(t *testing.T) {
	// A chain of owner-to-owner transfers: 3-hop should not be slower
	// than 4-hop and should normally be faster.
	mk := func() [][]trace.Access {
		var a, b []trace.Access
		for i := 0; i < 120; i++ {
			addr := regAddr(i % 8)
			a = append(a, st(addr))
			b = append(b, st(addr))
		}
		return [][]trace.Access{a, b}
	}
	four := runSys(t, testConfig(MESI, 2), mk())
	three := runSys(t, threeHopCfg(MESI, 2), mk())
	if three.Stats().ExecCycles > four.Stats().ExecCycles {
		t.Errorf("3-hop cycles %d > 4-hop cycles %d", three.Stats().ExecCycles, four.Stats().ExecCycles)
	}
	if three.Stats().DirectForwards == 0 {
		t.Error("3-hop never forwarded on a migratory chain")
	}
}

func TestThreeHopStress(t *testing.T) {
	// The full random tester with golden-value checking under 3-hop.
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 4)
			cfg.ThreeHop = true
			cfg.MaxEvents = 5_000_000
			perCore := workloads.RandomRecords(4, 1500, 8, 40, 77)
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
