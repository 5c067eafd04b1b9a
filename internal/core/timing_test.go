package core

// Exact timing-model tests: known flows must cost precisely the cycle
// counts the Table 4 parameters predict, pinning the latency model
// against accidental drift.

import (
	"testing"

	"protozoa/internal/engine"
	"protozoa/internal/trace"
)

// latencies used by testConfig (DefaultConfig): L1 2, L2 14, mem 300;
// NoC: router 2, hop 4, serialization 2 per extra flit, local 1.

func execCycles(t *testing.T, cfg Config, recs []trace.Access) engine.Cycle {
	t.Helper()
	perCore := make([][]trace.Access, cfg.Cores)
	perCore[0] = recs
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return engine.Cycle(sys.Stats().ExecCycles)
}

func TestTimingL1Hit(t *testing.T) {
	// Cold miss then one hit: the hit adds exactly L1HitLat cycles.
	cfg := testConfig(MESI, 1)
	missOnly := execCycles(t, cfg, []trace.Access{ld(0x0)})
	withHit := execCycles(t, cfg, []trace.Access{ld(0x0), ld(0x8)})
	if got := withHit - missOnly; got != cfg.L1HitLat {
		t.Errorf("hit cost = %d cycles, want %d", got, cfg.L1HitLat)
	}
}

func TestTimingColdMissSingleTile(t *testing.T) {
	// One core, one tile: every message is local (LocalLat each).
	// miss = L1HitLat (lookup) + LocalLat (GETS) + L2Lat + MemLat
	//      + LocalLat (DATA) + done; the fill completes the access.
	cfg := testConfig(MESI, 1)
	got := execCycles(t, cfg, []trace.Access{ld(0x0)})
	want := cfg.L1HitLat + cfg.Noc.LocalLat + cfg.L2Lat + cfg.MemLat + cfg.Noc.LocalLat
	if got != want {
		t.Errorf("cold miss = %d cycles, want %d", got, want)
	}
}

func TestTimingWarmMissCheaperByMemLat(t *testing.T) {
	// Second region touch at the L2 (after an eviction) skips MemLat.
	cfg := testConfig(MESI, 1)
	cfg.L1Sets = 1
	var recs []trace.Access
	// Touch regions 0..4 (5 > 4 ways: region 0 evicted), then re-read 0.
	for i := 0; i <= 4; i++ {
		recs = append(recs, ld(regAddr(i)))
	}
	base := execCycles(t, cfg, recs)
	withReread := execCycles(t, cfg, append(append([]trace.Access{}, recs...), ld(regAddr(0))))
	rereadCost := withReread - base
	coldCost := cfg.L1HitLat + cfg.Noc.LocalLat + cfg.L2Lat + cfg.MemLat + cfg.Noc.LocalLat
	if rereadCost != coldCost-cfg.MemLat {
		t.Errorf("warm re-read = %d cycles, want %d (cold %d minus MemLat)",
			rereadCost, coldCost-cfg.MemLat, coldCost)
	}
}

func TestTimingRemoteMissAddsHops(t *testing.T) {
	// Two tiles: region 1 homes on tile 1, so core 0's miss crosses one
	// hop each way. Request: 8 B = 1 flit; response: 8+64 B = 5 flits.
	cfg := testConfig(MESI, 2)
	local := execCycles(t, cfg, []trace.Access{ld(regAddr(0))})  // home tile 0
	remote := execCycles(t, cfg, []trace.Access{ld(regAddr(1))}) // home tile 1
	reqLat := cfg.Noc.RouterLat + cfg.Noc.HopLatency
	respLat := cfg.Noc.RouterLat + cfg.Noc.HopLatency + 4*cfg.Noc.SerialLat
	wantDelta := (reqLat - cfg.Noc.LocalLat) + (respLat - cfg.Noc.LocalLat)
	if got := remote - local; got != wantDelta {
		t.Errorf("remote-home delta = %d cycles, want %d", got, wantDelta)
	}
}

func TestTimingGatherPenalty(t *testing.T) {
	// A probe that gathers two blocks delays its reply by exactly one
	// cycle over a single-block probe (the COH_B multi-step snoop of
	// Figure 3). Measured as the probe-send to reply-send gap in the
	// message transcript, which is independent of payload flits.
	replyGap := func(twoBlocks bool) engine.Cycle {
		cfg := testConfig(ProtozoaSW, 2)
		cfg.PredictorOverride = oneWordOverride
		owner := []trace.Access{st(regAddr(2))}
		if twoBlocks {
			owner = append(owner, st(regAddr(2)+8*4)) // word 4, same region
		}
		owner = append(owner, trace.Access{Kind: trace.Barrier})
		reader := []trace.Access{{Kind: trace.Barrier}, st(regAddr(2))}
		sys, err := NewSystem(cfg, [][]trace.Access{
			reader,
			owner,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableMessageLog(0)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		var probeAt, replyAt engine.Cycle
		for _, e := range sys.MessagesForRegion(2) {
			switch {
			case e.Msg.Type == MsgFwdGetX && e.Msg.Dst == 1:
				probeAt = e.Cycle
			case e.Msg.Type == MsgWback && e.Msg.Src == 1 && probeAt != 0:
				replyAt = e.Cycle
			}
		}
		if probeAt == 0 || replyAt == 0 {
			t.Fatal("probe/reply not found in transcript")
		}
		return replyAt - probeAt
	}
	one := replyGap(false)
	two := replyGap(true)
	if two != one+1 {
		t.Errorf("two-block gather gap = %d cycles vs one-block %d, want +1", two, one)
	}
}
