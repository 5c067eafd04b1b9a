package core

// Everything-at-once stress: all Section 6 extensions and models
// enabled simultaneously, under the full SWMR/golden-value checker.
// Feature interactions (3-hop forwarding into a bloom-tracked,
// non-inclusive, finite, contended machine with merging caches and
// RMWs in the mix) are where protocols usually break.

import (
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/noc"
	"protozoa/internal/trace"
)

func TestEverythingCombinedStress(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 4)
			cfg.ThreeHop = true
			cfg.Directory = DirBloom
			cfg.BloomHashes = 2
			cfg.BloomBuckets = 16 // aggressive aliasing
			cfg.NonInclusiveL2 = true
			cfg.L2RegionsPerTile = 2 // 14 regions over 4 tiles: must recall
			cfg.MergeL1Blocks = true
			cfg.Noc.ModelContention = true
			cfg.Noc.Topology = noc.TopoRing
			cfg.L1Sets = 2
			cfg.L1SetBudget = 144
			cfg.MaxEvents = 12_000_000

			perCore := make([][]trace.Access, 4)
			for c := 0; c < 4; c++ {
				rng := trace.NewRNG(uint64(31337 + c))
				var recs []trace.Access
				for i := 0; i < 1200; i++ {
					a := trace.Access{
						Addr: mem.Addr(rng.Intn(14)*64 + rng.Intn(8)*8),
						PC:   uint32(0x400 + rng.Intn(6)*4),
					}
					switch r := rng.Intn(100); {
					case r < 45:
						a.Kind = trace.Load
					case r < 80:
						a.Kind = trace.Store
					default:
						a.Kind = trace.RMW
					}
					recs = append(recs, a)
				}
				perCore[c] = recs
			}
			sys, err := NewSystem(cfg, perCore)
			if err != nil {
				t.Fatal(err)
			}
			chk := newChecker(t, sys)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if chk.Checks == 0 || chk.Loads == 0 {
				t.Error("checker idle")
			}
			st := sys.Stats()
			// Every enabled feature must actually have fired.
			if st.Recalls == 0 {
				t.Error("finite L2 never recalled")
			}
			if st.LinkStallCycles == 0 {
				t.Error("contention model never stalled")
			}
			if st.Accesses != 4800 {
				t.Errorf("accesses = %d, want 4800", st.Accesses)
			}
		})
	}
}

// TestFlowSWMRRevocation is the Section 3.5 discussion case: under
// SW+MR, when Core-0 writes words 0-3 while Core-3 owns word 7, the
// protocol revokes Core-3's write permission (it stays only a sharer),
// so "subsequent readers do not need to ping Core-3" — unlike MW,
// which keeps Core-3 an owner.
func TestFlowSWMRRevocation(t *testing.T) {
	run := func(p Protocol) *System {
		cfg := testConfig(p, 4)
		cfg.PredictorOverride = oneWordOverride
		base := mem.Addr(512 * 64)
		bar := trace.Access{Kind: trace.Barrier}
		perCore := [][]trace.Access{
			{bar, st(base), bar}, // Core-0: GETX word 0
			{bar, bar},
			{bar, bar, ld(base + 8)},   // reader after the write
			{st(base + 7*8), bar, bar}, // Core-3: owner of word 7
		}
		sys, err := NewSystem(cfg, perCore)
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableMessageLog(0)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// SW+MR: Core-3's reply to the FWD_GETX reports StillOwner=false,
	// and the later read probes nobody.
	swmr := run(ProtozoaSWMR)
	var revoked, readerForwards bool
	var sawWrite bool
	for _, e := range swmr.MessagesForRegion(512) {
		m := &e.Msg
		switch {
		case m.Type == MsgFwdGetX && m.Dst == 3:
			sawWrite = true
		case sawWrite && m.Src == 3 && (m.Type == MsgAckS || m.Type == MsgAck || m.Type == MsgWback):
			if !m.StillOwner {
				revoked = true
			}
		case revoked && m.Type == MsgFwdGetS && m.Dst == 3:
			readerForwards = true
		}
	}
	if !revoked {
		t.Fatal("SW+MR did not revoke the non-overlapping owner")
	}
	if readerForwards {
		t.Error("SW+MR reader still pinged the revoked owner")
	}

	// MW: Core-3 stays an owner, so the read must forward to it.
	mw := run(ProtozoaMW)
	var mwReaderForward bool
	for _, e := range mw.MessagesForRegion(512) {
		if e.Msg.Type == MsgFwdGetS && e.Msg.Dst == 3 {
			mwReaderForward = true
		}
	}
	if !mwReaderForward {
		t.Error("MW reader did not ping the retained owner (Section 3.5 contrast)")
	}
}
