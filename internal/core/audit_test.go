package core

// Protocol-property audits: Table 3's per-variant message distinctions
// asserted over complete random-run transcripts.

import (
	"testing"

	"protozoa/internal/workloads"
)

func runAudited(t *testing.T, p Protocol, seed uint64) *System {
	t.Helper()
	cfg := testConfig(p, 4)
	cfg.L1Sets = 2 // force evictions so WBACK/WBACK_LAST both appear
	cfg.L1SetBudget = 144
	cfg.MaxEvents = 5_000_000
	perCore := workloads.RandomRecords(4, 1200, 10, 40, seed)
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMessageLog(1 << 20)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAuditRegionGranularityInvalidation: under MESI and Protozoa-SW,
// an invalidation probe always removes the responder's entire region
// footprint — no probe reply may keep the responder a sharer.
func TestAuditRegionGranularityInvalidation(t *testing.T) {
	for _, p := range []Protocol{MESI, ProtozoaSW} {
		t.Run(p.String(), func(t *testing.T) {
			sys := runAudited(t, p, 101)
			probed := make(map[uint64]bool) // TxnIDs of FwdGetX/Inv probes
			for _, e := range sys.MessageLog() {
				switch e.Msg.Type {
				case MsgFwdGetX, MsgInv:
					probed[e.Msg.TxnID] = true
				case MsgAck, MsgAckS, MsgWback, MsgWbackLast:
					if e.Msg.TxnID != 0 && probed[e.Msg.TxnID] && e.Msg.StillSharer {
						t.Fatalf("region-granularity protocol kept a sharer on invalidation: %s", e)
					}
				}
			}
		})
	}
}

// TestAuditAckSOnlyInAdaptiveCoherence: ACK-S with retained residency
// on a write probe is the SW+MR/MW addition (Table 3); it must occur
// there under contention.
func TestAuditAckSOnlyInAdaptiveCoherence(t *testing.T) {
	for _, p := range []Protocol{ProtozoaSWMR, ProtozoaMW} {
		t.Run(p.String(), func(t *testing.T) {
			sys := runAudited(t, p, 101)
			probed := make(map[uint64]bool)
			found := false
			for _, e := range sys.MessageLog() {
				switch e.Msg.Type {
				case MsgFwdGetX, MsgInv:
					probed[e.Msg.TxnID] = true
				case MsgAckS:
					if e.Msg.TxnID != 0 && probed[e.Msg.TxnID] && e.Msg.StillSharer {
						found = true
					}
				}
			}
			if !found {
				t.Error("no ACK-S with retained residency under adaptive coherence")
			}
		})
	}
}

// TestAuditSingleWriterRevocation: Protozoa-SW+MR's probed owners are
// always fully revoked (StillOwner never survives a FWD_GETX reply).
func TestAuditSingleWriterRevocation(t *testing.T) {
	sys := runAudited(t, ProtozoaSWMR, 202)
	fwdX := make(map[uint64]bool)
	fwdXDst := make(map[uint64]map[int]bool)
	for _, e := range sys.MessageLog() {
		m := &e.Msg
		switch m.Type {
		case MsgFwdGetX:
			fwdX[m.TxnID] = true
			if fwdXDst[m.TxnID] == nil {
				fwdXDst[m.TxnID] = make(map[int]bool)
			}
			fwdXDst[m.TxnID][m.Dst] = true
		case MsgAck, MsgAckS, MsgWback, MsgWbackLast:
			// Only replies from nodes that received FWD_GETX (owners).
			if m.TxnID != 0 && fwdX[m.TxnID] && fwdXDst[m.TxnID][m.Src] && m.StillOwner {
				t.Fatalf("SW+MR owner survived a write probe: %s", e)
			}
		}
	}
}

// TestAuditMultiOwnerOnlyInMW: more than one concurrent owner of a
// region is Protozoa-MW's defining relaxation.
func TestAuditMultiOwnerOnlyInMW(t *testing.T) {
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			sys := runAudited(t, p, 303)
			multi := sys.Stats().DirMultiOwner
			if p == ProtozoaMW && multi == 0 {
				t.Error("MW random run never reached a multi-owner state")
			}
			if p != ProtozoaMW && multi != 0 {
				t.Errorf("%v recorded %d multi-owner directory states", p, multi)
			}
		})
	}
}

// TestAuditWbackLastDistinction: the WBACK vs WBACK_LAST split exists
// because Protozoa keeps multiple blocks per region; MESI's
// fixed-granularity evictions are always the last block.
func TestAuditWbackLastDistinction(t *testing.T) {
	count := func(p Protocol) (wback, last int) {
		sys := runAudited(t, p, 404)
		for _, e := range sys.MessageLog() {
			if e.Msg.TxnID != 0 {
				continue // probe replies reuse the WBACK type; evictions are spontaneous
			}
			switch e.Msg.Type {
			case MsgWback:
				wback++
			case MsgWbackLast:
				last++
			}
		}
		return
	}
	if wback, last := count(MESI); wback != 0 || last == 0 {
		t.Errorf("MESI evictions: %d non-last WBACKs (want 0), %d WBACK_LAST (want > 0)", wback, last)
	}
	if wback, _ := count(ProtozoaMW); wback == 0 {
		t.Error("Protozoa-MW evictions never produced a non-last WBACK")
	}
}

// TestAuditUpgradeNeverForwarded: UPGRADE requests carry no data, so
// the directory must never mark their probes for direct forwarding.
func TestAuditUpgradeNeverForwarded(t *testing.T) {
	cfg := testConfig(ProtozoaMW, 4)
	cfg.ThreeHop = true
	cfg.MaxEvents = 5_000_000
	perCore := workloads.RandomRecords(4, 1200, 8, 40, 505)
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMessageLog(1 << 20)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	upgradeTxns := make(map[uint64]bool)
	// Map probes back to the request type via transaction ordering: an
	// UPGRADE's probes share its region and follow it. Simpler and
	// sufficient: no GRANT may ever follow a direct-forwarded fill, and
	// no Direct probe may belong to a txn that ends in GRANT.
	directTxns := make(map[uint64]bool)
	for _, e := range sys.MessageLog() {
		if e.Msg.Direct {
			directTxns[e.Msg.TxnID] = true
		}
		if e.Msg.Type == MsgGrant {
			upgradeTxns[e.Msg.TxnID] = true
		}
	}
	for id := range directTxns {
		if id != 0 && upgradeTxns[id] {
			t.Fatalf("txn %d used direct forwarding for an upgrade", id)
		}
	}
}
