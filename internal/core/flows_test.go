package core

// Golden message-flow tests: the transaction diagrams of the paper's
// Figures 4, 6, and 7 reproduced message for message against the
// protocol transcript.

import (
	"fmt"
	"strings"
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/predictor"
	"protozoa/internal/trace"
)

// rangePred predicts a configured range for any word it contains, and
// a single word otherwise — the directed-test way to pin request
// ranges to the paper's examples.
type rangePred struct {
	ranges []mem.Range
}

func (p rangePred) Predict(_ uint64, _ mem.RegionID, w uint8) mem.Range {
	for _, r := range p.ranges {
		if r.Contains(w) {
			return r
		}
	}
	return mem.OneWord(w)
}
func (rangePred) Train(uint64, mem.RegionID, uint8, mem.Bitmap, mem.Range) {}

// flowOf compresses a region transcript to "TYPE src->dst" strings.
func flowOf(sys *System, region mem.RegionID) []string {
	var out []string
	for _, e := range sys.MessagesForRegion(region) {
		out = append(out, fmt.Sprintf("%s %d->%d", e.Msg.Type, e.Msg.Src, e.Msg.Dst))
	}
	return out
}

func expectFlow(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("flow length %d, want %d:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flow[%d] = %q, want %q\nfull: %v", i, got[i], want[i], got)
		}
	}
}

// TestFlowFigure4 reproduces Figure 4, write-miss handling in
// Protozoa-SW: Core-1 owns words 2-6 dirty; Core-0 issues GETX 0-3.
// The directory forwards to the owner, which writes back its whole
// block (all words, overlapping or not) and invalidates; the L2
// patches and supplies exactly the requested words.
func TestFlowFigure4(t *testing.T) {
	cfg := testConfig(ProtozoaSW, 2)
	cfg.PredictorOverride = func(int) predictor.Predictor {
		return rangePred{ranges: []mem.Range{{Start: 2, End: 6}, {Start: 0, End: 1}}}
	}
	// Region 256 homes on tile 0 (256 % 2 == 0).
	base := mem.Addr(256 * 64)
	perCore := [][]trace.Access{
		{{Kind: trace.Barrier}, st(base)},       // Core-0: GETX word 0 -> range 0-1
		{st(base + 2*8), {Kind: trace.Barrier}}, // Core-1: GETX word 2 -> range 2-6
	}
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMessageLog(0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	expectFlow(t, flowOf(sys, 256), []string{
		"GETX 1->0",     // 1: Core-1 acquires 2-6 (setup)
		"DATA_M 0->1",   //    5-word fill
		"UNBLOCK 1->0",  //
		"GETX 0->0",     // 1: requestor sends GETX to directory
		"FWD_GETX 0->1", // 2: request forwarded to Core-1
		"WBACK 1->0",    // 3: Core-1 writes back all words, overlapping or not
		"DATA_M 0->0",   // 4: L2 sets the new owner and provides DATA 0-1
		"UNBLOCK 0->0",
	})
	// The writeback carried the whole 5-word block; the fill only the
	// requested words.
	var wbWords, fillWords int
	for _, e := range sys.MessagesForRegion(256) {
		switch {
		case e.Msg.Type == MsgWback:
			wbWords = e.Msg.PayloadWords()
		case e.Msg.Type == MsgDataM && e.Msg.Dst == 0:
			fillWords = e.Msg.PayloadWords()
		}
	}
	if wbWords != 5 {
		t.Errorf("writeback words = %d, want 5 (whole block)", wbWords)
	}
	if fillWords != 2 {
		t.Errorf("fill words = %d, want 2 (requested range only)", fillWords)
	}
}

// TestFlowFigure6 reproduces Figure 6, the race between an outstanding
// GETS and a forwarded GETX in Protozoa-SW: Core-0 holds words 5-7
// dirty and issues GETS 0-3; Core-1's concurrent GETX 0-7 is activated
// first (it is local to the home tile), so the forwarded invalidation
// reaches Core-0 while its read miss is still outstanding. Core-0
// writes back 5-7 and stays in the transient state; after Core-1 is
// downgraded to sharer, the directory supplies 0-3.
func TestFlowFigure6(t *testing.T) {
	cfg := testConfig(ProtozoaSW, 2)
	cfg.PredictorOverride = func(core int) predictor.Predictor {
		if core == 0 {
			return rangePred{ranges: []mem.Range{{Start: 5, End: 7}, {Start: 0, End: 3}}}
		}
		return rangePred{ranges: []mem.Range{{Start: 0, End: 7}}}
	}
	// Region 257 homes on tile 1, making Core-1's request the first to
	// activate when both issue in the same cycle.
	base := mem.Addr(257 * 64)
	perCore := [][]trace.Access{
		{st(base + 5*8), {Kind: trace.Barrier}, ld(base)},
		{{Kind: trace.Barrier}, st(base)},
	}
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMessageLog(0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	expectFlow(t, flowOf(sys, 257), []string{
		"GETX 0->1", // setup: Core-0 acquires 5-7
		"DATA_M 1->0",
		"UNBLOCK 0->1",
		"GETX 1->1",     // 2: Core-1's write miss for 0-7 races...
		"GETS 0->1",     // 1: ...Core-0's read miss for 0-3 (sent the same cycle)
		"FWD_GETX 1->0", //    the GETX activates first and is forwarded
		"WBACK 0->1",    // 3: dirty 5-7 written back mid-miss
		"DATA_M 1->1",   //    Core-1 owns 0-7
		"UNBLOCK 1->1",
		"FWD_GETS 1->1", // 4: the queued GETS downgrades Core-1...
		"WBACK 1->1",
		"DATA 1->0", //    ...and the directory supplies 0-3
		"UNBLOCK 0->1",
	})
}

// TestFlowFigure7 reproduces Figure 7, write-miss handling in
// Protozoa-MW: Core-1 is an overlapping dirty sharer (writes back and
// invalidates), Core-2 an overlapping clean sharer (invalidates, ACK),
// Core-3 a non-overlapping dirty sharer (ACK-S, remains owner), and
// the L2 supplies the requested range to Core-0.
func TestFlowFigure7(t *testing.T) {
	cfg := testConfig(ProtozoaMW, 4)
	cfg.PredictorOverride = func(core int) predictor.Predictor {
		switch core {
		case 0:
			return rangePred{ranges: []mem.Range{{Start: 0, End: 3}}} // the GETX range
		case 1:
			return rangePred{ranges: []mem.Range{{Start: 2, End: 6}}} // dirty sub-block
		default:
			return oneWordPred{} // Core-2 reads word 1, Core-3 writes word 7
		}
	}
	// Region 512 homes on tile 0 (512 % 4 == 0).
	base := mem.Addr(512 * 64)
	bar := trace.Access{Kind: trace.Barrier}
	perCore := [][]trace.Access{
		{bar, bar, bar, st(base)},       // Core-0: GETX 0-3
		{st(base + 2*8), bar, bar, bar}, // Core-1: M 2-6
		{bar, ld(base + 8), bar, bar},   // Core-2: S 1 (overlapping reader)
		{bar, bar, st(base + 7*8), bar}, // Core-3: M 7 (non-overlapping writer)
	}
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMessageLog(0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	// The final transaction: every reply type of Figure 7 must appear.
	events := sys.MessagesForRegion(512)
	var sawFwd1, sawFwd3, sawInv2 bool
	var wback1, ack2, ackS3, dataM0 *MsgEvent
	for i := range events {
		e := &events[i]
		m := &e.Msg
		switch {
		case m.Type == MsgFwdGetX && m.Dst == 1:
			sawFwd1 = true
		case m.Type == MsgFwdGetX && m.Dst == 3:
			sawFwd3 = true
		case m.Type == MsgInv && m.Dst == 2:
			sawInv2 = true
		case m.Type == MsgWback && m.Src == 1 && sawFwd1:
			wback1 = e
		case m.Type == MsgAck && m.Src == 2:
			ack2 = e
		case m.Type == MsgAckS && m.Src == 3:
			ackS3 = e
		case m.Type == MsgDataM && m.Dst == 0:
			dataM0 = e
		}
	}
	if !sawFwd1 || !sawFwd3 || !sawInv2 {
		t.Fatalf("missing probes: fwd1=%v fwd3=%v inv2=%v\n%s", sawFwd1, sawFwd3, sawInv2, transcript(events))
	}
	if wback1 == nil || wback1.Msg.StillOwner || wback1.Msg.StillSharer {
		t.Errorf("Core-1 must write back and fully invalidate: %+v", wback1)
	}
	if ack2 == nil || ack2.Msg.StillSharer {
		t.Errorf("Core-2 must invalidate and ACK: %+v", ack2)
	}
	if ackS3 == nil || !ackS3.Msg.StillOwner || !ackS3.Msg.StillSharer {
		t.Errorf("Core-3 must ACK-S and remain an owner: %+v", ackS3)
	}
	if dataM0 == nil || dataM0.Msg.PayloadWords() != 4 {
		t.Errorf("L2 must supply exactly the requested 4 words: %+v", dataM0)
	}
}

func transcript(events []MsgEvent) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintln(&b, e.String())
	}
	return b.String()
}

func TestMessageLogRingBuffer(t *testing.T) {
	sys := runSysWithLog(t, 4)
	all := sys.MessageLog()
	if len(all) > 4 {
		t.Fatalf("ring of 4 returned %d events", len(all))
	}
	// Events must be in nondecreasing cycle order after wrap.
	for i := 1; i < len(all); i++ {
		if all[i].Cycle < all[i-1].Cycle {
			t.Fatalf("log out of order at %d: %v", i, all)
		}
	}
}

func runSysWithLog(t *testing.T, capacity int) *System {
	t.Helper()
	cfg := testConfig(MESI, 2)
	perCore := [][]trace.Access{
		{st(0x0), st(0x40), st(0x80)},
		nil,
	}
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMessageLog(capacity)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestMsgEventString(t *testing.T) {
	e := MsgEvent{Cycle: 7, Msg: Msg{Type: MsgGetX, Src: 0, Dst: 1, Region: 5, R: mem.Range{Start: 0, End: 3}}}
	s := e.String()
	for _, want := range []string{"GETX", "C0->T1", "region 5", "[0--3]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
