package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"protozoa/internal/trace"
)

// sharingWorkload is a sharing-heavy 4-core schedule with barriers:
// every core hammers a shared region set (forcing cross-tile probes,
// upgrades, and invalidation rounds) interleaved with private work,
// with two barrier episodes.
func sharingWorkload() [][]trace.Access {
	perCore := make([][]trace.Access, 4)
	for c := 0; c < 4; c++ {
		var recs []trace.Access
		for round := 0; round < 30; round++ {
			for r := 0; r < 6; r++ {
				recs = append(recs, ld(regAddr(r)))
				if (round+c+r)%3 == 0 {
					recs = append(recs, st(regAddr(r)))
				}
			}
			recs = append(recs, ld(regAddr(100+c)), st(regAddr(100+c)))
			if round == 10 || round == 20 {
				recs = append(recs, trace.Access{Kind: trace.Barrier, Think: uint16(c)})
			}
		}
		perCore[c] = recs
	}
	return perCore
}

// newSharingSystem builds a 4-core machine over sharingWorkload.
func newSharingSystem(t *testing.T, p Protocol) *System {
	t.Helper()
	input := sharingWorkload()
	sys, err := NewSystem(testConfig(p, 4), input)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func chromeTraceBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertJSONEqual(t *testing.T, what string, a, b any) {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal %s: %v", what, err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal %s: %v", what, err)
	}
	if string(aj) != string(bj) {
		t.Errorf("%s diverges:\n%s\n---\n%s", what, aj, bj)
	}
}

// TestSelfProfDoesNotPerturbResults is the byte-identical acceptance
// contract: every observable of a fully-instrumented run matches
// exactly with self-prof on vs off.
func TestSelfProfDoesNotPerturbResults(t *testing.T) {
	run := func(selfProf bool) *System {
		sys := newSharingSystem(t, ProtozoaSW)
		sys.EnableTimeline(500)
		sys.EnableEventTrace(1 << 14)
		sys.EnableAttribution()
		if selfProf {
			sys.EnableSelfProf()
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("selfprof=%v: %v", selfProf, err)
		}
		return sys
	}
	base, prof := run(false), run(true)
	assertJSONEqual(t, "stats", base.Stats(), prof.Stats())
	assertJSONEqual(t, "timeline", base.Timeline(), prof.Timeline())
	if bt, pt := chromeTraceBytes(t, base), chromeTraceBytes(t, prof); !bytes.Equal(bt, pt) {
		t.Errorf("Chrome trace differs with self-prof on (%d vs %d bytes)", len(bt), len(pt))
	}
	assertJSONEqual(t, "attribution", base.Attribution().Summarize(), prof.Attribution().Summarize())
}

// TestSelfProfSequentialMode: the queue introspection accounts for
// every event the engine ran, and agrees with the stats' own
// self-observability fields.
func TestSelfProfSequentialMode(t *testing.T) {
	sys := newSharingSystem(t, MESI)
	sys.EnableSelfProf()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	r := sys.SelfProf().Report()
	if got := sys.EventsProcessed(); r.Queue.RingPushes+r.Queue.FarPushes+r.Queue.MicroHits != got {
		t.Errorf("queue pushes %d+%d+%d != %d events processed",
			r.Queue.RingPushes, r.Queue.FarPushes, r.Queue.MicroHits, got)
	}
	if r.TotalEvents != sys.EventsProcessed() {
		t.Errorf("TotalEvents %d != %d", r.TotalEvents, sys.EventsProcessed())
	}
	if sys.Stats().ZeroDelayHits != r.Queue.MicroHits {
		t.Errorf("stats ZeroDelayHits %d != %d", sys.Stats().ZeroDelayHits, r.Queue.MicroHits)
	}
	if sys.Stats().EventQueueHighWater == 0 {
		t.Error("EventQueueHighWater not set")
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	if buf.Len() == 0 {
		t.Error("empty summary")
	}
}
