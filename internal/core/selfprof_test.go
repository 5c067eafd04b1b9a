package core

import (
	"bytes"
	"testing"

	"protozoa/internal/trace"
)

// runSelfProfWorkload is runPDESWorkload plus EnableSelfProf, minus the
// observability layers the perturbation test arms separately.
func runSelfProfWorkload(t *testing.T, p Protocol, workers int) *System {
	t.Helper()
	cfg := testConfig(p, 4)
	cfg.Workers = workers
	perCore := pdesWorkload()
	streams := make([]trace.Stream, 4)
	for i := range streams {
		streams[i] = trace.NewSliceStream(perCore[i])
	}
	sys, err := NewSystem(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableSelfProf()
	if err := sys.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return sys
}

// TestSelfProfReconciles pins the round-telemetry invariants — the
// analog of the latency layer's reconciliation contract. Running at
// workers 2 and 4 in-package also puts the shard writes under the
// tier-1 -race pass.
func TestSelfProfReconciles(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		sys := runSelfProfWorkload(t, ProtozoaMW, workers)
		p := sys.SelfProf()
		if p.Rounds == 0 {
			t.Fatalf("workers=%d: no rounds recorded", workers)
		}

		// Every coordinator round classifies every tile exactly once.
		var events, pushes uint64
		for i := range p.Tiles {
			ts := &p.Tiles[i]
			if ts.BusyRounds+ts.IdleRounds != p.Rounds {
				t.Errorf("workers=%d tile %d: busy %d + idle %d != rounds %d",
					workers, i, ts.BusyRounds, ts.IdleRounds, p.Rounds)
			}
			if ts.SkippedWithWork > ts.IdleRounds {
				t.Errorf("workers=%d tile %d: skipped %d > idle %d",
					workers, i, ts.SkippedWithWork, ts.IdleRounds)
			}
			events += ts.Events

			// Clean drain: everything pushed was popped, so the three
			// push paths tile the tile's processed-event count exactly.
			tilePushes := ts.Queue.RingPushes + ts.Queue.FarPushes + ts.MicroHits
			if got := sys.tiles[i].eng.Processed(); tilePushes != got {
				t.Errorf("workers=%d tile %d: ring %d + far %d + micro %d = %d pushes, %d processed",
					workers, i, ts.Queue.RingPushes, ts.Queue.FarPushes, ts.MicroHits,
					tilePushes, got)
			}
			pushes += tilePushes
		}
		if total := sys.EventsProcessed(); events != total {
			t.Errorf("workers=%d: per-tile events sum %d != EventsProcessed %d",
				workers, events, total)
		}
		if pushes != sys.EventsProcessed() {
			t.Errorf("workers=%d: push accounting %d != EventsProcessed %d",
				workers, pushes, sys.EventsProcessed())
		}

		// One width observation per round; the min tile always runs.
		if p.Width.N != p.Rounds {
			t.Errorf("workers=%d: %d width observations for %d rounds",
				workers, p.Width.N, p.Rounds)
		}
		if p.InlineRounds > p.Rounds {
			t.Errorf("workers=%d: inline %d > rounds %d", workers, p.InlineRounds, p.Rounds)
		}
		if workers == 1 && p.InlineRounds != p.Rounds {
			t.Errorf("workers=1: every round should be inline, got %d of %d",
				p.InlineRounds, p.Rounds)
		}
		if p.BarrierReleases == 0 {
			t.Errorf("workers=%d: barrier workload recorded no releases", workers)
		}
		if p.InjectedMsgs == 0 {
			t.Errorf("workers=%d: sharing workload injected no cross-tile messages", workers)
		}

		// The stats-side self-observability fields agree with the
		// profile's queue totals.
		r := p.Report()
		if sys.Stats().ZeroDelayHits != r.Queue.MicroHits {
			t.Errorf("workers=%d: stats ZeroDelayHits %d != profile micro %d",
				workers, sys.Stats().ZeroDelayHits, r.Queue.MicroHits)
		}
		if r.TotalEvents != sys.EventsProcessed() {
			t.Errorf("workers=%d: report TotalEvents %d != %d",
				workers, r.TotalEvents, sys.EventsProcessed())
		}

		// The telemetry is schedule-determined, so everything except
		// wall-clock must be worker-count invariant; spot-check the
		// core counters against the workers=1 run via a second pass.
		if workers == 1 {
			continue
		}
		base := runSelfProfWorkload(t, ProtozoaMW, 1).SelfProf()
		if base.Rounds != p.Rounds || base.InjectedMsgs != p.InjectedMsgs ||
			base.SoloExtendedRounds != p.SoloExtendedRounds ||
			base.BarrierReleases != p.BarrierReleases {
			t.Errorf("workers=%d: round telemetry diverges from workers=1: rounds %d/%d injected %d/%d solo %d/%d releases %d/%d",
				workers, p.Rounds, base.Rounds, p.InjectedMsgs, base.InjectedMsgs,
				p.SoloExtendedRounds, base.SoloExtendedRounds,
				p.BarrierReleases, base.BarrierReleases)
		}
	}
}

// TestSelfProfDoesNotPerturbResults is the byte-identical acceptance
// contract: every observable of a fully-instrumented run matches
// exactly with self-prof on vs off, in both execution modes.
func TestSelfProfDoesNotPerturbResults(t *testing.T) {
	run := func(workers int, selfProf bool) *System {
		cfg := testConfig(ProtozoaSW, 4)
		cfg.Workers = workers
		perCore := pdesWorkload()
		streams := make([]trace.Stream, 4)
		for i := range streams {
			streams[i] = trace.NewSliceStream(perCore[i])
		}
		sys, err := NewSystem(cfg, streams)
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableTimeline(500)
		sys.EnableEventTrace(1 << 14)
		sys.EnableAttribution()
		if selfProf {
			sys.EnableSelfProf()
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("workers=%d selfprof=%v: %v", workers, selfProf, err)
		}
		return sys
	}
	for _, workers := range []int{0, 2} {
		base := run(workers, false)
		prof := run(workers, true)
		assertJSONEqual(t, workers, "stats", base.Stats(), prof.Stats())
		assertJSONEqual(t, workers, "timeline", base.Timeline(), prof.Timeline())
		if bt, pt := chromeTraceBytes(t, base), chromeTraceBytes(t, prof); !bytes.Equal(bt, pt) {
			t.Errorf("workers=%d: Chrome trace differs with self-prof on (%d vs %d bytes)", workers, len(bt), len(pt))
		}
		assertJSONEqual(t, workers, "attribution", base.Attribution().Summarize(), prof.Attribution().Summarize())
	}
}

// TestSelfProfSequentialMode: with Workers == 0 there is no window
// loop, but the queue introspection still works on the shared engine.
func TestSelfProfSequentialMode(t *testing.T) {
	sys := runSelfProfWorkload(t, MESI, 0)
	p := sys.SelfProf()
	if p.Mode != "sequential" {
		t.Fatalf("mode = %q", p.Mode)
	}
	if p.Rounds != 0 {
		t.Errorf("sequential run recorded %d rounds", p.Rounds)
	}
	r := p.Report()
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
