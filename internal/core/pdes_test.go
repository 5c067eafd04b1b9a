package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
)

// pdesWorkload is a sharing-heavy 4-core schedule with barriers:
// every core hammers a shared region set (forcing cross-tile probes,
// upgrades, and invalidation rounds) interleaved with private work,
// with two barrier episodes so the window coordinator's count-and-
// release path runs.
func pdesWorkload() [][]trace.Access {
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

func runPDESWorkload(t *testing.T, p Protocol, workers int) *System {
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
	sys.EnableTimeline(500)
	sys.EnableEventTrace(1 << 14)
	sys.EnableLatencyBreakdown()
	sys.EnableAttribution()
	sys.EnableTransitionAudit()
	sys.EnableFlightRecorder(1 << 16)
	if err := sys.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return sys
}

func flightLogBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.WriteFlightLog(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPDESWorkerCountInvariance runs the window loop at 1, 2, and 4
// workers over a sharing-and-barrier-heavy schedule and requires every
// observable — stats, timeline, trace events, latency breakdown,
// attribution, transition audit — to match exactly. Running in package
// core puts the worker crew under the tier-1 -race pass.
func TestPDESWorkerCountInvariance(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			base := runPDESWorkload(t, p, 1)
			for _, w := range []int{2, 4} {
				got := runPDESWorkload(t, p, w)
				assertJSONEqual(t, w, "stats", base.Stats(), got.Stats())
				assertJSONEqual(t, w, "timeline", base.Timeline(), got.Timeline())
				if bt, gt := chromeTraceBytes(t, base), chromeTraceBytes(t, got); !bytes.Equal(bt, gt) {
					t.Errorf("Chrome trace diverges between workers=1 and workers=%d (%d vs %d bytes)",
						w, len(bt), len(gt))
				}
				assertJSONEqual(t, w, "latency", base.LatencyBreakdown(), got.LatencyBreakdown())
				assertJSONEqual(t, w, "attribution", base.Attribution().Summarize(), got.Attribution().Summarize())
				if bt, gt := base.TransitionTable(), got.TransitionTable(); bt != gt {
					t.Errorf("transition table diverges between workers=1 and workers=%d:\n%s\n---\n%s", w, bt, gt)
				}
				// The serialized flight log — header and every record —
				// must be byte-identical, not just semantically equal.
				if bf, gf := flightLogBytes(t, base), flightLogBytes(t, got); !bytes.Equal(bf, gf) {
					t.Errorf("flight log diverges between workers=1 and workers=%d (%d vs %d bytes)",
						w, len(bf), len(gf))
				}
			}
		})
	}
}

func chromeTraceBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertJSONEqual(t *testing.T, workers int, what string, a, b any) {
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
		t.Errorf("%s diverges between workers=1 and workers=%d:\n%s\n---\n%s", what, workers, aj, bj)
	}
}

// TestPDESRejectsGlobalOrderHooks: configurations that assume one
// global event order must fail loudly at Run rather than race or
// silently reorder.
func TestPDESRejectsGlobalOrderHooks(t *testing.T) {
	build := func(mutate func(*Config), arm func(*System)) error {
		cfg := testConfig(MESI, 1)
		cfg.Workers = 2
		if mutate != nil {
			mutate(&cfg)
		}
		sys, err := NewSystem(cfg, []trace.Stream{trace.NewSliceStream([]trace.Access{ld(0x40)})})
		if err != nil {
			t.Fatal(err)
		}
		if arm != nil {
			arm(sys)
		}
		return sys.Run()
	}
	if err := build(nil, func(s *System) { s.SetObserver(nopObserver{}) }); err == nil {
		t.Error("observer accepted under PDES")
	}
	// The message log rides the per-tile flight rings now, so it no
	// longer forces a global event order and must run under PDES.
	if err := build(nil, func(s *System) { s.EnableMessageLog(8) }); err != nil {
		t.Errorf("message log rejected under PDES: %v", err)
	}
	if err := build(func(c *Config) { c.Noc.ModelContention = true }, nil); err == nil {
		t.Error("NoC contention accepted under PDES")
	}
	if err := build(nil, nil); err != nil {
		t.Errorf("plain PDES config rejected: %v", err)
	}
}

type nopObserver struct{}

func (nopObserver) OnStore(int, mem.Addr, uint64) {}
func (nopObserver) OnLoad(int, mem.Addr, uint64)  {}
func (nopObserver) OnTxnEnd(mem.RegionID)         {}
