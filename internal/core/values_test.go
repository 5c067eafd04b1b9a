package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/stats"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// TestArmingAfterAnEventPanics: word values are tracked only from the
// moment a value view arms them, so a value view or checker subscribed
// on a machine that already processed an event would compare against
// values nobody kept. Both must panic and say why.
func TestArmingAfterAnEventPanics(t *testing.T) {
	recs := workloads.RandomRecords(4, 200, 8, 5, 1)
	for name, arm := range map[string]func(*System){
		"value view": func(s *System) { onLoads(s, nil) },
		"NewChecker": func(s *System) { NewChecker(s) },
	} {
		sys, err := NewSystem(testConfig(MESI, 4), recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			arm(sys)
			return ""
		}()
		if !strings.Contains(msg, "processed an event") || !strings.Contains(msg, "before the run") {
			t.Errorf("%s after the run: panic %q, want one stating the arming rule", name, msg)
		}
	}
}

// TestL2WordUnarmed: a machine that was never armed keeps no word
// values, yet L2Word still tells an allocated region from an untouched
// one, reading 0 for the value. An armed machine reads the value a
// writeback patched in: core 1's load makes core 0 write its store
// back.
func TestL2WordUnarmed(t *testing.T) {
	addr := mem.DefaultGeometry.WordAddr(4, 3)
	recs := [][]trace.Access{
		{{Kind: trace.Store, Addr: addr}},
		{{Kind: trace.Load, Addr: addr, Think: 5000}},
	}
	for _, armed := range []bool{false, true} {
		sys, err := NewSystem(testConfig(MESI, 2), recs)
		if err != nil {
			t.Fatal(err)
		}
		if armed {
			onLoads(sys, nil)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if armed {
			want = 1<<40 | 1 // core 0's first store token
		}
		if v, ok := sys.L2Word(4, 3); !ok || v != want {
			t.Errorf("armed=%v: L2Word(touched) = %#x, %v; want %#x, true", armed, v, ok, want)
		}
		if _, ok := sys.L2Word(5, 0); ok {
			t.Errorf("armed=%v: L2Word invented an untouched region", armed)
		}
		for i := range sys.l1s {
			if l1, l2 := sys.l1s[i].words != nil, sys.dirs[i].words != nil; l1 != armed || l2 != armed {
				t.Errorf("armed=%v: tile %d keeps an L1 word store %v, L2 words %v", armed, i, l1, l2)
			}
		}
	}
}

// TestValuesNeverSteerTiming runs figure workloads with a no-op
// value view (values armed) and without one (unarmed) under every
// protocol, 3-hop off and on, with the default L2, a finite one and a
// non-inclusive one, and requires equal stats, equal attribution dumps
// and byte-identical flight logs: word values feed only value views,
// never a timing or traffic decision.
func TestValuesNeverSteerTiming(t *testing.T) {
	if raceEnabled {
		// 96 independent sequential runs with whole-run flight logs:
		// nothing for the race detector to check.
		t.Skip("single-goroutine property; run by the plain test pass")
	}
	l2s := map[string]func(*Config){
		"inclusive":     func(*Config) {},
		"finite":        func(c *Config) { c.L2RegionsPerTile = 8 },
		"non-inclusive": func(c *Config) { c.NonInclusiveL2 = true },
	}
	for _, name := range []string{"barnes", "lu"} {
		recs := workloads.MustGet(name).Records(4, 1, 0)
		for _, p := range AllProtocols {
			t.Run(fmt.Sprintf("%s/%v", name, p), func(t *testing.T) {
				t.Parallel()
				for _, threeHop := range []bool{false, true} {
					for l2, tweak := range l2s {
						cfg := testConfig(p, 4)
						cfg.ThreeHop = threeHop
						tweak(&cfg)
						unarmed, st := valueRun(t, cfg, recs, false)
						armed, _ := valueRun(t, cfg, recs, true)
						// Each variant must exercise the path it names.
						if threeHop && st.DirectForwards == 0 || l2 == "finite" && st.Recalls == 0 ||
							l2 == "non-inclusive" && st.MemFetches == 0 {
							t.Errorf("3-hop=%v %s L2: no direct forward, recall or memory fetch to exercise", threeHop, l2)
						}
						for i, what := range []string{"stats", "attribution dump", "flight log"} {
							if !bytes.Equal(armed[i], unarmed[i]) {
								t.Errorf("3-hop=%v %s L2: %s differ armed vs unarmed", threeHop, l2, what)
							}
						}
					}
				}
			})
		}
	}
}

// valueRun runs one machine, armed or not, with every other view on,
// and returns its stats, its attribution dump and its flight log, each
// serialized, and the stats.
func valueRun(t *testing.T, cfg Config, recs [][]trace.Access, armed bool) ([3][]byte, *stats.Stats) {
	t.Helper()
	sys, err := NewSystem(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.EnableAttribution()
	sys.EnableFlightRecorder(1 << 19)
	sys.EnableLatencyBreakdown()
	sys.EnableTransitionAudit()
	if armed {
		onLoads(sys, nil)
	}
	// Only a value view arms the machine; every other view leaves it
	// value-free.
	if got := sys.l1s[0].words != nil; got != armed {
		t.Fatalf("armed=%v: machine keeps word values %v", armed, got)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var out [3][]byte
	if out[0], err = json.Marshal(sys.Stats()); err != nil {
		t.Fatal(err)
	}
	if out[1], err = json.Marshal(tr.Dump()); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := sys.WriteFlightLog(&log); err != nil {
		t.Fatal(err)
	}
	if sys.FlightDropped() != 0 {
		t.Fatalf("flight ring dropped %d records; the logs compare only a tail", sys.FlightDropped())
	}
	out[2] = log.Bytes()
	return out, sys.Stats()
}
