package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkSimulatorThroughputParallel/sequential-1 	      45	  26305847 ns/op	   1216456 accesses/s	12110150 B/op	   28481 allocs/op
BenchmarkSimulatorThroughputParallel/sequential-1 	      45	  27105847 ns/op	   1180456 accesses/s	12110150 B/op	   28482 allocs/op
BenchmarkSimulatorThroughputParallel/sequential-1 	      45	  25005847 ns/op	   1279456 accesses/s	12110150 B/op	   28480 allocs/op
BenchmarkSimulatorThroughputParallel/workers1-1   	      30	  40305847 ns/op	    793456 accesses/s	12655740 B/op	   35421 allocs/op
PASS
`

func TestParseBenchMedians(t *testing.T) {
	samples, order := parseBench(splitLines(sample))
	if len(order) != 2 || order[0] != "sequential" || order[1] != "workers1" {
		t.Fatalf("order = %v", order)
	}
	if got := median(samples["sequential"]["ns_per_op"]); got != 26305847 {
		t.Errorf("sequential ns/op median = %v, want 26305847", got)
	}
	if got := median(samples["sequential"]["allocs_per_op"]); got != 28481 {
		t.Errorf("sequential allocs/op median = %v, want 28481", got)
	}
	if got := median(samples["workers1"]["accesses_per_s"]); got != 793456 {
		t.Errorf("workers1 accesses/s median = %v, want 793456", got)
	}
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}

// TestFindBaselines checks the generic walk over a prior snapshot's
// JSON: results blocks are found wherever they nest, and a snapshot's
// own carried-forward baseline block is skipped.
func TestFindBaselines(t *testing.T) {
	raw := `{
	  "pdes_alloc_overhead": {
	    "baseline_median_of_5_BENCH_6": {
	      "sequential": {"ns_per_op": 40410286, "allocs_per_op": 43970}
	    },
	    "after_median_of_5": {
	      "sequential": {"ns_per_op": 43340905, "accesses_per_s": 738333},
	      "workers1":   {"ns_per_op": 96017699}
	    }
	  }
	}`
	var v any
	if err := json.Unmarshal([]byte(raw), &v); err != nil {
		t.Fatal(err)
	}
	base := map[string]map[string]float64{}
	findBaselines(v, base)
	if got := base["sequential"]["ns_per_op"]; got != 43340905 {
		t.Errorf("sequential ns_per_op = %v, want the after block's 43340905", got)
	}
	if got := base["sequential"]["accesses_per_s"]; got != 738333 {
		t.Errorf("sequential accesses_per_s = %v, want 738333", got)
	}
	if got := base["workers1"]["ns_per_op"]; got != 96017699 {
		t.Errorf("workers1 ns_per_op = %v, want 96017699", got)
	}
}

func gateMetrics(accessesPerS, nsPerOp float64) map[string]float64 {
	m := map[string]float64{}
	if accessesPerS > 0 {
		m["accesses_per_s"] = accessesPerS
	}
	if nsPerOp > 0 {
		m["ns_per_op"] = nsPerOp
	}
	return m
}

func TestGateFailures(t *testing.T) {
	base := map[string]map[string]float64{
		"sequential": gateMetrics(1_000_000, 40_000_000),
		"workers4":   gateMetrics(2_000_000, 20_000_000),
	}

	t.Run("within-band passes", func(t *testing.T) {
		got, _ := gateFailures(base, map[string]map[string]float64{
			"sequential": gateMetrics(950_000, 42_000_000), // -5% throughput
			"workers4":   gateMetrics(2_500_000, 16_000_000),
		}, 10)
		if len(got) != 0 {
			t.Errorf("unexpected failures: %v", got)
		}
	})

	t.Run("throughput drop beyond band fails", func(t *testing.T) {
		got, _ := gateFailures(base, map[string]map[string]float64{
			"sequential": gateMetrics(800_000, 50_000_000), // -20%
			"workers4":   gateMetrics(2_000_000, 20_000_000),
		}, 10)
		if len(got) != 1 || !strings.Contains(got[0], "sequential") ||
			!strings.Contains(got[0], "accesses_per_s") {
			t.Errorf("failures = %v", got)
		}
	})

	t.Run("falls back to ns_per_op", func(t *testing.T) {
		old := map[string]map[string]float64{"sequential": gateMetrics(0, 40_000_000)}
		got, _ := gateFailures(old, map[string]map[string]float64{
			"sequential": gateMetrics(900_000, 50_000_000), // +25% ns/op
		}, 10)
		if len(got) != 1 || !strings.Contains(got[0], "ns_per_op") {
			t.Errorf("failures = %v", got)
		}
		got, _ = gateFailures(old, map[string]map[string]float64{
			"sequential": gateMetrics(900_000, 41_000_000), // +2.5% ns/op
		}, 10)
		if len(got) != 0 {
			t.Errorf("unexpected failures: %v", got)
		}
	})

	t.Run("benchmarks absent from the baseline are skipped", func(t *testing.T) {
		got, _ := gateFailures(base, map[string]map[string]float64{
			"sequential": gateMetrics(1_000_000, 40_000_000),
			"workers16":  gateMetrics(1, 1_000_000_000), // new benchmark, no baseline
		}, 10)
		if len(got) != 0 {
			t.Errorf("unexpected failures: %v", got)
		}
	})

	t.Run("allocs rise beyond band fails", func(t *testing.T) {
		withAllocs := func(m map[string]float64, allocs float64) map[string]float64 {
			m["allocs_per_op"] = allocs
			return m
		}
		old := map[string]map[string]float64{
			"sequential": withAllocs(gateMetrics(1_000_000, 40_000_000), 10_000),
			"workers4":   gateMetrics(2_000_000, 20_000_000), // predates allocs
		}
		got, _ := gateFailures(old, map[string]map[string]float64{
			"sequential": withAllocs(gateMetrics(1_100_000, 36_000_000), 12_000), // +20%
			"workers4":   withAllocs(gateMetrics(2_000_000, 20_000_000), 99_000),
		}, 10)
		if len(got) != 1 || !strings.Contains(got[0], "sequential") ||
			!strings.Contains(got[0], "allocs_per_op") {
			t.Errorf("failures = %v", got)
		}
		got, _ = gateFailures(old, map[string]map[string]float64{
			"sequential": withAllocs(gateMetrics(1_000_000, 40_000_000), 10_500), // +5%
		}, 10)
		if len(got) != 0 {
			t.Errorf("unexpected failures: %v", got)
		}
	})

	t.Run("any change in a deterministic count fails", func(t *testing.T) {
		withCounts := func(events, msgs float64) map[string]float64 {
			m := gateMetrics(1_000_000, 40_000_000)
			m["events_per_op"] = events
			m["msgs_per_op"] = msgs
			return m
		}
		old := map[string]map[string]float64{
			"sequential": withCounts(4_104_512, 1_728_003),
			"workers4":   gateMetrics(1_000_000, 40_000_000), // predates the counts
		}
		got, notes := gateFailures(old, map[string]map[string]float64{
			"sequential": withCounts(4_104_512, 1_728_003),
			"workers4":   withCounts(9, 9),
		}, 10)
		if len(got) != 0 {
			t.Errorf("unexpected failures: %v", got)
		}
		// Counts on one side only are not compared, but said so.
		if len(notes) != 2 || !strings.Contains(notes[0], "workers4: events_per_op not compared: in baseline false, in this run true") {
			t.Errorf("notes = %v", notes)
		}
		got, notes = gateFailures(old, map[string]map[string]float64{
			"sequential": withCounts(4_104_513, 1_728_002), // one event, one message
		}, 10)
		if len(got) != 2 || !strings.Contains(got[0], "events_per_op") ||
			!strings.Contains(got[1], "msgs_per_op") || len(notes) != 0 {
			t.Errorf("failures = %v, notes = %v", got, notes)
		}
		got, notes = gateFailures(old, map[string]map[string]float64{
			"sequential": gateMetrics(1_000_000, 40_000_000),
		}, 10)
		if len(got) != 0 || len(notes) != 2 || !strings.Contains(notes[1], "sequential: msgs_per_op not compared: in baseline true, in this run false") {
			t.Errorf("failures = %v, notes = %v", got, notes)
		}
	})

	t.Run("nothing comparable fails closed", func(t *testing.T) {
		got, _ := gateFailures(base, map[string]map[string]float64{
			"renamed": gateMetrics(1_000_000, 40_000_000),
		}, 10)
		if len(got) != 1 || !strings.Contains(got[0], "no comparable") {
			t.Errorf("failures = %v", got)
		}
	})
}

func TestNextOutName(t *testing.T) {
	for in, want := range map[string]string{
		"BENCH_7.json":      "BENCH_8.json",
		"sub/BENCH_19.json": "sub/BENCH_20.json",
		"odd.json":          "BENCH_next.json",
	} {
		if got := nextOutName(in); got != want {
			t.Errorf("nextOutName(%q) = %q, want %q", in, got, want)
		}
	}
}
