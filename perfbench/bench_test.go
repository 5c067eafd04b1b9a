package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the smoke tests re-execute it as a repetition's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// The name and unit shapes BENCHMARK.json allows.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE     = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// benchmarkJSON is the part of BENCHMARK.json perfbench's own tables
// must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var listed []workload
	for _, w := range workloadTable {
		if w.unlisted == "" {
			listed = append(listed, w)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench %d", len(b.Workloads), len(listed))
	}
	for i, w := range b.Workloads {
		if w.Name != listed[i].name || w.Why != listed[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, perfbench %q/%q", i, w.Name, w.Why, listed[i].name, listed[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, perfbench %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s, perfbench %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s, perfbench %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at its smoke size, plain
// and traced, through the same path the benchmark command takes.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadTable {
		for _, trace := range []int{0, 1} {
			w, trace := w, trace
			t.Run(w.name+map[int]string{0: "/plain", 1: "/traced"}[trace], func(t *testing.T) {
				var log bytes.Buffer
				o := options{workload: w.name, seed: 3, seconds: 1, trace: trace, smoke: true, work: t.TempDir()}
				res, err := bench(o, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := endToEnd
				if trace == 1 {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !strings.Contains(log.String(), "\n"+d.name+" ") {
						t.Errorf("metric %s not printed by name", d.name)
					}
				}
				if trace == 0 {
					for _, name := range []string{"wall_s", "accesses_per_s", "setup_s", "peak_rss_mb", "pass_ratio", "sim_cycles"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				} else if res.Metrics["cpuprof.total_s"].Value <= 0 {
					t.Error("traced run attributed no CPU time")
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := bench(options{workload: "nope", seconds: 1}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "repro", "--seed", "7", "--seconds", "5", "--trace", "1"})
	if err != nil || o.workload != "repro" || o.seed != 7 || o.seconds != 5 || o.trace != 1 {
		t.Fatalf("parseFlags = %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seconds", "0"}, {"--bogus"}, {"stray"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}
