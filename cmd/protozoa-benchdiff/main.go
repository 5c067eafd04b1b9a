// protozoa-benchdiff compares `go test -bench` output against a
// committed BENCH_*.json baseline and emits the next BENCH_*.json.
//
// It reads the raw benchmark output (typically -count 5) on stdin,
// takes the per-benchmark median of every reported metric, prints a
// delta table against the baseline, and writes a stable-schema JSON
// snapshot. It is the in-repo fallback for benchstat: no external
// tooling, no new dependencies, deterministic output.
//
//	go test -run '^$' -bench SimulatorThroughputParallel -benchmem \
//	    -benchtime 2s -count 5 . | protozoa-benchdiff \
//	    -baseline BENCH_7.json -out BENCH_8.json -change "..."
//
// Baselines are located generically: any JSON object in the baseline
// file that contains a numeric "ns_per_op" is treated as the metrics
// of the benchmark named by its key (e.g. "sequential", "workers1"),
// unless it sits under a key containing "baseline" — so a snapshot's
// own carried-forward baseline block is not mistaken for its results.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one result line of `go test -bench` output:
// name (with optional -GOMAXPROCS suffix), iteration count, then
// whitespace-separated value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+(.+)$`)

// unitKey maps a `go test` metric unit to its stable JSON key.
func unitKey(unit string) string {
	switch unit {
	case "ns/op":
		return "ns_per_op"
	case "B/op":
		return "bytes_per_op"
	case "allocs/op":
		return "allocs_per_op"
	case "accesses/s":
		return "accesses_per_s"
	}
	r := strings.NewReplacer("/", "_per_", "%", "pct", "-", "_", ">", "_")
	return r.Replace(unit)
}

// shortName strips the Benchmark prefix and parent path: the leaf
// sub-benchmark name used as the JSON key ("sequential", "workers4").
func shortName(full string) string {
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return strings.TrimPrefix(full, "Benchmark")
}

// parseBench collects every metric sample per benchmark from raw
// `go test -bench` output. Returned maps: name -> metric -> samples.
func parseBench(lines []string) (map[string]map[string][]float64, []string) {
	samples := map[string]map[string][]float64{}
	var order []string
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := shortName(m[1])
		fields := strings.Fields(m[3])
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
			order = append(order, name)
		}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			k := unitKey(fields[i+1])
			samples[name][k] = append(samples[name][k], v)
		}
	}
	return samples, order
}

// median returns the middle sample (lower of two for even counts, so
// the result is always a value that actually occurred).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// findBaselines walks arbitrary baseline JSON for objects that carry a
// numeric ns_per_op, keyed by benchmark short name. Subtrees under a
// key containing "baseline" are skipped (they are the previous
// snapshot's own comparison block, not its results).
func findBaselines(v any, out map[string]map[string]float64) {
	obj, ok := v.(map[string]any)
	if !ok {
		return
	}
	for k, child := range obj {
		if strings.Contains(strings.ToLower(k), "baseline") {
			continue
		}
		if m, ok := child.(map[string]any); ok {
			if _, has := m["ns_per_op"].(float64); has {
				metrics := map[string]float64{}
				for mk, mv := range m {
					if f, ok := mv.(float64); ok {
						metrics[mk] = f
					}
				}
				out[k] = metrics
				continue
			}
		}
		findBaselines(child, out)
	}
}

// nextOutName derives BENCH_(N+1).json from a BENCH_N.json baseline
// path, so bench-compare stays self-maintaining as snapshots accrue.
func nextOutName(baseline string) string {
	re := regexp.MustCompile(`^(.*BENCH_)(\d+)(\.json)$`)
	m := re.FindStringSubmatch(baseline)
	if m == nil {
		return "BENCH_next.json"
	}
	n, _ := strconv.Atoi(m[2])
	return m[1] + strconv.Itoa(n+1) + m[3]
}

// cpuModel reads the host CPU model from /proc/cpuinfo (best effort).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// num formats a metric for the delta table: whole numbers for the
// large throughput, time and allocation figures, four significant
// digits for the small per-access counts.
func num(v float64) string {
	if v >= 1000 || v <= -1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func pctDelta(old, new float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

// exactCounters are the benchmark metrics that count what the
// simulation did (events run and messages sent in one run) rather than
// how fast it ran. They do not vary from run to run, so the gate allows
// them no tolerance.
var exactCounters = []string{"events_per_op", "msgs_per_op"}

// gateFailures evaluates the perf-regression gate: each benchmark
// present in both runs is compared on throughput (accesses_per_s,
// higher is better), falling back to ns_per_op (lower is better) when
// the baseline predates the throughput metric. A benchmark fails when
// it is worse than the baseline median by more than tolPct percent;
// improvements and within-band noise pass. A benchmark also fails when
// its median allocs_per_op rises above the baseline's by more than the
// same tolPct percent (skipped when either side lacks the metric), and
// when any exactCounters metric differs from the baseline's at all. It
// returns the failures (empty means the gate is green) and notes on the
// exact counters it could not compare because only one side has them.
func gateFailures(base, medians map[string]map[string]float64, tolPct float64) (fails, notes []string) {
	var names []string
	for name := range medians {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	checked := 0
	for _, name := range names {
		nv, ov := medians[name], base[name]
		n, hasN := nv["allocs_per_op"]
		o, hasO := ov["allocs_per_op"]
		if hasN && hasO && n > o*(1+tolPct/100) {
			fails = append(fails, fmt.Sprintf(
				"%s: allocs_per_op %.0f -> %.0f (%s vs baseline, tolerance %.0f%%)",
				name, o, n, pctDelta(o, n), tolPct))
		}
		for _, k := range exactCounters {
			n, hasN := nv[k]
			o, hasO := ov[k]
			switch {
			case hasN && hasO && n != o:
				fails = append(fails, fmt.Sprintf(
					"%s: %s %g -> %g (a deterministic count: the simulation changed)",
					name, k, o, n))
			case hasN != hasO:
				notes = append(notes, fmt.Sprintf("%s: %s not compared: in baseline %t, in this run %t",
					name, k, hasO, hasN))
			}
		}
		if n, o := nv["accesses_per_s"], ov["accesses_per_s"]; n > 0 && o > 0 {
			checked++
			if n < o*(1-tolPct/100) {
				fails = append(fails, fmt.Sprintf(
					"%s: accesses_per_s %.0f -> %.0f (%.1f%% below baseline, tolerance %.0f%%)",
					name, o, n, 100*(o-n)/o, tolPct))
			}
			continue
		}
		if n, o := nv["ns_per_op"], ov["ns_per_op"]; n > 0 && o > 0 {
			checked++
			if n > o*(1+tolPct/100) {
				fails = append(fails, fmt.Sprintf(
					"%s: ns_per_op %.0f -> %.0f (%.1f%% above baseline, tolerance %.0f%%)",
					name, o, n, 100*(n-o)/o, tolPct))
			}
		}
	}
	if checked == 0 {
		fails = append(fails, "no comparable benchmarks between the baseline and this run")
	}
	return fails, notes
}

func main() {
	baseline := flag.String("baseline", "", "previous BENCH_*.json to diff against (optional)")
	out := flag.String("out", "", "snapshot to write (default: baseline's number + 1)")
	change := flag.String("change", "", "one-line description recorded in the snapshot")
	gate := flag.Float64("gate", 0, "perf-regression gate: exit 1 when throughput is worse, or allocs/op higher, than the baseline median by more than this percent; requires -baseline, writes no snapshot unless -out is set")
	flag.Parse()

	if *gate > 0 && *baseline == "" {
		fmt.Fprintln(os.Stderr, "protozoa-benchdiff: -gate requires -baseline")
		os.Exit(1)
	}

	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	samples, order := parseBench(lines)
	if len(order) == 0 {
		fmt.Fprintln(os.Stderr, "protozoa-benchdiff: no benchmark lines on stdin")
		os.Exit(1)
	}

	medians := map[string]map[string]float64{}
	counts := map[string]int{}
	for name, metrics := range samples {
		medians[name] = map[string]float64{}
		for k, xs := range metrics {
			medians[name][k] = median(xs)
			if len(xs) > counts[name] {
				counts[name] = len(xs)
			}
		}
	}

	base := map[string]map[string]float64{}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "protozoa-benchdiff: %v\n", err)
			os.Exit(1)
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			fmt.Fprintf(os.Stderr, "protozoa-benchdiff: %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		findBaselines(v, base)
	}

	// Delta table: one row per (benchmark, metric) present in both runs.
	deltas := map[string]map[string]string{}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-12s %-16s %16s %16s %9s\n", "benchmark", "metric", "old(med)", "new(med)", "delta")
	for _, name := range order {
		keys := make([]string, 0, len(medians[name]))
		for k := range medians[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			nv := medians[name][k]
			ov, has := base[name][k]
			if !has {
				fmt.Fprintf(w, "%-12s %-16s %16s %16s %9s\n", name, k, "-", num(nv), "new")
				continue
			}
			d := pctDelta(ov, nv)
			if deltas[name] == nil {
				deltas[name] = map[string]string{}
			}
			deltas[name][k] = fmt.Sprintf("%s -> %s (%s)", num(ov), num(nv), d)
			fmt.Fprintf(w, "%-12s %-16s %16s %16s %9s\n", name, k, num(ov), num(nv), d)
		}
	}
	w.Flush()

	if *gate > 0 {
		fails, notes := gateFailures(base, medians, *gate)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "protozoa-benchdiff: note:", n)
		}
		if len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "protozoa-benchdiff: GATE FAIL:", f)
			}
			os.Exit(1)
		}
		fmt.Printf("gate OK: within %.0f%% of %s\n", *gate, *baseline)
		// The gate is a read-only CI check; it emits a snapshot only on
		// explicit request.
		if *out == "" {
			return
		}
	}

	outPath := *out
	if outPath == "" {
		outPath = nextOutName(*baseline)
	}
	snapshot := map[string]any{
		"change":    *change,
		"cpu":       fmt.Sprintf("%s (GOMAXPROCS=%d)", cpuModel(), runtime.GOMAXPROCS(0)),
		"benchmark": "BenchmarkSimulatorThroughputParallel",
		"command":   "make bench-compare (go test -run '^$' -bench SimulatorThroughputParallel -benchmem -benchtime 2s -count 5 .)",
		fmt.Sprintf("median_of_%d", counts[order[0]]): medians,
	}
	if *baseline != "" {
		snapshot["baseline_file"] = *baseline
		snapshot["delta_vs_baseline"] = deltas
	}
	enc, err := json.MarshalIndent(snapshot, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "protozoa-benchdiff: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "protozoa-benchdiff: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", outPath)
}
