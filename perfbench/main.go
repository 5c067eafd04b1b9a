// Command perfbench is the repository benchmark: it runs one workload
// for a fixed time, checks the simulated outputs, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) by
// name with its unit. The last line of its output is one JSON object
// with the keys correct, attempted, failed and metrics. See README.md.
//
//	bash perfbench/run.sh --workload repro --seed 1 --seconds 60 --trace 0
//
// Each repetition runs in a child process of its own (the same binary,
// re-executed), so the peak resident memory and set-up time of every
// repetition are its own.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// childEnv marks a re-executed child process.
const childEnv = "PERFBENCH_CHILD"

// runLimit bounds a whole invocation, which must end within 180 s.
const runLimit = 170 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool   // tiny inputs (the tests' smoke mode)
	work     string // directory for profiles
	profile  string // child only: write a CPU profile here
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (feeds the trace-randomization seed)")
	fs.IntVar(&o.seconds, "seconds", 20, "measure for this many seconds (at least one repetition)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: print the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs, for the benchmark's own tests")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for CPU profiles")
	fs.StringVar(&o.profile, "profile", "", "child: CPU profile output file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	return o, nil
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := bench(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// rep is one finished repetition, as the parent saw it.
type rep struct {
	rec     repRecord
	spawnNs int64  // parent clock just before the child started
	traced  bool   // ran with the CPU profile and self-profiling on
	profile string // CPU profile path, when traced
	err     error  // the child failed or printed no record
}

// spawn runs one repetition in a child process.
func spawn(ctx context.Context, o options, traced bool, n int) rep {
	self, err := os.Executable()
	if err != nil {
		return rep{err: err}
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	r := rep{traced: traced}
	if traced {
		r.profile = filepath.Join(o.work, fmt.Sprintf("cpu-%s-%d-%d.pprof", o.workload, os.Getpid(), n))
		args = append(args, "-profile", r.profile)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	r.spawnNs = time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		r.err = fmt.Errorf("repetition %d: %w", n, err)
		return r
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &r.rec); err != nil {
		r.err = fmt.Errorf("repetition %d: bad record: %w", n, err)
	}
	return r
}

// bench runs repetitions of the workload for about o.seconds (at least
// two; a traced run alternates untraced and traced ones), then checks
// and summarizes them.
func bench(o options, log io.Writer) (result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.trace == 1 {
		if err := os.MkdirAll(o.work, 0o755); err != nil {
			return result{}, err
		}
	}
	hb, err := json.Marshal(hostRecord(o, w))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "# host %s\n", hb)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	var (
		reps  []rep
		durs  []float64
		limit = float64(o.seconds)
	)
	for n := 0; ; n++ {
		traced := o.trace == 1 && n%2 == 1
		t0 := time.Now()
		r := spawn(ctx, o, traced, n)
		durs = append(durs, time.Since(t0).Seconds())
		reps = append(reps, r)
		if r.profile != "" {
			// Read by summarize, removed when bench returns.
			defer os.Remove(r.profile)
		}
		logRep(log, n, r)
		if ctx.Err() != nil {
			break
		}
		// At least two repetitions (one of each kind when traced); then
		// another only while it should still end within the budget.
		if n >= 1 && time.Since(start).Seconds()+median(durs) > limit {
			break
		}
	}
	return summarize(o, reps, log)
}

func logRep(log io.Writer, n int, r rep) {
	kind := "untraced"
	if r.traced {
		kind = "traced"
	}
	if r.err != nil {
		fmt.Fprintf(log, "# rep %d (%s): FAILED: %v\n", n, kind, r.err)
		return
	}
	fmt.Fprintf(log, "# rep %d (%s): setup %.4fs run %.4fs accesses %d digest %.16s checks %d failed %d\n",
		n, kind, float64(r.rec.ReadyNs-r.spawnNs)/1e9, float64(r.rec.RunNs)/1e9,
		r.rec.Accesses, r.rec.Digest, r.rec.Checks, len(r.rec.CheckErrs)+r.rec.FailedRuns)
	for _, e := range r.rec.CheckErrs {
		fmt.Fprintf(log, "#   check failed: %s\n", e)
	}
}

// summarize checks the repetitions against each other and turns them
// into the reported metrics.
func summarize(o options, reps []rep, log io.Writer) (result, error) {
	var (
		res result
		ok  []rep
	)
	digests := map[string]bool{}
	for _, r := range reps {
		if r.err != nil {
			res.Attempted++
			res.Failed++
			continue
		}
		res.Attempted += r.rec.Runs + r.rec.Checks
		res.Failed += r.rec.FailedRuns + len(r.rec.CheckErrs)
		if r.rec.FailedRuns == 0 {
			digests[r.rec.Digest] = true
			ok = append(ok, r)
		}
	}
	// Every repetition simulated the same inputs: the outputs must be
	// byte-identical, traced or not.
	res.Attempted++
	if len(digests) != 1 {
		res.Failed++
		fmt.Fprintf(log, "# check failed: %d distinct output digests across %d repetitions\n", len(digests), len(ok))
	}
	for d := range digests {
		fmt.Fprintf(log, "# digest sha256:%s\n", d)
	}
	if len(ok) == 0 {
		return result{}, errors.New("no repetition finished")
	}

	var plain, traced []rep
	for _, r := range ok {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	extra := map[string][]float64{}
	for _, r := range ok {
		for k, v := range r.rec.Extra {
			extra[k] = append(extra[k], v)
		}
	}
	for _, k := range sortedKeys(extra) {
		fmt.Fprintf(log, "%s %.6g ratio\n", k, median(extra[k]))
	}

	if o.trace == 0 {
		res.Metrics = endToEndMetrics(plain, res)
	} else {
		m, err := perLayerMetrics(plain, traced)
		if err != nil {
			return result{}, err
		}
		res.Metrics = m
	}
	res.Correct = res.Failed == 0
	printMetrics(log, res.Metrics)
	return res, nil
}

// endToEndMetrics reports the median, over the repetitions, of each
// repetition's own value; the cell percentiles are taken within a
// repetition first (a single run is one cell).
func endToEndMetrics(reps []rep, res result) map[string]metric {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for _, r := range reps {
		add("wall_s", float64(r.rec.DoneNs-r.spawnNs)/1e9)
		add("setup_s", float64(r.rec.ReadyNs-r.spawnNs)/1e9)
		add("peak_rss_mb", float64(r.rec.PeakRSSKB)/1024)
		add("sim_cycles", float64(r.rec.SimCycles))
		add("cell_p50_ms", quantile(r.rec.CellMs, 0.50))
		add("cell_p95_ms", quantile(r.rec.CellMs, 0.95))
		if r.rec.RunNs > 0 {
			add("accesses_per_s", float64(r.rec.Accesses)/(float64(r.rec.RunNs)/1e9))
		}
	}
	pass := 1.0
	if res.Attempted > 0 {
		pass = 1 - float64(res.Failed)/float64(res.Attempted)
	}
	out := map[string]metric{}
	for _, d := range endToEnd {
		v := median(per[d.name])
		if d.name == "pass_ratio" {
			v = pass
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// perLayerMetrics reports the traced repetitions: medians of their
// per-layer values, the CPU-profile split, and the tracing overhead
// against the untraced repetitions of the same invocation.
func perLayerMetrics(plain, traced []rep) (map[string]metric, error) {
	if len(traced) == 0 {
		return nil, errors.New("no traced repetition finished")
	}
	vals := map[string][]float64{}
	var prof attribution
	for _, r := range traced {
		for k, v := range r.rec.Layer {
			vals[k] = append(vals[k], v)
		}
		vals["process.start_s"] = append(vals["process.start_s"], float64(r.rec.StartNs-r.spawnNs)/1e9)
		f, err := os.Open(r.profile)
		if err != nil {
			return nil, err
		}
		p, err := decodeCPUProfile(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.profile, err)
		}
		prof.add(p)
	}
	if err := prof.reconcile(); err != nil {
		return nil, err
	}
	v := map[string]float64{}
	for k, xs := range vals {
		v[k] = median(xs)
	}
	n := float64(len(traced))
	for _, l := range selfLayers {
		v[selfMetric(l)] = float64(prof.nanos[l]) / 1e9 / n
	}
	v["cpuprof.total_s"] = float64(prof.total) / 1e9 / n
	v["cpuprof.samples"] = float64(prof.samples) / n
	v["trace_overhead_frac"] = 1 - throughput(traced)/throughput(plain)

	out := map[string]metric{}
	for _, d := range perLayer {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out, nil
}

// throughput is the median simulated accesses per host second of the
// timed section.
func throughput(reps []rep) float64 {
	var xs []float64
	for _, r := range reps {
		if r.rec.RunNs > 0 {
			xs = append(xs, float64(r.rec.Accesses)/(float64(r.rec.RunNs)/1e9))
		}
	}
	return median(xs)
}

func printMetrics(log io.Writer, m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(log, "%s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks; an empty
// sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
