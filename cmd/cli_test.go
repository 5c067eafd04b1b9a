// Package cmd_test builds every CLI binary once and exercises its
// primary paths end to end — the integration layer unit tests cannot
// reach. Skipped under -short (it compiles two binaries: the protozoa
// command and protozoa-benchdiff).
package cmd_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"protozoa"
)

var tools = []string{"protozoa", "protozoa-benchdiff"}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// build compiles the named binaries into a shared temp dir.
func build(t *testing.T, tools ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()
	for _, tool := range tools {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./"+tool)
		cmd.Dir = mustSelfDir(t)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, b)
		}
	}
	return dir
}

// mustSelfDir returns the cmd/ directory (this test file's package dir).
func mustSelfDir(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// startServing launches a -serve subcommand, parses the advertised
// endpoint address off its stderr, and registers a kill on cleanup.
// toolName is the subcommand's stderr prefix, e.g. "protozoa sim".
func startServing(t *testing.T, cmd *exec.Cmd, toolName string) string {
	t.Helper()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	marker := toolName + ": serving live metrics at http://"
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, marker) {
			continue
		}
		addr := strings.TrimSuffix(strings.TrimPrefix(line, marker), "/metrics")
		// Drain the rest of stderr so the child never blocks on a full pipe.
		go io.Copy(io.Discard, stderr)
		return addr
	}
	t.Fatalf("%s never advertised its metrics endpoint (scan err: %v)", toolName, sc.Err())
	return ""
}

// scrapeMetrics polls GET /metrics while the run is in flight until a
// body with at least one published snapshot arrives.
func scrapeMetrics(t *testing.T, addr string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK &&
			!strings.Contains(string(body), "protozoa_snapshots_total 0") {
			return string(body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("no published metrics snapshot before the deadline")
	return ""
}

// checkPrometheusFormat validates the text exposition format: every
// non-comment line is "name value" with a parseable float.
func checkPrometheusFormat(t *testing.T, body string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("metrics line not `name value`: %q", line)
			continue
		}
		if !strings.HasPrefix(fields[0], "protozoa_") {
			t.Errorf("metric %q missing protozoa_ prefix", fields[0])
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Errorf("metric %q value %q: %v", fields[0], fields[1], err)
		}
	}
}

// waitEndpointDown asserts the endpoint stops answering once the
// driver exits (graceful shutdown, no leaked listener).
func waitEndpointDown(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return
		}
		resp.Body.Close()
		time.Sleep(50 * time.Millisecond)
	}
	t.Error("metrics endpoint still answering after the driver exited")
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestVerifyGoldenShort pins the short random-tester run, the stdout
// of `protozoa verify -accesses 40000 -seed 7`: each protocol's access,
// load-check and quiescent-scan counts. Regenerate with `make golden`
// only after an intentional change to the simulated machine or the
// checker.
func TestVerifyGoldenShort(t *testing.T) {
	pz := filepath.Join(build(t, "protozoa"), "protozoa")
	got := run(t, pz, "verify", "-accesses", "40000", "-seed", "7")
	path := filepath.Join("testdata", "verify_short.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("verify output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestCLIs(t *testing.T) {
	dir := build(t, tools...)
	bin := func(name string) string { return filepath.Join(dir, name) }
	pz := bin("protozoa")

	t.Run("sim", func(t *testing.T) {
		out := run(t, pz, "sim", "-workload", "fft", "-cores", "4", "-scale", "1", "-protocol", "mw")
		for _, want := range []string{"workload fft under Protozoa-MW", "L1 hits/misses", "miss classes", "energy"} {
			if !strings.Contains(out, want) {
				t.Errorf("sim output missing %q", want)
			}
		}
		out = run(t, pz, "sim", "-list")
		if !strings.Contains(out, "linear-regression") || !strings.Contains(out, "micro-ticket-lock") {
			t.Error("sim -list missing workloads")
		}
		out = run(t, pz, "sim", "-workload", "fft", "-cores", "4", "-scale", "1", "-json")
		if !strings.Contains(out, "\"L1Misses\"") {
			t.Error("sim -json missing counters")
		}
		out = run(t, pz, "sim", "-workload", "fft", "-cores", "4", "-scale", "1", "-msglog", "5", "-timeline", "5000")
		if !strings.Contains(out, "coherence messages") || !strings.Contains(out, "timeline") {
			t.Error("sim instrumentation output incomplete")
		}
		traceOut := filepath.Join(dir, "trace.json")
		metricsOut := filepath.Join(dir, "metrics.json")
		run(t, pz, "sim", "-workload", "fft", "-cores", "4", "-scale", "1",
			"-trace-out", traceOut, "-metrics-out", metricsOut)
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		data, err := os.ReadFile(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("-trace-out did not produce a parseable trace (%v, %d events)", err, len(trace.TraceEvents))
		}
		var metrics struct {
			Final map[string]float64 `json:"final"`
		}
		data, err = os.ReadFile(metricsOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &metrics); err != nil {
			t.Errorf("-metrics-out did not produce parseable JSON: %v", err)
		}
		if _, ok := metrics.Final["event_queue_high_water"]; !ok {
			t.Errorf("metrics.json missing standard gauges: %v", metrics.Final)
		}
	})

	t.Run("sim-json", func(t *testing.T) {
		// -json prints the stats and nothing else: flags that write only
		// to files or stderr combine with it, flags that append text to
		// stdout are rejected.
		args := []string{"sim", "-workload", "fft", "-cores", "4", "-scale", "1", "-json"}
		stdout := func(extra ...string) string {
			t.Helper()
			cmd := exec.Command(pz, append(args, extra...)...)
			var errBuf strings.Builder
			cmd.Stderr = &errBuf
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("sim %v: %v\n%s", extra, err, errBuf.String())
			}
			return string(out)
		}
		plain := stdout()
		if !json.Valid([]byte(plain)) {
			t.Fatalf("sim -json stdout is not JSON:\n%s", plain)
		}
		if got := stdout("-self-prof-out", filepath.Join(dir, "json-selfprof.json"),
			"-trace-out", filepath.Join(dir, "json-trace.json")); got != plain {
			t.Errorf("sim -json -self-prof-out -trace-out changed stdout:\n%s", got)
		}
		for _, fl := range [][]string{{"-timeline", "5000"}, {"-msglog", "5"}, {"-attrib"},
			{"-flight", filepath.Join(dir, "json.pzfl")}, {"-stall-cycles", "100"}} {
			out, err := exec.Command(pz, append(args, fl...)...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
				!strings.HasPrefix(string(out), "protozoa sim: "+fl[0]+" appends text to stdout") {
				t.Errorf("sim -json %v: exit %v, want status 1 and a refusal:\n%s", fl, err, out)
			}
		}
	})

	t.Run("cache-dir", func(t *testing.T) {
		// -cache-dir is the only cache setting; -cache is an unknown flag.
		out, err := exec.Command(pz, "sweep", "-cache=false").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(string(out), "flag provided but not defined: -cache") {
			t.Errorf("sweep -cache=false: exit %v, want status 2 and an unknown-flag error:\n%s", err, out)
		}
		cache := filepath.Join(dir, "results")
		sweep := func() (string, string) {
			t.Helper()
			cmd := exec.Command(pz, "sweep", "-workloads", "fft", "-cores", "4", "-progress", "-cache-dir", cache)
			var errBuf strings.Builder
			cmd.Stderr = &errBuf
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("sweep: %v\n%s", err, errBuf.String())
			}
			return string(out), errBuf.String()
		}
		cold, coldProgress := sweep()
		warm, warmProgress := sweep()
		if !strings.Contains(coldProgress, "4 cells (0 failed, 0 cached)") ||
			!strings.Contains(warmProgress, "4 cells (0 failed, 4 cached)") {
			t.Errorf("cold then warm progress:\n%s\n%s", coldProgress, warmProgress)
		}
		if warm != cold {
			t.Errorf("warm CSV differs from cold:\n%s\n%s", warm, cold)
		}
	})

	t.Run("table1", func(t *testing.T) {
		out := run(t, pz, "table1", "-cores", "4", "-scale", "1", "-workloads", "word-count")
		if !strings.Contains(out, "word-count") || !strings.Contains(out, "optimal") {
			t.Errorf("table1 output:\n%s", out)
		}
		// The grid subcommands take the shared profile flags, and
		// profiling leaves stdout unchanged.
		for _, sub := range []string{"table1", "figs", "report"} {
			cpu, heap := filepath.Join(dir, sub+".cpu"), filepath.Join(dir, sub+".mem")
			args := []string{sub, "-cores", "4", "-scale", "1", "-workloads", "word-count",
				"-cpuprofile", cpu, "-memprofile", heap}
			got := run(t, pz, args...)
			if plain := run(t, pz, args[:7]...); got != plain {
				t.Errorf("%s: output differs with profiling on", sub)
			}
			for _, f := range []string{cpu, heap} {
				if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
					t.Errorf("%s: profile %s not written (%v)", sub, f, err)
				}
			}
		}
	})

	t.Run("figs", func(t *testing.T) {
		csv := filepath.Join(dir, "figs.csv")
		out := run(t, pz, "figs", "-fig", "13", "-cores", "4", "-scale", "1",
			"-workloads", "swaptions", "-csv", csv)
		if !strings.Contains(out, "swaptions") {
			t.Errorf("figs output:\n%s", out)
		}
		if data, err := os.ReadFile(csv); err != nil || !strings.Contains(string(data), "mpki") {
			t.Errorf("figs csv: %v", err)
		}
		out = run(t, pz, "figs", "-fig", "16", "-cores", "4", "-scale", "1", "-workloads", "swaptions")
		if !strings.Contains(out, "coherence") {
			t.Error("fig 16 missing classification")
		}
	})

	t.Run("verify", func(t *testing.T) {
		out := run(t, pz, "verify", "-accesses", "8000", "-cores", "4")
		if strings.Count(out, "OK") != 4 {
			t.Errorf("verify output:\n%s", out)
		}
	})

	t.Run("trace", func(t *testing.T) {
		pztr := filepath.Join(dir, "t.pztr")
		run(t, pz, "trace", "-dump", "-workload", "fft", "-cores", "4", "-scale", "1", "-o", pztr)
		out := run(t, pz, "trace", "-info", pztr)
		if !strings.Contains(out, "4 cores") {
			t.Errorf("trace -info:\n%s", out)
		}
		// Replaying the dump is the same run as simulating the workload:
		// only the label line (the trace path vs the workload name)
		// differs.
		replay := run(t, pz, "trace", "-run", pztr, "-protocol", "mesi")
		sim := run(t, pz, "sim", "-workload", "fft", "-protocol", "mesi", "-cores", "4", "-scale", "1")
		_, replayBody, _ := strings.Cut(replay, "\n")
		_, simBody, _ := strings.Cut(sim, "\n")
		if !strings.Contains(replay, "under MESI") || replayBody != simBody {
			t.Errorf("trace -run differs from sim beyond the label line:\n%s\n---\n%s", replay, sim)
		}

		// Every record kind is counted: the per-core counts sum to the
		// record count on a workload made of RMWs.
		pztr = filepath.Join(dir, "atomic.pztr")
		run(t, pz, "trace", "-dump", "-workload", "micro-atomic-counter", "-cores", "4", "-scale", "1", "-o", pztr)
		out = run(t, pz, "trace", "-info", pztr)
		coreLine := regexp.MustCompile(`core +\d+: +(\d+) records \((\d+) loads, (\d+) stores, (\d+) rmws, (\d+) barriers\)`)
		lines := coreLine.FindAllStringSubmatch(out, -1)
		if len(lines) != 4 {
			t.Fatalf("trace -info: want 4 per-core lines with load/store/rmw/barrier counts:\n%s", out)
		}
		for _, m := range lines {
			n := make([]int, len(m)-1)
			for i := range n {
				n[i], _ = strconv.Atoi(m[i+1])
			}
			if n[1]+n[2]+n[3]+n[4] != n[0] || n[3] == 0 {
				t.Errorf("trace -info: counts do not sum to the records (or no RMWs): %q", m[0])
			}
		}
	})

	t.Run("profile", func(t *testing.T) {
		out := run(t, pz, "profile", "-cores", "4", "-workload", "canneal")
		if !strings.Contains(out, "true-shared") {
			t.Errorf("profile output:\n%s", out)
		}
	})

	t.Run("sweep", func(t *testing.T) {
		out := run(t, pz, "sweep", "-workloads", "fft", "-protocols", "mesi",
			"-knobs", "baseline,crossbar", "-cores", "4")
		if strings.Count(out, "\n") != 3 { // header + 2 rows
			t.Errorf("sweep output:\n%s", out)
		}
		// An empty -workloads runs the full suite, as its help says.
		out = run(t, pz, "sweep", "-workloads", "", "-protocols", "mesi", "-cores", "4")
		if n := strings.Count(out, "\n"); n != 1+len(protozoa.WorkloadNames()) {
			t.Errorf("sweep -workloads '' emitted %d lines, want a header and one row per suite workload:\n%s", n, out)
		}
	})

	t.Run("sweep-parallel-deterministic", func(t *testing.T) {
		// 2 workloads x 4 protocols x 3 regions = 24 cells; stdout must
		// be byte-identical at any -jobs width. "all,mesi" also pins the
		// duplicate-protocol fix: MESI must not be simulated twice.
		grid := []string{"sweep", "-workloads", "swaptions,histogram", "-protocols", "all,mesi",
			"-regions", "32,64,128", "-cores", "4"}
		stdout := func(jobs string) string {
			cmd := exec.Command(pz, append(grid, "-jobs", jobs)...)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("sweep -jobs %s: %v", jobs, err)
			}
			return string(out)
		}
		serial := stdout("1")
		parallel := stdout("8")
		if serial != parallel {
			t.Errorf("sweep CSV differs between -jobs 1 and -jobs 8:\n%s\n---\n%s", serial, parallel)
		}
		if n := strings.Count(serial, "\n"); n != 25 { // header + 24 rows, no duplicated MESI
			t.Errorf("sweep grid emitted %d lines, want 25:\n%s", n, serial)
		}
	})

	t.Run("sim-attrib", func(t *testing.T) {
		out := run(t, pz, "sim", "-workload", "histogram", "-cores", "4", "-scale", "1", "-attrib")
		for _, want := range []string{"attribution:", "top offenders", "util"} {
			if !strings.Contains(out, want) {
				t.Errorf("sim -attrib output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("sim-serve", func(t *testing.T) {
		cmd := exec.Command(pz, "sim",
			"-workload", "histogram", "-cores", "16", "-scale", "60", "-serve", "127.0.0.1:0")
		cmd.Stdout = io.Discard
		addr := startServing(t, cmd, "protozoa sim")
		body := scrapeMetrics(t, addr)
		checkPrometheusFormat(t, body)
		for _, want := range []string{"protozoa_sim_cycle", "protozoa_attrib_fetched_words", "protozoa_mshr_live"} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q:\n%s", want, body)
			}
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("sim -serve exited with error: %v", err)
		}
		waitEndpointDown(t, addr)
	})

	t.Run("sweep-serve", func(t *testing.T) {
		cmd := exec.Command(pz, "sweep",
			"-workloads", "histogram,swaptions", "-protocols", "all", "-cores", "4",
			"-serve", "127.0.0.1:0")
		cmd.Stdout = io.Discard
		addr := startServing(t, cmd, "protozoa sweep")
		body := scrapeMetrics(t, addr)
		checkPrometheusFormat(t, body)
		for _, want := range []string{"protozoa_sweep_cells_total 8", "protozoa_attrib_fetched_words"} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q:\n%s", want, body)
			}
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("sweep -serve exited with error: %v", err)
		}
		waitEndpointDown(t, addr)
	})

	t.Run("version", func(t *testing.T) {
		out := run(t, pz, "version")
		if !strings.Contains(out, "result-cache schema v") || !strings.Contains(out, "code stamp:") {
			t.Errorf("protozoa version output:\n%s", out)
		}
	})

	t.Run("sim-self-prof", func(t *testing.T) {
		args := []string{"sim", "-workload", "histogram", "-cores", "4", "-scale", "1"}
		spOut := filepath.Join(dir, "selfprof.json")
		cmd := exec.Command(pz, append(args, "-self-prof", "-self-prof-out", spOut)...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("sim -self-prof: %v\n%s", err, stderr.String())
		}
		for _, want := range []string{"self-profile: ", "queue:"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("self-prof summary missing %q:\n%s", want, stderr.String())
			}
		}
		var report struct {
			TotalEvents uint64 `json:"total_events"`
			Queue       struct {
				RingPushes uint64 `json:"ring_pushes"`
			} `json:"queue"`
		}
		data, err := os.ReadFile(spOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &report); err != nil || report.TotalEvents == 0 ||
			report.Queue.RingPushes == 0 {
			t.Errorf("-self-prof-out report (%v): %s", err, data)
		}
		// The measurement report on stdout must be byte-identical with
		// the profiler off.
		plain := exec.Command(pz, args...)
		base, err := plain.Output()
		if err != nil {
			t.Fatal(err)
		}
		if stdout.String() != string(base) {
			t.Error("-self-prof changed the stdout report")
		}
	})

	t.Run("sim-flight-inspect", func(t *testing.T) {
		// Inspect must validate the recorded log and reconstruct
		// transactions whose phase dwells tile the total latency.
		log := filepath.Join(dir, "flight.pzfl")
		out := run(t, pz, "sim", "-workload", "fft", "-cores", "4", "-scale", "1",
			"-flight", log, "-flight-cap", "65536")
		if !strings.Contains(out, "flight recorder:") {
			t.Errorf("sim report missing the flight recorder line:\n%s", out)
		}
		out = run(t, pz, "inspect", "-check", log)
		if !strings.HasPrefix(out, "ok:") || !strings.Contains(out, "(0 open)") {
			t.Errorf("inspect -check output:\n%s", out)
		}
		out = run(t, pz, "inspect", "-summary", log)
		for _, want := range []string{"protocol    Protozoa-MW", "msg-send", "miss-start", "l1-state"} {
			if !strings.Contains(out, want) {
				t.Errorf("inspect -summary missing %q:\n%s", want, out)
			}
		}
		out = run(t, pz, "inspect", "-last", "5", log)
		if !strings.Contains(out, "req-noc") || !strings.Contains(out, "GETS") {
			t.Errorf("inspect timeline output:\n%s", out)
		}
		// A region filter must yield a coherent single-region transcript.
		out = run(t, pz, "inspect", "-records", "-last", "3", log)
		var region string
		fields := strings.Fields(out)
		for i, f := range fields {
			if f == "region" && i+1 < len(fields) {
				region = fields[i+1]
				break
			}
		}
		if region == "" {
			t.Fatalf("no region in transcript:\n%s", out)
		}
		out = run(t, pz, "inspect", "-records", "-region", region, log)
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if !strings.Contains(line, "region "+region) {
				t.Errorf("record for another region leaked through the filter: %q", line)
			}
		}
	})

	t.Run("sim-msglog-flight-cap", func(t *testing.T) {
		// -msglog and -flight share one ring: a 5-message log enabled
		// first must not cap the flight log below -flight-cap.
		kept := func(extra ...string) string {
			path := filepath.Join(dir, "cap.pzfl")
			args := append([]string{"sim", "-workload", "linear-regression", "-cores", "4", "-scale", "1",
				"-flight", path, "-flight-cap", "100000"}, extra...)
			out := run(t, pz, args...)
			m := regexp.MustCompile(`flight recorder: (\d+) records kept, (\d+) dropped`).FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no flight recorder line:\n%s", out)
			}
			if m[2] != "0" {
				t.Errorf("%v: %s records dropped under a 100000-record cap", extra, m[2])
			}
			return m[1]
		}
		if with, without := kept("-msglog", "5"), kept(); with != without {
			t.Errorf("-msglog 5 kept %s flight records, without it %s", with, without)
		}
	})

	t.Run("report", func(t *testing.T) {
		out := run(t, pz, "report", "-cores", "4", "-scale", "1", "-workloads", "swaptions")
		if !strings.Contains(out, "# Protozoa reproduction report") ||
			!strings.Contains(out, "Headline geomeans") {
			t.Errorf("report output truncated")
		}
	})

	t.Run("workload-lists", func(t *testing.T) {
		// Every grid subcommand reads -workloads alike: names trimmed, a
		// repeat counted once, and a bad name rejected before any cell.
		grid := func(sub, list string, extra ...string) []string {
			return append([]string{sub, "-cores", "4", "-scale", "1", "-workloads", list}, extra...)
		}
		if twice, once := run(t, pz, grid("figs", "swaptions,histogram,swaptions", "-fig", "9")...),
			run(t, pz, grid("figs", "swaptions,histogram", "-fig", "9")...); twice != once {
			t.Errorf("figs with a repeated workload:\n%s\nwithout:\n%s", twice, once)
		}
		if spaced, plain := run(t, pz, grid("table1", "swaptions, histogram")...),
			run(t, pz, grid("table1", "swaptions,histogram")...); spaced != plain {
			t.Errorf("table1 with a spaced list:\n%s\nwithout:\n%s", spaced, plain)
		}
		out, err := exec.Command(pz, grid("figs", "swaptions,,histogram", "-progress")...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("figs with an empty workload name: exit %v, want status 1\n%s", err, out)
		}
		if lines := strings.Split(strings.TrimSpace(string(out)), "\n"); len(lines) != 1 ||
			!strings.Contains(lines[0], `unknown workload ""`) {
			t.Errorf("figs with an empty workload name: want one error line and no cell, got:\n%s", out)
		}
	})

	t.Run("bad-input", func(t *testing.T) {
		// Each bad input is rejected before any simulation, with exit
		// status 1 and one "protozoa <sub>: ..." line: no panic, no
		// vacuous pass, no silent clamp.
		pztr := filepath.Join(dir, "zero-cores.pztr")
		for _, args := range [][]string{
			{"verify", "-cores", "0"},
			{"verify", "-regions", "0", "-accesses", "8000", "-cores", "4"},
			{"verify", "-accesses", "3", "-cores", "4"},
			{"verify", "-accesses", "-5"},
			{"verify", "-stores", "150", "-accesses", "8000", "-cores", "4"},
			{"verify", "-stores", "-1", "-accesses", "8000", "-cores", "4"},
			{"profile", "-cores", "0"},
			{"profile", "-cores", "64"},
			{"trace", "-dump", "-cores", "0", "-o", pztr},
			{"sim", "-scale", "0"},
			{"sweep", "-scale", "-1"},
			{"figs", "-scale", "0"},
			{"table1", "-cores", "3"},
			{"report", "-scale", "-1"},
			{"profile", "-scale", "0"},
			{"trace", "-run", pztr, "-protocol", "all"},
		} {
			out, err := exec.Command(pz, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("%v: exit %v, want status 1\n%s", args, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if len(lines) != 1 || !strings.HasPrefix(lines[0], "protozoa "+args[0]+": ") {
				t.Errorf("%v: want one \"protozoa %s: ...\" error line, got:\n%s", args, args[0], out)
			}
			if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine") {
				t.Errorf("%v panicked:\n%s", args, out)
			}
		}
		if _, err := os.Stat(pztr); err == nil {
			t.Error("trace -dump -cores 0 wrote a trace file")
		}
	})

	t.Run("usage", func(t *testing.T) {
		out := run(t, pz, "help")
		for _, sub := range []string{"sim", "sweep", "figs", "table1", "report", "verify",
			"trace", "profile", "inspect", "version"} {
			if !strings.Contains(out, "\n  "+sub+" ") {
				t.Errorf("help does not list %q:\n%s", sub, out)
			}
		}
		bad, err := exec.Command(pz, "simulate").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("unknown subcommand: exit %v, want status 2", err)
		}
		if !strings.Contains(string(bad), `unknown subcommand "simulate"`) || !strings.Contains(string(bad), out) {
			t.Errorf("unknown subcommand output:\n%s", bad)
		}
		// The retired parallel engine's flag is gone, not ignored.
		bad, err = exec.Command(pz, "sim", "-workers", "2").CombinedOutput()
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(string(bad), "flag provided but not defined: -workers") {
			t.Errorf("sim -workers: exit %v, want status 2 and an unknown-flag error:\n%s", err, bad)
		}
	})

	t.Run("benchdiff", func(t *testing.T) {
		work := t.TempDir()
		baseline := filepath.Join(work, "BENCH_1.json")
		if err := os.WriteFile(baseline, []byte(`{
			"results": {"sequential": {"ns_per_op": 40000000, "accesses_per_s": 800000}}
		}`), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin("protozoa-benchdiff"), "-baseline", baseline, "-change", "cli test")
		cmd.Dir = work
		cmd.Stdin = strings.NewReader(
			"BenchmarkSimulatorThroughputParallel/sequential-1 \t 50\t  20000000 ns/op\t 1600000 accesses/s\n" +
				"BenchmarkSimulatorThroughputParallel/sequential-1 \t 50\t  22000000 ns/op\t 1450000 accesses/s\n" +
				"BenchmarkSimulatorThroughputParallel/sequential-1 \t 50\t  21000000 ns/op\t 1500000 accesses/s\n")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("benchdiff: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "-47.5%") { // 40e6 -> 21e6 ns/op median
			t.Errorf("delta table missing the ns/op improvement:\n%s", out)
		}
		raw, err := os.ReadFile(filepath.Join(work, "BENCH_2.json"))
		if err != nil {
			t.Fatalf("derived snapshot not written: %v", err)
		}
		var snap map[string]any
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("snapshot not valid JSON: %v", err)
		}
		med, _ := snap["median_of_3"].(map[string]any)
		seq, _ := med["sequential"].(map[string]any)
		if seq["ns_per_op"] != 21000000.0 {
			t.Errorf("snapshot median ns_per_op = %v, want 21000000", seq["ns_per_op"])
		}
	})
}
