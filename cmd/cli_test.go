// Package cmd_test builds every CLI binary once and exercises its
// primary paths end to end — the integration layer unit tests cannot
// reach. Skipped under -short (it compiles ten binaries).
package cmd_test

import (
	"bufio"
	"encoding/json"
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
)

var tools = []string{
	"protozoa-sim", "protozoa-table1", "protozoa-figs", "protozoa-verify",
	"protozoa-trace", "protozoa-profile", "protozoa-sweep", "protozoa-report",
	"protozoa-benchdiff", "protozoa-inspect",
}

// buildAll compiles the binaries into a shared temp dir.
func buildAll(t *testing.T) string {
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

// startServing launches a -serve driver, parses the advertised
// endpoint address off its stderr, and registers a kill on cleanup.
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

func TestCLIs(t *testing.T) {
	dir := buildAll(t)
	bin := func(name string) string { return filepath.Join(dir, name) }

	t.Run("sim", func(t *testing.T) {
		out := run(t, bin("protozoa-sim"), "-workload", "fft", "-cores", "4", "-scale", "1", "-protocol", "mw")
		for _, want := range []string{"workload fft under Protozoa-MW", "L1 hits/misses", "miss classes", "energy"} {
			if !strings.Contains(out, want) {
				t.Errorf("sim output missing %q", want)
			}
		}
		out = run(t, bin("protozoa-sim"), "-list")
		if !strings.Contains(out, "linear-regression") || !strings.Contains(out, "micro-ticket-lock") {
			t.Error("sim -list missing workloads")
		}
		out = run(t, bin("protozoa-sim"), "-workload", "fft", "-cores", "4", "-scale", "1", "-json")
		if !strings.Contains(out, "\"L1Misses\"") {
			t.Error("sim -json missing counters")
		}
		out = run(t, bin("protozoa-sim"), "-workload", "fft", "-cores", "4", "-scale", "1", "-msglog", "5", "-timeline", "5000")
		if !strings.Contains(out, "coherence messages") || !strings.Contains(out, "timeline") {
			t.Error("sim instrumentation output incomplete")
		}
		traceOut := filepath.Join(dir, "trace.json")
		metricsOut := filepath.Join(dir, "metrics.json")
		run(t, bin("protozoa-sim"), "-workload", "fft", "-cores", "4", "-scale", "1",
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

	t.Run("table1", func(t *testing.T) {
		out := run(t, bin("protozoa-table1"), "-cores", "4", "-scale", "1", "-workloads", "word-count")
		if !strings.Contains(out, "word-count") || !strings.Contains(out, "optimal") {
			t.Errorf("table1 output:\n%s", out)
		}
	})

	t.Run("figs", func(t *testing.T) {
		csv := filepath.Join(dir, "figs.csv")
		out := run(t, bin("protozoa-figs"), "-fig", "13", "-cores", "4", "-scale", "1",
			"-workloads", "swaptions", "-csv", csv)
		if !strings.Contains(out, "swaptions") {
			t.Errorf("figs output:\n%s", out)
		}
		if data, err := os.ReadFile(csv); err != nil || !strings.Contains(string(data), "mpki") {
			t.Errorf("figs csv: %v", err)
		}
		out = run(t, bin("protozoa-figs"), "-fig", "16", "-cores", "4", "-scale", "1", "-workloads", "swaptions")
		if !strings.Contains(out, "coherence") {
			t.Error("fig 16 missing classification")
		}
	})

	t.Run("verify", func(t *testing.T) {
		out := run(t, bin("protozoa-verify"), "-accesses", "8000", "-cores", "4")
		if strings.Count(out, "OK") != 4 {
			t.Errorf("verify output:\n%s", out)
		}
	})

	t.Run("trace", func(t *testing.T) {
		pztr := filepath.Join(dir, "t.pztr")
		run(t, bin("protozoa-trace"), "-dump", "-workload", "fft", "-cores", "4", "-scale", "1", "-o", pztr)
		out := run(t, bin("protozoa-trace"), "-info", pztr)
		if !strings.Contains(out, "4 cores") {
			t.Errorf("trace -info:\n%s", out)
		}
		out = run(t, bin("protozoa-trace"), "-run", pztr, "-protocol", "mesi")
		if !strings.Contains(out, "under MESI") {
			t.Errorf("trace -run:\n%s", out)
		}
	})

	t.Run("profile", func(t *testing.T) {
		out := run(t, bin("protozoa-profile"), "-cores", "4", "-workload", "canneal")
		if !strings.Contains(out, "true-shared") {
			t.Errorf("profile output:\n%s", out)
		}
	})

	t.Run("sweep", func(t *testing.T) {
		out := run(t, bin("protozoa-sweep"), "-workloads", "fft", "-protocols", "mesi",
			"-knobs", "baseline,crossbar", "-cores", "4")
		if strings.Count(out, "\n") != 3 { // header + 2 rows
			t.Errorf("sweep output:\n%s", out)
		}
	})

	t.Run("sweep-parallel-deterministic", func(t *testing.T) {
		// 2 workloads x 4 protocols x 3 regions = 24 cells; stdout must
		// be byte-identical at any -jobs width. "all,mesi" also pins the
		// duplicate-protocol fix: MESI must not be simulated twice.
		grid := []string{"-workloads", "swaptions,histogram", "-protocols", "all,mesi",
			"-regions", "32,64,128", "-cores", "4"}
		stdout := func(jobs string) string {
			cmd := exec.Command(bin("protozoa-sweep"), append(grid, "-jobs", jobs)...)
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
		out := run(t, bin("protozoa-sim"), "-workload", "histogram", "-cores", "4", "-scale", "1", "-attrib")
		for _, want := range []string{"attribution:", "top offenders", "util"} {
			if !strings.Contains(out, want) {
				t.Errorf("sim -attrib output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("sim-serve", func(t *testing.T) {
		cmd := exec.Command(bin("protozoa-sim"),
			"-workload", "histogram", "-cores", "16", "-scale", "60", "-serve", "127.0.0.1:0")
		cmd.Stdout = io.Discard
		addr := startServing(t, cmd, "protozoa-sim")
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
		cmd := exec.Command(bin("protozoa-sweep"),
			"-workloads", "histogram,swaptions", "-protocols", "all", "-cores", "4",
			"-serve", "127.0.0.1:0")
		cmd.Stdout = io.Discard
		addr := startServing(t, cmd, "protozoa-sweep")
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
		for _, tool := range []string{"protozoa-sim", "protozoa-sweep", "protozoa-figs",
			"protozoa-table1", "protozoa-verify"} {
			out := run(t, bin(tool), "-version")
			if !strings.Contains(out, "result-cache schema v") || !strings.Contains(out, "code stamp:") {
				t.Errorf("%s -version output:\n%s", tool, out)
			}
		}
	})

	t.Run("sim-self-prof", func(t *testing.T) {
		args := []string{"-workload", "histogram", "-cores", "4", "-scale", "1", "-workers", "2"}
		spOut := filepath.Join(dir, "selfprof.json")
		spTrace := filepath.Join(dir, "selfprof-trace.json")
		cmd := exec.Command(bin("protozoa-sim"), append(args,
			"-self-prof", "-self-prof-out", spOut, "-self-prof-trace", spTrace)...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("sim -self-prof: %v\n%s", err, stderr.String())
		}
		for _, want := range []string{"self-profile (pdes", "rounds", "queue:"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("self-prof summary missing %q:\n%s", want, stderr.String())
			}
		}
		var report struct {
			Mode   string            `json:"mode"`
			Rounds uint64            `json:"rounds"`
			Tiles  []json.RawMessage `json:"tiles"`
		}
		data, err := os.ReadFile(spOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &report); err != nil || report.Mode != "pdes" ||
			report.Rounds == 0 || len(report.Tiles) != 4 {
			t.Errorf("-self-prof-out report (%v): mode=%q rounds=%d tiles=%d",
				err, report.Mode, report.Rounds, len(report.Tiles))
		}
		var meta struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		data, err = os.ReadFile(spTrace)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &meta); err != nil || len(meta.TraceEvents) == 0 {
			t.Errorf("-self-prof-trace (%v, %d events)", err, len(meta.TraceEvents))
		}
		// The measurement report on stdout must be byte-identical with
		// the profiler off.
		plain := exec.Command(bin("protozoa-sim"), args...)
		base, err := plain.Output()
		if err != nil {
			t.Fatal(err)
		}
		if stdout.String() != string(base) {
			t.Error("-self-prof changed the stdout report")
		}
	})

	t.Run("sim-flight-inspect", func(t *testing.T) {
		// Record the same run at two worker counts: the flight logs must
		// be byte-identical, and inspect must validate and reconstruct
		// transactions whose phase dwells tile the total latency.
		logs := make([][]byte, 2)
		for i, w := range []string{"1", "2"} {
			path := filepath.Join(dir, "flight-w"+w+".pzfl")
			out := run(t, bin("protozoa-sim"), "-workload", "fft", "-cores", "4", "-scale", "1",
				"-workers", w, "-flight", path, "-flight-cap", "65536")
			if !strings.Contains(out, "flight recorder:") {
				t.Errorf("sim report missing the flight recorder line:\n%s", out)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			logs[i] = data
		}
		if string(logs[0]) != string(logs[1]) {
			t.Error("flight logs differ between -workers 1 and -workers 2")
		}
		log := filepath.Join(dir, "flight-w1.pzfl")
		out := run(t, bin("protozoa-inspect"), "-check", log)
		if !strings.HasPrefix(out, "ok:") || !strings.Contains(out, "(0 open)") {
			t.Errorf("inspect -check output:\n%s", out)
		}
		out = run(t, bin("protozoa-inspect"), "-summary", log)
		for _, want := range []string{"protocol    Protozoa-MW", "msg-send", "miss-start", "l1-state"} {
			if !strings.Contains(out, want) {
				t.Errorf("inspect -summary missing %q:\n%s", want, out)
			}
		}
		out = run(t, bin("protozoa-inspect"), "-last", "5", log)
		if !strings.Contains(out, "req-noc") || !strings.Contains(out, "GETS") {
			t.Errorf("inspect timeline output:\n%s", out)
		}
		// A region filter must yield a coherent single-region transcript.
		out = run(t, bin("protozoa-inspect"), "-records", "-last", "3", log)
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
		out = run(t, bin("protozoa-inspect"), "-records", "-region", region, log)
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
			args := append([]string{"-workload", "linear-regression", "-cores", "4", "-scale", "1",
				"-flight", path, "-flight-cap", "100000"}, extra...)
			out := run(t, bin("protozoa-sim"), args...)
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
		out := run(t, bin("protozoa-report"), "-cores", "4", "-scale", "1", "-workloads", "swaptions")
		if !strings.Contains(out, "# Protozoa reproduction report") ||
			!strings.Contains(out, "Headline geomeans") {
			t.Errorf("report output truncated")
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
