package runner

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"protozoa/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestSweepCSVGolden pins the sweep CSV byte-for-byte: schema order,
// number formatting, and the miss-latency percentile columns. The
// simulator is deterministic, so any drift here is a real output
// change — regenerate deliberately with `go test -run Golden -update`.
func TestSweepCSVGolden(t *testing.T) {
	g := Grid{
		Workloads: []string{"histogram"},
		Protocols: []core.Protocol{core.MESI, core.ProtozoaMW},
		Regions:   []int{64},
		Cores:     4,
		Scale:     1,
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, sum := Pool{Jobs: 1}.Run(cells)
	if sum.Failed != 0 {
		t.Fatalf("%d cells failed", sum.Failed)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}

	checkGolden(t, filepath.Join("testdata", "sweep_golden.csv"), buf.Bytes())
}

// TestSuiteSweepGolden pins the 28-workload x 4-protocol sweep at 16
// cores and scale 2, the CSV of `protozoa sweep -workloads "" -scale 2`:
// every suite cell's misses, traffic, flit-hops, execution time,
// latency percentiles and attribution columns. Regenerate with `make
// golden` only after an intentional change to the simulated machine.
// Its cells share inputs exactly as TestMachinesShareRecords' do, which
// the race pass runs, so -race skips it.
func TestSuiteSweepGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("plain pass only: the grid's sharing is covered by TestMachinesShareRecords")
	}
	cells, err := Grid{Scale: 2}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, sum := Pool{}.Run(cells)
	if sum.Failed != 0 {
		t.Fatalf("%d cells failed", sum.Failed)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "sweep_suite.golden.csv"), buf.Bytes())
}

// TestMicroSweepGolden pins the microbenchmark sweep at 16 cores, the
// CSV of `protozoa sweep -workloads micro-atomic-counter,
// micro-barrier-skew,micro-producer-consumer,micro-ticket-lock
// -protocols all`. Regenerate with `make golden` only after an
// intentional change to the simulated machine.
func TestMicroSweepGolden(t *testing.T) {
	cells, err := Grid{Workloads: []string{"micro-atomic-counter", "micro-barrier-skew",
		"micro-producer-consumer", "micro-ticket-lock"}}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, sum := Pool{}.Run(cells)
	if sum.Failed != 0 {
		t.Fatalf("%d cells failed", sum.Failed)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "sweep_micro.golden.csv"), buf.Bytes())
}

// checkGolden compares got with the golden file at path, rewriting the
// file first under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("CSV drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestSweepCSVLatencyColumns checks the percentile columns are present,
// ordered p50 <= p95 <= p99, and consistent with the cell's stats.
func TestSweepCSVLatencyColumns(t *testing.T) {
	g := Grid{
		Workloads: []string{"histogram"},
		Protocols: []core.Protocol{core.MESI},
		Regions:   []int{64},
		Cores:     4,
		Scale:     1,
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, sum := Pool{Jobs: 1}.Run(cells)
	if sum.Failed != 0 {
		t.Fatalf("%d cells failed", sum.Failed)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, name := range []string{"miss_lat_p50", "miss_lat_p95", "miss_lat_p99"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("header missing %s: %v", name, rows[0])
		}
	}
	row := rows[1]
	p50, _ := strconv.ParseUint(row[col["miss_lat_p50"]], 10, 64)
	p95, _ := strconv.ParseUint(row[col["miss_lat_p95"]], 10, 64)
	p99, _ := strconv.ParseUint(row[col["miss_lat_p99"]], 10, 64)
	if p50 == 0 || p50 > p95 || p95 > p99 {
		t.Errorf("percentiles not ordered: p50=%d p95=%d p99=%d", p50, p95, p99)
	}
	st := results[0].Stats
	if p50 != st.MissLatencyP(50) || p95 != st.MissLatencyP(95) || p99 != st.MissLatencyP(99) {
		t.Errorf("CSV percentiles disagree with stats: %d/%d/%d vs %d/%d/%d",
			p50, p95, p99, st.MissLatencyP(50), st.MissLatencyP(95), st.MissLatencyP(99))
	}
}

// TestSweepCSVAttributionColumns checks the attribution columns render
// sane values consistent with the cell's tracker, and that a result
// without a tracker leaves them empty rather than zero (so rows from
// attribution-free runs are distinguishable from perfectly-utilized
// ones).
func TestSweepCSVAttributionColumns(t *testing.T) {
	g := Grid{
		Workloads: []string{"histogram"},
		Protocols: []core.Protocol{core.MESI},
		Regions:   []int{64},
		Cores:     4,
		Scale:     1,
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, sum := Pool{Jobs: 1}.Run(cells)
	if sum.Failed != 0 {
		t.Fatalf("%d cells failed", sum.Failed)
	}
	if results[0].Attrib == nil {
		t.Fatal("grid cell ran without an attribution tracker")
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, name := range []string{"util_pct", "wasted_bytes", "false_shared_regions"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("header missing %s: %v", name, rows[0])
		}
	}
	row := rows[1]
	tr := results[0].Attrib
	util, err := strconv.ParseFloat(row[col["util_pct"]], 64)
	if err != nil {
		t.Fatalf("util_pct %q: %v", row[col["util_pct"]], err)
	}
	if util <= 0 || util > 100 {
		t.Errorf("util_pct %v out of range", util)
	}
	wasted, _ := strconv.ParseUint(row[col["wasted_bytes"]], 10, 64)
	if wasted != tr.WastedBytes() {
		t.Errorf("wasted_bytes %d disagrees with tracker %d", wasted, tr.WastedBytes())
	}
	fs, _ := strconv.ParseUint(row[col["false_shared_regions"]], 10, 64)
	if fs != tr.FalseSharedRegions() {
		t.Errorf("false_shared_regions %d disagrees with tracker %d", fs, tr.FalseSharedRegions())
	}

	// A row whose cell ran without attribution renders the columns empty.
	bare := results[0]
	bare.Attrib = nil
	got := CSVRow(bare)
	for _, idx := range []int{col["util_pct"], col["wasted_bytes"], col["false_shared_regions"]} {
		if got[idx] != "" {
			t.Errorf("column %d = %q without a tracker, want empty", idx, got[idx])
		}
	}
	if len(got) != len(CSVHeader) {
		t.Errorf("row has %d fields, header %d", len(got), len(CSVHeader))
	}
}
