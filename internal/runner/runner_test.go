package runner

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/resultcache"
	"protozoa/internal/workloads"
)

// testGrid is a 24-cell grid (2 workloads x 4 protocols x 3 regions)
// small enough to run twice in a test yet wide enough that parallel
// completion order differs from cell order.
func testGrid() Grid {
	return Grid{
		Workloads: []string{"swaptions", "histogram"},
		Protocols: core.AllProtocols,
		Regions:   []int{32, 64, 128},
		Cores:     4,
		Scale:     1,
	}
}

// TestDeterministicAcrossJobs is the runner's core guarantee: the CSV
// a grid produces is byte-identical whether the cells run serially or
// on eight workers, because every cell owns its engine and stats.
func TestDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("24-cell grid x2 skipped in -short mode")
	}
	run := func(jobs int) []byte {
		cells, err := testGrid().Cells()
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 24 {
			t.Fatalf("grid expanded to %d cells, want 24", len(cells))
		}
		results, sum := Pool{Jobs: jobs}.Run(cells)
		if sum.Failed != 0 {
			t.Fatalf("jobs=%d: %d cells failed", jobs, sum.Failed)
		}
		if sum.Cells != 24 || sum.Events == 0 || sum.SimCycles == 0 {
			t.Fatalf("jobs=%d: implausible summary %+v", jobs, sum)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("CSV differs between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", serial, parallel)
	}
	if lines := strings.Count(string(serial), "\n"); lines != 25 { // header + 24 rows
		t.Errorf("CSV has %d lines, want 25", lines)
	}
}

// TestFailedCellKeepsOtherResults injects a mid-grid failure (a
// watchdog trip during simulation) and asserts the surviving cells'
// rows still come out — the regression test for protozoa sweep's old
// exit-without-flush loss.
func TestFailedCellKeepsOtherResults(t *testing.T) {
	g := testGrid()
	g.Workloads = []string{"swaptions"}
	g.Protocols = []core.Protocol{core.MESI}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("grid expanded to %d cells, want 3", len(cells))
	}
	spec, err := workloads.Get("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	cells[1].Build = func() (*core.System, error) {
		cfg := core.DefaultConfig(core.MESI)
		cfg.MaxEvents = 50 // trips the livelock watchdog almost immediately
		if err := ConfigureCores(&cfg, 4); err != nil {
			return nil, err
		}
		return core.NewSystem(cfg, spec.Records(4, 1, 0))
	}

	var progress bytes.Buffer
	results, sum := Pool{Jobs: 2, Progress: &progress}.Run(cells)
	if sum.Failed != 1 {
		t.Fatalf("summary.Failed = %d, want 1", sum.Failed)
	}
	if results[1].Err == nil || results[1].Stats != nil {
		t.Fatalf("injected cell: err=%v stats=%v", results[1].Err, results[1].Stats)
	}
	if !strings.Contains(results[1].Err.Error(), cells[1].Label) {
		t.Errorf("error %q does not name the failing cell %q", results[1].Err, cells[1].Label)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Stats == nil {
			t.Errorf("cell %d lost to a neighbour's failure: err=%v", i, results[i].Err)
		}
	}
	// The failed cell stopped at an arbitrary point, so its events must
	// not pollute the summary total (which feeds reproducible reports).
	if results[1].Events == 0 {
		t.Errorf("watchdog-tripped cell recorded no events; the injection is broken")
	}
	if want := results[0].Events + results[2].Events; sum.Events != want {
		t.Errorf("summary.Events = %d, want %d (successful cells only)", sum.Events, want)
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 { // header + 2 surviving rows
		t.Errorf("CSV has %d lines, want 3 (completed rows must survive a failure):\n%s", lines, buf.String())
	}
	if !strings.Contains(progress.String(), "FAIL") || !strings.Contains(progress.String(), "1 failed") {
		t.Errorf("progress stream missing failure report:\n%s", progress.String())
	}
}

// TestBuildErrorCaptured covers the other failure point: Build itself
// erroring (e.g. an invalid config) without aborting the pool.
func TestBuildErrorCaptured(t *testing.T) {
	boom := Cell{
		Label: "boom",
		Build: func() (*core.System, error) {
			var cfg core.Config
			return nil, ConfigureCores(&cfg, 3)
		},
	}
	results, sum := Pool{Jobs: 1}.Run([]Cell{boom})
	if sum.Failed != 1 || results[0].Err == nil {
		t.Fatalf("build error not captured: %+v", results[0])
	}
}

func TestPoolEmptyGrid(t *testing.T) {
	results, sum := Pool{}.Run(nil)
	if len(results) != 0 || sum.Cells != 0 || sum.Failed != 0 {
		t.Fatalf("empty grid: results=%v summary=%+v", results, sum)
	}
	// The pool's width is GOMAXPROCS here; the old clamp reported it as
	// zero on an empty grid.
	if sum.Jobs <= 0 {
		t.Errorf("empty grid reports Jobs = %d, want the pool width", sum.Jobs)
	}
}

// TestGridDeduplicatesWorkloads: a workload repeated on the command
// line used to duplicate every row it expands into.
func TestGridDeduplicatesWorkloads(t *testing.T) {
	g := testGrid()
	g.Workloads = []string{"histogram", " histogram", "swaptions", "histogram"}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 24 { // 2 distinct workloads x 4 protocols x 3 regions
		t.Fatalf("grid with duplicate workloads expanded to %d cells, want 24", len(cells))
	}
	if cells[0].Workload != "histogram" || cells[12].Workload != "swaptions" {
		t.Errorf("first-appearance order lost: %q then %q", cells[0].Workload, cells[12].Workload)
	}
}

// TestWriteCSVRejectsUnranCell: a result slot with neither stats nor an
// error (a cell that never ran) used to vanish from the CSV silently,
// misreporting the sweep as complete.
func TestWriteCSVRejectsUnranCell(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []Result{{Cell: Cell{Label: "ghost"}}})
	if err == nil {
		t.Fatal("WriteCSV accepted a cell with no stats and no error")
	}
	if !strings.Contains(err.Error(), "ghost") {
		t.Errorf("error %q does not name the cell", err)
	}
}

func TestGridValidatesUpfront(t *testing.T) {
	if _, err := (Grid{Workloads: []string{"no-such-workload"}}).Cells(); err == nil {
		t.Error("unknown workload not rejected")
	}
	if _, err := (Grid{Workloads: []string{"fft"}, Knobs: []string{"warp-drive"}}).Cells(); err == nil {
		t.Error("unknown knob not rejected")
	}
	if _, err := (Grid{Workloads: []string{"fft"}, Cores: 7}).Cells(); err == nil {
		t.Error("unsupported core count not rejected")
	}
}

// TestFailedCellNotCached: a failing cell over a cache directory writes
// no entry, so the next run over the directory simulates it again,
// while its successful neighbour is written once and then read.
func TestFailedCellNotCached(t *testing.T) {
	dir := t.TempDir()
	spec, err := workloads.Get("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(label string, maxEvents uint64) Cell {
		cfg := core.DefaultConfig(core.MESI)
		cfg.MaxEvents = maxEvents
		if err := ConfigureCores(&cfg, 4); err != nil {
			t.Fatal(err)
		}
		return Cell{
			Label: label,
			Key:   CellSpec{Config: cfg, Workload: spec.Name, Scale: 1}.Key(),
			Build: func() (*core.System, error) { return core.NewSystem(cfg, spec.Records(4, 1, 0)) },
		}
	}
	// 50 events trip the livelock watchdog almost immediately.
	cells := []Cell{cell("watchdog", 50), cell("ok", 0)}
	for run := 0; run < 2; run++ {
		cache, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		results, _ := Pool{Jobs: 1, Cache: cache}.Run(cells)
		if r := results[0]; r.Err == nil || r.Cached || r.Events == 0 {
			t.Fatalf("run %d: err=%v cached=%v events=%d; want a simulated failure",
				run, r.Err, r.Cached, r.Events)
		}
		if r := results[1]; r.Err != nil || r.Cached != (run == 1) {
			t.Fatalf("run %d: neighbour err=%v cached=%v", run, r.Err, r.Cached)
		}
		if entries, _ := filepath.Glob(filepath.Join(dir, "*", "*.pzc")); len(entries) != 1 {
			t.Fatalf("run %d: entries %v, want only the neighbour's", run, entries)
		}
	}
}
