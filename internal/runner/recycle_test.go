package runner_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/harness"
	"protozoa/internal/recycle"
	"protozoa/internal/runner"
	"protozoa/internal/workloads"
)

// freshEnv marks a test binary re-executed by runFresh; its value is
// the child's output file, "" when the test writes none.
const freshEnv = "PROTOZOA_FRESH_PROCESS"

// runFresh re-executes the test binary to run one test alone in a new
// process, whose storage pools start empty, and returns what the child
// wrote to its output file.
func runFresh(t *testing.T, test string) []byte {
	t.Helper()
	path := t.TempDir() + "/fresh.out"
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$", "-test.v")
	cmd.Env = append(os.Environ(), freshEnv+"="+path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s in a fresh process: %v\n%s", test, err, out)
	}
	t.Logf("%s in a fresh process:\n%s", test, out)
	data, _ := os.ReadFile(path)
	return data
}

// checkedGrid runs random-tester cells, each watched by a
// core.Checker, under MESI and Protozoa-MW at 16 B and 64 B regions,
// with four L2 regions per tile so inclusion recalls drop directory
// entries and later regions reuse their arena positions. It fails the
// test on any checker violation: an L2 word that a recycled word chunk
// or a dropped entry kept would reach a load that expects the golden
// value. It returns each cell's outcome and traffic. The random records
// use the same PCs at every seed, so a spatial predictor table drawn
// without its clear changes what a later grid's misses fetch.
func checkedGrid(t *testing.T, seed uint64) string {
	t.Helper()
	var cells []runner.Cell
	var chks []*core.Checker
	for _, p := range []core.Protocol{core.MESI, core.ProtozoaMW} {
		for _, rb := range []int{16, 64} {
			cfg := core.DefaultConfig(p)
			cfg.RegionBytes = rb
			cfg.L2RegionsPerTile = 4
			if err := runner.ConfigureCores(&cfg, 4); err != nil {
				t.Fatal(err)
			}
			i := len(chks)
			chks = append(chks, nil)
			cells = append(cells, runner.Cell{
				Label: fmt.Sprintf("checked/%v/r%d", p, rb),
				Build: func() (*core.System, error) {
					return core.NewSystem(cfg, workloads.RandomRecords(4, 1500, 48, 30, seed))
				},
				Observe: func(sys *core.System) { chks[i] = core.NewChecker(sys) },
			})
		}
	}
	results, _ := runner.Pool{Jobs: 2}.Run(cells)
	var out bytes.Buffer
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if err := chks[i].Err(); err != nil {
			t.Fatalf("%s: %v", r.Cell.Label, err)
		}
		st := r.Stats
		fmt.Fprintf(&out, "%s: %d loads checked, %d scans, %d misses, %d recalls, %d memory writebacks, %d words in, %d messages\n",
			r.Cell.Label, chks[i].Loads, chks[i].Checks, st.L1Misses, st.Recalls, st.MemWritebacks, st.DataWordsIn, st.Messages)
		if st.Recalls == 0 {
			t.Errorf("%s: no inclusion recall, so no entry was dropped", r.Cell.Label)
		}
	}
	return out.String()
}

// secondGrid runs the grid TestRecycledStorageDoesNotLeak compares:
// the sweep CSV of Protozoa-MW and MESI at 64 B and MESI at 16 B, the
// figures and Table 1, over workloads the first grid did not run, and
// the checked random-tester grid at a seed the first did not use.
func secondGrid(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	out.WriteString(checkedGrid(t, 2))
	names := []string{"histogram", "swaptions"}
	for _, g := range []runner.Grid{
		{Workloads: names, Protocols: []core.Protocol{core.ProtozoaMW, core.MESI}, Regions: []int{64}},
		{Workloads: names, Protocols: []core.Protocol{core.MESI}, Regions: []int{16}},
	} {
		g.Cores, g.Scale = 4, 1
		cells, err := g.Cells()
		if err != nil {
			t.Fatal(err)
		}
		results, _ := runner.Pool{Jobs: 2}.Run(cells)
		if err := runner.WriteCSV(&out, results); err != nil {
			t.Fatal(err)
		}
	}
	o := harness.Options{Cores: 4, Scale: 1, Jobs: 2, Workloads: names}
	m, err := harness.Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []func() string{m.Fig9Traffic, m.Fig10Control, m.Fig11Owners,
		m.Fig12BlockDist, m.Fig13MPKI, m.Fig14Exec, m.Fig15FlitHops, m.FigMissClass} {
		out.WriteString(fig())
	}
	t1, err := harness.CollectTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(t1.Render())
	return out.Bytes()
}

// TestRecycledStorageDoesNotLeak runs one grid with every released
// machine's storage poisoned, then a second, different grid in the
// same process, and requires the second grid's output to equal a fresh
// process's byte for byte: storage a machine draws from the pools must
// carry nothing over from the machines that used it before. It also
// checks that the pool released every machine it built.
func TestRecycledStorageDoesNotLeak(t *testing.T) {
	if path := os.Getenv(freshEnv); path != "" {
		if err := os.WriteFile(path, secondGrid(t), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		t.Skip("three grids and a re-executed test binary skipped in -short mode")
	}
	recycle.Poison.Store(true)
	defer recycle.Poison.Store(false)

	// The first grids dirty every kind of pooled storage: Amoeba sets
	// grown by adaptive fills, spatial predictor tables trained on the
	// random records' PCs, directory arenas, word stores and indexes,
	// miss classifier tables, message free lists, at two region sizes.
	checkedGrid(t, 1)
	cells, err := runner.Grid{Workloads: []string{"canneal", "fft"}, Regions: []int{16, 64},
		Cores: 4, Scale: 1}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var machines []*core.System
	for i := range cells {
		cells[i].AfterRun = func(sys *core.System) { machines = append(machines, sys) }
	}
	results, _ := runner.Pool{Jobs: 1}.Run(cells)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("first grid: %v", r.Err)
		}
	}
	if len(machines) != len(cells) {
		t.Fatalf("AfterRun saw %d machines, want %d", len(machines), len(cells))
	}
	for _, sys := range machines {
		if !panics(func() { sys.Run() }) {
			t.Fatal("running a machine the pool released did not panic")
		}
		if !panics(func() { sys.L2Word(0, 0) }) {
			t.Fatal("reading a machine the pool released did not panic")
		}
	}

	got := secondGrid(t)
	if want := runFresh(t, "TestRecycledStorageDoesNotLeak"); !bytes.Equal(got, want) {
		t.Errorf("the second grid differs from a fresh process's:\n%s\n--- fresh:\n%s", got, want)
	}
}

func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestSecondCellReusesStorage is the allocation guard: of two identical
// cells run one after the other through one pool, the second must
// allocate under a tenth of the first's bytes, because it builds its
// machine from the storage the first released. It runs in a fresh
// process, so the first cell finds the pools empty.
func TestSecondCellReusesStorage(t *testing.T) {
	if os.Getenv(freshEnv) == "" {
		runFresh(t, "TestSecondCellReusesStorage")
		return
	}
	cfg := core.DefaultConfig(core.ProtozoaMW)
	if err := runner.ConfigureCores(&cfg, 4); err != nil {
		t.Fatal(err)
	}
	recs := workloads.MustGet("canneal").Records(4, 1, 0)
	cell := runner.Cell{Build: func() (*core.System, error) { return core.NewSystem(cfg, recs) }}
	cell.Label = "first"
	second := cell
	second.Label = "second"

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	marks := []uint64{ms.TotalAlloc}
	pool := runner.Pool{Jobs: 1, OnResult: func(runner.Result) {
		runtime.ReadMemStats(&ms)
		marks = append(marks, ms.TotalAlloc)
	}}
	if _, sum := pool.Run([]runner.Cell{cell, second}); sum.Failed != 0 {
		t.Fatal("a cell failed")
	}
	first, again := marks[1]-marks[0], marks[2]-marks[1]
	t.Logf("first cell allocated %d bytes, the second %d", first, again)
	if again*10 >= first {
		t.Errorf("the second cell allocated %d bytes, want under a tenth of the first's %d", again, first)
	}
}
