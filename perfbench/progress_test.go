package main

import (
	"strings"
	"testing"
	"time"

	"protozoa"
)

const goodProgress = `[1/3] barnes/MESI: ok (48213 events, 52ms)
[2/3] table1 canneal@16B: cached (0 events, 0s)
[3/3] fft/MW: FAIL: harness: fft/MW: core: deadlock (x) (7 events, 1.204s)
3 cells (1 failed, 1 cached), 48220 events, 91822310 simulated cycles, 1.3s wall on 2 jobs
[1/1] swaptions/SW: ok (10 events, 3ms)
1 cells (0 failed, 0 cached), 10 events, 500 simulated cycles, 3ms wall on 1 jobs
`

func TestParseProgress(t *testing.T) {
	grids, err := parseProgress(goodProgress)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 {
		t.Fatalf("%d grids, want 2", len(grids))
	}
	g := grids[0]
	if g.total != 3 || g.failed != 1 || g.cached != 1 || g.events != 48220 || g.simCycles != 91822310 || g.jobs != 2 || g.wall != 1300*time.Millisecond {
		t.Errorf("summary = %+v", g)
	}
	c := g.cells
	if c[0].label != "barnes/MESI" || c[0].wall != 52*time.Millisecond || c[0].events != 48213 || c[0].failed || c[0].cached {
		t.Errorf("cell 0 = %+v", c[0])
	}
	if c[1].label != "table1 canneal@16B" || !c[1].cached {
		t.Errorf("cell 1 = %+v", c[1])
	}
	if !c[2].failed || c[2].wall != 1204*time.Millisecond {
		t.Errorf("cell 2 = %+v", c[2])
	}
}

// TestParseProgressRejectsDrift: any change to the line shapes is an
// error, never a silent zero.
func TestParseProgressRejectsDrift(t *testing.T) {
	cases := map[string]string{
		"renamed field":      strings.Replace(goodProgress, "48213 events", "48213 evts", 1),
		"wall unit dropped":  strings.Replace(goodProgress, "52ms)", "52)", 1),
		"summary reworded":   strings.Replace(goodProgress, "simulated cycles", "sim cycles", 1),
		"missing summary":    strings.SplitAfter(goodProgress, "\n")[0],
		"count mismatch":     strings.Replace(goodProgress, "3 cells (1 failed", "4 cells (1 failed", 1),
		"unknown status":     strings.Replace(goodProgress, ": ok (", ": done (", 1),
		"extra line":         goodProgress + "progress: 50%\n",
		"bad duration value": strings.Replace(goodProgress, "3ms wall", "3xs wall", 1),
	}
	for name, in := range cases {
		if _, err := parseProgress(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseProgressLive parses what the runner really writes, so a
// format change in the repo fails here first.
func TestParseProgressLive(t *testing.T) {
	var buf lockedBuffer
	o := protozoa.Options{Cores: 4, Scale: 1, Workloads: []string{"swaptions"}, Jobs: 2, Progress: &buf}
	if _, err := protozoa.Collect(o); err != nil {
		t.Fatal(err)
	}
	if _, err := protozoa.CollectTable1(o); err != nil {
		t.Fatal(err)
	}
	grids, err := parseProgress(buf.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(grids) != 2 || grids[0].total != len(protozoa.Protocols()) || grids[1].total != len(table1Blocks) {
		t.Fatalf("grids = %+v", grids)
	}
	for _, g := range grids {
		if g.events == 0 || g.simCycles == 0 || g.jobs != 2 {
			t.Errorf("summary read zero: %+v", g)
		}
		for _, c := range g.cells {
			if c.failed || c.cached || c.events == 0 {
				t.Errorf("cell %+v", c)
			}
		}
	}
}
