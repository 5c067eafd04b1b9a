package harness

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/profile"
	"protozoa/internal/resultcache"
	"protozoa/internal/workloads"
)

func TestGenerateReport(t *testing.T) {
	var b strings.Builder
	o := Options{Cores: 4, Scale: 1, Workloads: []string{"swaptions", "histogram"}}
	if err := GenerateReport(o, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# Protozoa reproduction report",
		"Protocol verification",
		"quiescent scans: OK",
		"Section 2: sharing and locality profile",
		"Table 1: MESI vs fixed block size",
		"Figure 9: traffic breakdown",
		"Figure 15: interconnect energy",
		"Headline geomeans vs MESI",
		"Section 2 profile vs attribution: ",
		" mismatches.",
		"histogram",
		"swaptions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Every protocol verified.
	for _, p := range []string{"MESI", "Protozoa-SW", "Protozoa-SW+MR", "Protozoa-MW"} {
		if !strings.Contains(out, p) {
			t.Errorf("report missing protocol %s", p)
		}
	}
}

// TestReportProfilesTraceSeed pins the report's Section 2 table to the
// trace the rest of the report simulates: at a non-zero -seed its rows
// are the profiles of that seed's records, not of the canonical trace,
// and they reconcile with the seed's attribution.
func TestReportProfilesTraceSeed(t *testing.T) {
	o := Options{Cores: 4, Scale: 1, Workloads: []string{"apache", "canneal"}, TraceSeed: 5}
	var b strings.Builder
	if err := GenerateReport(o, &b); err != nil {
		t.Fatal(err)
	}
	want, seed0 := profile.SummaryHeader(), profile.SummaryHeader()
	for _, w := range o.Workloads {
		spec := workloads.MustGet(w)
		want += profile.Analyze(spec.Records(o.Cores, o.Scale, o.TraceSeed), mem.DefaultGeometry).SummaryRow(w)
		seed0 += profile.Analyze(spec.Records(o.Cores, o.Scale, 0), mem.DefaultGeometry).SummaryRow(w)
	}
	if want == seed0 {
		t.Fatal("seed 5 profiles equal seed 0's; the test cannot tell the traces apart")
	}
	out := b.String()
	if !strings.Contains(out, "sharing and locality profile\n\n```\n"+want+"```") {
		t.Errorf("Section 2 rows are not seed %d's profiles; want\n%s\nin\n%s", o.TraceSeed, want, out)
	}
	if !strings.Contains(out, " 0 mismatches.") {
		t.Errorf("seed %d profile does not reconcile with its attribution:\n%s", o.TraceSeed, out)
	}
}

// TestReportSimulatesEachCellOnce: the report is one pool run in which
// no two cells share a cache key, and its Table 1 matches
// CollectTable1's though its 64-byte column is the figures' MESI cell.
// Over a fresh cache directory, a repeated key would show as a cached
// cell (a later repeat reads the entry the first one wrote) and as
// fewer entries than cacheable cells, whichever cell comes first.
func TestReportSimulatesEachCellOnce(t *testing.T) {
	dir := t.TempDir()
	cache, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	o := Options{Cores: 4, Scale: 1, Jobs: 1, Workloads: []string{"swaptions", "histogram"},
		Cache: cache, Progress: &progress}
	var report strings.Builder
	if err := GenerateReport(o, &report); err != nil {
		t.Fatal(err)
	}
	// 4 tester cells, then per workload 4 figure and 3 Table 1 cells.
	sums := regexp.MustCompile(`(?m)^(\d+) cells \(.*$`).FindAllStringSubmatch(progress.String(), -1)
	if len(sums) != 1 || !strings.HasPrefix(sums[0][0], "18 cells (0 failed, 0 cached)") {
		t.Fatalf("report grid summaries %q, want one of 18 cells, none cached", sums)
	}
	// The 4 tester cells have no key; every other cell writes its own
	// entry.
	cells, _ := strconv.Atoi(sums[0][1])
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.pzc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != cells-4 {
		t.Errorf("report wrote %d cache entries for %d workload cells", len(entries), cells-4)
	}
	o.Cache, o.Progress = nil, nil
	t1, err := CollectTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "```\n"+t1.Render()+"```") {
		t.Errorf("report's Table 1 differs from CollectTable1's:\n%s", t1.Render())
	}
}

func TestVerifyProtocolRejectsBadCores(t *testing.T) {
	var b strings.Builder
	err := GenerateReport(Options{Cores: 7, Scale: 1, Workloads: []string{"swaptions"}}, &b)
	if err == nil || b.Len() > 0 {
		t.Errorf("bad core count: error %v, %d bytes written", err, b.Len())
	}
}
