package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s; run with -update if intentional\n%s", path, firstDiff(got, want))
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return "(same lines)"
}

const reportGolden = "testdata/report.golden"

// TestReportGolden pins the whole reproduction report at the paper's
// configuration (DefaultOptions: 16 cores, scale 2, canonical traces):
// the random tester, the Section 2 profile, Table 1, every figure, the
// latency and attribution views and the headline geomeans. Regenerate
// with `make golden` only after an intentional change to the simulated
// machine or the report; the diff then shows exactly which numbers
// moved. The race pass runs the same grid over two workloads
// (TestGenerateReport, TestReportSimulatesEachCellOnce), so -race
// skips the full one.
func TestReportGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("plain pass only: the race pass runs the report's grid over fewer workloads")
	}
	var b bytes.Buffer
	if err := GenerateReport(DefaultOptions(), &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, reportGolden, b.Bytes())
}

// TestExperimentsHeadlineMatchesReport keeps EXPERIMENTS.md's headline
// table honest: every Measured cell that a report row covers must read
// exactly what the report golden's "Headline geomeans vs MESI" table
// reads (the doc writes minus as U+2212 and may bold a cell).
func TestExperimentsHeadlineMatchesReport(t *testing.T) {
	golden, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	// report[metric][protocol] from the golden's headline table.
	report := map[string]map[string]string{}
	cols := []string{"SW", "SW+MR", "MW"}
	for _, row := range tableRows(t, golden, "## Headline geomeans vs MESI") {
		if len(row) != 1+len(cols) {
			t.Fatalf("report headline row %q: want %d cells", row, 1+len(cols))
		}
		report[row[0]] = map[string]string{}
		for i, p := range cols {
			report[row[0]][p] = row[1+i]
		}
	}
	measured := map[string]string{}
	for _, row := range tableRows(t, doc, "## Headline comparison") {
		if len(row) != 3 {
			t.Fatalf("EXPERIMENTS.md headline row %q: want 3 cells", row)
		}
		measured[row[0]] = row[2]
	}
	for _, c := range []struct {
		doc, metric string
		protocols   []string
	}{
		{"Traffic, Protozoa-SW", "traffic", []string{"SW"}},
		{"Traffic, Protozoa-SW+MR", "traffic", []string{"SW+MR"}},
		{"Traffic, Protozoa-MW", "traffic", []string{"MW"}},
		{"Flit-hops (energy), SW", "flit-hops", []string{"SW"}},
		{"Flit-hops, SW+MR", "flit-hops", []string{"SW+MR"}},
		{"Flit-hops, MW", "flit-hops", []string{"MW"}},
		{"Miss rate, SW", "misses", []string{"SW"}},
		{"Miss rate, SW+MR / MW", "misses", []string{"SW+MR", "MW"}},
		{"Execution time, MW", "execution time", []string{"MW"}},
	} {
		got, ok := measured[c.doc]
		if !ok {
			t.Errorf("EXPERIMENTS.md headline table lacks the row %q", c.doc)
			continue
		}
		var want []string
		for _, p := range c.protocols {
			v, ok := report[c.metric][p]
			if !ok {
				t.Fatalf("report golden headline lacks %s/%s", c.metric, p)
			}
			want = append(want, v)
		}
		got = strings.NewReplacer("−", "-", "*", "").Replace(got)
		if w := strings.Join(want, " / "); got != w {
			t.Errorf("EXPERIMENTS.md %q reads %q, the report golden %q", c.doc, got, w)
		}
	}
}

// tableRows returns the cells of the markdown table that follows the
// heading line in text, header and separator rows dropped.
func tableRows(t *testing.T, text []byte, heading string) [][]string {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(text))
	found, seen := false, 0
	var rows [][]string
	for sc.Scan() {
		line := sc.Text()
		if !found {
			found = line == heading
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if seen > 0 {
				break
			}
			continue
		}
		if seen++; seen <= 2 {
			continue // header and separator
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		rows = append(rows, cells)
	}
	if len(rows) == 0 {
		t.Fatalf("no table under %q", heading)
	}
	return rows
}
