package harness

import (
	"strings"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/obs/attrib"
)

func collectAttribMatrix(t *testing.T, workloads []string) *Matrix {
	t.Helper()
	m, err := Collect(Options{Cores: 4, Scale: 1, Workloads: workloads})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAdaptiveUtilizationBeatsMESI is the ISSUE's acceptance check:
// on a false-sharing-heavy and a sparse-access workload, every
// adaptive protocol's fill utilization strictly exceeds the MESI
// baseline — fetching only predicted-useful words must waste less.
func TestAdaptiveUtilizationBeatsMESI(t *testing.T) {
	m := collectAttribMatrix(t, []string{"linear-regression", "blackscholes"})
	for _, w := range m.Workloads {
		base := m.Attribs[w][core.MESI]
		if base == nil {
			t.Fatalf("%s: no MESI tracker", w)
		}
		if err := base.Reconcile(); err != nil {
			t.Fatalf("%s/MESI: %v", w, err)
		}
		for _, p := range []core.Protocol{core.ProtozoaSW, core.ProtozoaSWMR, core.ProtozoaMW} {
			tr := m.Attribs[w][p]
			if tr == nil {
				t.Fatalf("%s/%s: no tracker", w, p)
			}
			if err := tr.Reconcile(); err != nil {
				t.Errorf("%s/%s: %v", w, p, err)
			}
			if tr.UtilPct() <= base.UtilPct() {
				t.Errorf("%s: %s utilization %.1f%% not above MESI %.1f%%",
					w, p, tr.UtilPct(), base.UtilPct())
			}
		}
	}
}

// TestAttributionTablesRender sanity-checks the three report renderers
// on a small matrix: every protocol row appears, the utilization grid
// covers every workload, and the offender table is non-empty for MESI
// (whose fixed-granularity fills always waste something here).
func TestAttributionTablesRender(t *testing.T) {
	m := collectAttribMatrix(t, []string{"histogram"})

	summary := m.AttributionSummary()
	for _, p := range m.Protocols {
		if !strings.Contains(summary, p.String()) {
			t.Errorf("AttributionSummary missing %s:\n%s", p, summary)
		}
	}
	for _, col := range []string{"util", "wasted-B", "false-shared"} {
		if !strings.Contains(summary, col) {
			t.Errorf("AttributionSummary missing column %q:\n%s", col, summary)
		}
	}

	grid := m.UtilizationTable()
	if !strings.Contains(grid, "histogram") {
		t.Errorf("UtilizationTable missing workload row:\n%s", grid)
	}

	offenders := m.TopOffendersTable(core.MESI, 5)
	lines := strings.Count(strings.TrimSpace(offenders), "\n")
	if lines < 1 || lines > 5 {
		t.Errorf("TopOffendersTable want 1..5 data rows, got %d:\n%s", lines, offenders)
	}
	if !strings.Contains(offenders, "histogram") {
		t.Errorf("TopOffendersTable rows not labelled by workload:\n%s", offenders)
	}
}

// TestRenderAttributionSingleRun covers the single-cell renderer the
// sim driver uses for -attrib.
func TestRenderAttributionSingleRun(t *testing.T) {
	tr := attrib.New(2)
	tr.Access(0, 7, 0, true)
	tr.Fill(0, 7, 8)
	tr.Death(0, 7, attrib.Footprint{}, 1, 8)
	out := RenderAttribution(tr, 5)
	for _, want := range []string{"util 12.5%", "top offenders", "private"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAttribution missing %q:\n%s", want, out)
		}
	}
}
