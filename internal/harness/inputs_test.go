package harness

import (
	"reflect"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/workloads"
)

// freshRun simulates one cell from inputs generated for it alone, with
// the observations Collect enables.
func freshRun(t *testing.T, workload string, cfg core.Config, o Options) *core.System {
	t.Helper()
	spec := workloads.MustGet(workload)
	sys, err := core.NewSystem(cfg, spec.StreamsSeeded(o.cores(), o.Scale, o.TraceSeed))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableAttribution()
	sys.EnableLatencyBreakdown()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestGridsMatchFreshBuilds checks that cells replaying shared inputs
// from two workers yield exactly what each cell yields from its own
// inputs: stats, miss-latency breakdowns and attribution in Collect,
// and every Table 1 cell.
func TestGridsMatchFreshBuilds(t *testing.T) {
	o := Options{Cores: 4, Scale: 1, Jobs: 2, TraceSeed: 3,
		Workloads: []string{"histogram", "swaptions"}}
	m, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range o.Workloads {
		for _, p := range core.AllProtocols {
			label := w + "/" + p.String()
			single, err := Run(w, p, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m.Get(w, p), single) {
				t.Errorf("%s: Collect stats differ from harness.Run", label)
			}
			cfg, err := cellConfig(p, o)
			if err != nil {
				t.Fatal(err)
			}
			sys := freshRun(t, w, cfg, o)
			if !reflect.DeepEqual(m.Get(w, p), sys.Stats()) {
				t.Errorf("%s: Collect stats differ from a fresh-input build", label)
			}
			if !reflect.DeepEqual(m.Breakdowns[w][p], sys.EnableLatencyBreakdown()) {
				t.Errorf("%s: Collect latency breakdown differs from a fresh-input build", label)
			}
			if got, want := m.Attribs[w][p], sys.Attribution(); !reflect.DeepEqual(got.Dump(), want.Dump()) ||
				got.Summarize() != want.Summarize() {
				t.Errorf("%s: Collect attribution differs from a fresh-input build", label)
			}
		}
	}

	t1, err := CollectTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range o.Workloads {
		for _, bs := range BlockSizes {
			cfg, err := table1Config(bs, o)
			if err != nil {
				t.Fatal(err)
			}
			st := freshRun(t, w, cfg, o).Stats()
			want := Table1Cell{MPKI: st.MPKI(), Inv: st.Invalidations, UsedPct: st.UsedPct()}
			if got := t1.Cells[w][bs]; got != want {
				t.Errorf("table1 %s@%dB: %+v, fresh-input build %+v", w, bs, got, want)
			}
		}
	}
}
