package harness

// These tests assert the *shapes* of the paper's results on a reduced
// 4-core configuration: who wins, by roughly what factor, and where
// the crossovers fall. Absolute numbers differ from the paper (its
// substrate was a 16-core GEMS model over real binaries); the relative
// behaviour is what the reproduction must preserve.

import (
	"strings"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/stats"
)

var fast = Options{Cores: 4, Scale: 1}

// run simulates one workload under one protocol, as protozoa.Run does.
func run(workload string, p core.Protocol, o Options) (*stats.Stats, error) {
	sys, err := NewSystem(workload, p, o)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	return sys.Stats(), nil
}

// collectObserved is Collect with the report's views: each cell's
// attribution tracker and miss-latency breakdown.
func collectObserved(o Options) (*Matrix, error) { return collectMatrix(o, true) }

// collect builds the observed matrix (attribution and latency views
// included) over the fast configuration.
func collect(t *testing.T, names ...string) *Matrix {
	t.Helper()
	o := fast
	o.Workloads = names
	m, err := collectObserved(o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := run("nope", core.MESI, fast); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunBadCoreCount(t *testing.T) {
	o := fast
	o.Cores = 7
	if _, err := run("fft", core.MESI, o); err == nil {
		t.Error("unsupported core count accepted")
	}
}

func TestLinearRegressionHeadlineResult(t *testing.T) {
	// The paper's headline: Protozoa-MW eliminates the false sharing
	// that dominates linear-regression — up to 99% miss reduction and a
	// 2.2x speedup. At our scale, demand far better than 3x fewer
	// misses, >30% faster, and >3x fewer flit-hops.
	m := collect(t, "linear-regression")
	mesi := m.Get("linear-regression", core.MESI)
	mw := m.Get("linear-regression", core.ProtozoaMW)
	if mw.L1Misses*3 > mesi.L1Misses {
		t.Errorf("MW misses %d not << MESI %d", mw.L1Misses, mesi.L1Misses)
	}
	if float64(mw.ExecCycles) > 0.7*float64(mesi.ExecCycles) {
		t.Errorf("MW cycles %d not well below MESI %d", mw.ExecCycles, mesi.ExecCycles)
	}
	if mw.FlitHops*3 > mesi.FlitHops {
		t.Errorf("MW flit-hops %d not << MESI %d", mw.FlitHops, mesi.FlitHops)
	}
	// SW+MR sits between SW and MW (single writer still ping-pongs).
	swmr := m.Get("linear-regression", core.ProtozoaSWMR)
	if !(mw.L1Misses < swmr.L1Misses) {
		t.Errorf("MW misses %d not below SW+MR %d", mw.L1Misses, swmr.L1Misses)
	}
}

func TestLinearRegressionTrafficOrdering(t *testing.T) {
	// Traffic: MESI > SW > SW+MR > MW on the false-sharing workload.
	m := collect(t, "linear-regression")
	get := func(p core.Protocol) uint64 { return m.Get("linear-regression", p).TrafficTotal() }
	if !(get(core.MESI) > get(core.ProtozoaSW) &&
		get(core.ProtozoaSW) > get(core.ProtozoaSWMR) &&
		get(core.ProtozoaSWMR) > get(core.ProtozoaMW)) {
		t.Errorf("traffic ordering broken: MESI=%d SW=%d SW+MR=%d MW=%d",
			get(core.MESI), get(core.ProtozoaSW), get(core.ProtozoaSWMR), get(core.ProtozoaMW))
	}
}

func TestCannealUnusedDataShape(t *testing.T) {
	// canneal is the paper's worst used-data case under MESI (~16%);
	// Protozoa-SW eliminates most unused data.
	m := collect(t, "canneal")
	mesi := m.Get("canneal", core.MESI)
	sw := m.Get("canneal", core.ProtozoaSW)
	if mesi.UsedPct() > 30 {
		t.Errorf("canneal MESI used%% = %.1f, want low (< 30)", mesi.UsedPct())
	}
	if sw.UsedPct() < 1.5*mesi.UsedPct() {
		t.Errorf("SW used%% = %.1f not well above MESI %.1f", sw.UsedPct(), mesi.UsedPct())
	}
	if sw.UnusedDataBytes*2 > mesi.UnusedDataBytes {
		t.Errorf("SW unused %d not well below MESI %d", sw.UnusedDataBytes, mesi.UnusedDataBytes)
	}
}

func TestMatrixMultiplyNeutralShape(t *testing.T) {
	// Embarrassingly parallel + full locality: everything behaves like
	// MESI and nearly all data is used.
	m := collect(t, "matrix-multiply")
	mesi := m.Get("matrix-multiply", core.MESI)
	if mesi.UsedPct() < 90 {
		t.Errorf("matrix-multiply used%% = %.1f, want ~99", mesi.UsedPct())
	}
	for _, p := range core.AllProtocols {
		s := m.Get("matrix-multiply", p)
		if s.L1Misses != mesi.L1Misses {
			t.Errorf("%v misses %d != MESI %d on private workload", p, s.L1Misses, mesi.L1Misses)
		}
	}
	// No directory O-state churn (paper: no owned-state lookups).
	mw := m.Get("matrix-multiply", core.ProtozoaMW)
	if n := mw.DirOwnerOneOnly + mw.DirOwnerPlusSharers + mw.DirMultiOwner; n != 0 {
		t.Errorf("matrix-multiply had %d owned-state lookups, want 0", n)
	}
}

func TestHistogramFalseSharingShape(t *testing.T) {
	// The paper: histogram's miss rate drops 71% under MW while SW
	// cannot eliminate them (it may even add misses by underfetching).
	m := collect(t, "histogram")
	mesi := m.Get("histogram", core.MESI)
	sw := m.Get("histogram", core.ProtozoaSW)
	mw := m.Get("histogram", core.ProtozoaMW)
	if float64(mw.L1Misses) > 0.5*float64(mesi.L1Misses) {
		t.Errorf("MW misses %d not < 50%% of MESI %d", mw.L1Misses, mesi.L1Misses)
	}
	if sw.L1Misses < mw.L1Misses {
		t.Errorf("SW misses %d below MW %d; SW should not fix false sharing", sw.L1Misses, mw.L1Misses)
	}
	if mw.TrafficTotal() >= sw.TrafficTotal() {
		t.Errorf("MW traffic %d not below SW %d", mw.TrafficTotal(), sw.TrafficTotal())
	}
}

func TestStringMatchMultiOwner(t *testing.T) {
	// With 16 cores, adjacent flag words belong to different writers:
	// the paper reports >90% of O-state lookups finding >1 owner.
	o := Options{Cores: 16, Scale: 1, Workloads: []string{"string-match"}}
	st, err := run("string-match", core.ProtozoaMW, o)
	if err != nil {
		t.Fatal(err)
	}
	_, _, multi := st.OwnerMix()
	if multi < 50 {
		t.Errorf("string-match >1-owner lookups = %.1f%%, want majority", multi)
	}
}

func TestSwaptionsLowMissRate(t *testing.T) {
	m := collect(t, "swaptions")
	if mpki := m.Get("swaptions", core.MESI).MPKI(); mpki > 30 {
		t.Errorf("swaptions MESI MPKI = %.1f, want small working set (low)", mpki)
	}
}

func TestFigureRenderings(t *testing.T) {
	m := collect(t, "linear-regression", "canneal")
	for name, out := range map[string]string{
		"Fig9":  m.Fig9Traffic(),
		"Fig10": m.Fig10Control(),
		"Fig11": m.Fig11Owners(),
		"Fig12": m.Fig12BlockDist(),
		"Fig13": m.Fig13MPKI(),
		"Fig14": m.Fig14Exec(),
		"Fig15": m.Fig15FlitHops(),
	} {
		if len(out) == 0 {
			t.Errorf("%s: empty rendering", name)
			continue
		}
		if !strings.Contains(out, "canneal") {
			t.Errorf("%s: missing workload row:\n%s", name, out)
		}
	}
	if !strings.Contains(m.Fig10Control(), "NACK") {
		t.Error("Fig10 missing NACK column")
	}
	if !strings.Contains(m.Fig12BlockDist(), "7-8w") {
		t.Error("Fig12 missing bucket header")
	}
}

func TestFigMissClassRendering(t *testing.T) {
	m := collect(t, "linear-regression")
	out := m.FigMissClass()
	for _, want := range []string{"coherence", "granularity", "linear-."} {
		if !strings.Contains(out, want) {
			t.Errorf("FigMissClass missing %q:\n%s", want, out)
		}
	}
	// MESI's false-sharing misses must show up as coherence; MW's
	// coherence share must be far smaller in absolute terms.
	mesi := m.Get("linear-regression", core.MESI)
	mw := m.Get("linear-regression", core.ProtozoaMW)
	if mesi.MissesCoherence < mesi.L1Misses/2 {
		t.Errorf("MESI coherence misses %d of %d, want majority", mesi.MissesCoherence, mesi.L1Misses)
	}
	if mw.MissesCoherence*5 > mesi.MissesCoherence {
		t.Errorf("MW coherence misses %d not << MESI %d", mw.MissesCoherence, mesi.MissesCoherence)
	}
}

func TestNewWorkloadShapes(t *testing.T) {
	// h2 and radix: second-half workloads with MW wins. radix's
	// word-interleaved scatter needs the paper's 16 cores for its
	// false sharing to bite (at 4 cores each core owns two words per
	// region and trained fills span them).
	o := Options{Cores: 16, Scale: 1}
	for _, w := range []string{"h2", "radix"} {
		mesi, err := run(w, core.MESI, o)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := run(w, core.ProtozoaMW, o)
		if err != nil {
			t.Fatal(err)
		}
		if float64(mw.L1Misses) > 0.8*float64(mesi.L1Misses) {
			t.Errorf("%s: MW misses %d not well below MESI %d", w, mw.L1Misses, mesi.L1Misses)
		}
	}
}

func TestGeoMeanRatio(t *testing.T) {
	m := collect(t, "linear-regression", "matrix-multiply")
	r := m.GeoMeanRatio(core.ProtozoaMW, TrafficBytes)
	if r <= 0 || r >= 1 {
		t.Errorf("geomean traffic ratio = %.3f, want in (0,1)", r)
	}
	if rm := m.GeoMeanRatio(core.MESI, TrafficBytes); rm != 1 {
		t.Errorf("geomean MESI/MESI = %.3f, want 1", rm)
	}
}

func TestTable1Shapes(t *testing.T) {
	o := fast
	o.Workloads = []string{"matrix-multiply", "blackscholes"}
	res, err := CollectTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	// linear-regression needs the paper's 16 cores: at 64 bytes eight
	// threads' accumulators false-share each block.
	o16 := Options{Cores: 16, Scale: 1, Workloads: []string{"linear-regression"}}
	res16, err := CollectTable1(o16)
	if err != nil {
		t.Fatal(err)
	}
	lr := res16.Cells["linear-regression"]
	if lr[16].MPKI >= lr[64].MPKI {
		t.Errorf("linreg MPKI@16 %.1f not below @64 %.1f", lr[16].MPKI, lr[64].MPKI)
	}
	if got := res16.Optimal("linear-regression"); got != "16" {
		t.Errorf("linreg optimal = %s, want 16", got)
	}
	// matrix-multiply: coarse blocks exploit the streaming locality.
	mm := res.Cells["matrix-multiply"]
	if mm[64].MPKI >= mm[16].MPKI {
		t.Errorf("matmul MPKI@64 %.1f not below @16 %.1f", mm[64].MPKI, mm[16].MPKI)
	}
	if mm[64].UsedPct < 90 {
		t.Errorf("matmul used%%@64 = %.1f, want ~99", mm[64].UsedPct)
	}
	// blackscholes: sparse fields waste most of a 64-byte block.
	if bs := res.Cells["blackscholes"][64].UsedPct; bs > 45 {
		t.Errorf("blackscholes used%%@64 = %.1f, want low", bs)
	}
	out := res16.Render()
	if !strings.Contains(out, "linear-regression") || !strings.Contains(out, "optimal") {
		t.Errorf("Table 1 rendering incomplete:\n%s", out)
	}
}

func TestTrendNotation(t *testing.T) {
	cases := []struct {
		from, to float64
		want     string
	}{
		{100, 100, "~"}, {100, 105, "~"}, {100, 120, "^"}, {100, 140, "^^"},
		{100, 200, "^^^"}, {100, 85, "v"}, {100, 60, "vv"}, {100, 40, "vvv"},
		{0, 0, "~"}, {0, 5, "^^"},
	}
	for _, c := range cases {
		if got := trend(c.from, c.to); got != c.want {
			t.Errorf("trend(%v,%v) = %s, want %s", c.from, c.to, got, c.want)
		}
	}
}
