package protozoa_test

import (
	"strings"
	"testing"

	"protozoa"
)

func TestPublicRun(t *testing.T) {
	o := protozoa.Options{Cores: 4, Scale: 1}
	st, err := protozoa.Run("linear-regression", protozoa.ProtozoaMW, o)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses == 0 || st.ExecCycles == 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestPublicWorkloadCatalog(t *testing.T) {
	names := protozoa.WorkloadNames()
	specs := protozoa.Workloads()
	if len(names) != 28 || len(specs) != len(names) {
		t.Fatalf("catalog sizes: %d names, %d specs", len(names), len(specs))
	}
	for i, s := range specs {
		if s.Name != names[i] || s.Suite == "" || s.About == "" {
			t.Errorf("spec %d incomplete: %+v", i, s)
		}
	}
}

func TestPublicProtocols(t *testing.T) {
	ps := protozoa.Protocols()
	if len(ps) != 4 || ps[0] != protozoa.MESI || ps[3] != protozoa.ProtozoaMW {
		t.Errorf("Protocols() = %v", ps)
	}
	if !strings.Contains(protozoa.ProtozoaSWMR.String(), "SW+MR") {
		t.Errorf("SW+MR name = %s", protozoa.ProtozoaSWMR)
	}
}

func TestPublicCustomTrace(t *testing.T) {
	// The Figure 1 counter example through the public API: two cores
	// increment adjacent words; under Protozoa-MW there are no
	// invalidations after warm-up.
	cfg := protozoa.DefaultSystemConfig(protozoa.ProtozoaMW)
	cfg.Cores = 16
	perCore := make([][]protozoa.Access, cfg.Cores)
	for c := range perCore {
		var recs []protozoa.Access
		addr := protozoa.Addr(0x8000 + c*8)
		for i := 0; i < 100; i++ {
			recs = append(recs, protozoa.Access{Kind: protozoa.Store, Addr: addr, PC: 0x10})
		}
		perCore[c] = recs
	}
	sys, err := protozoa.NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Stores != 1600 {
		t.Errorf("stores = %d, want 1600", sys.Stats().Stores)
	}
}

func TestPublicCollectRendersFigures(t *testing.T) {
	o := protozoa.Options{Cores: 4, Scale: 1, Workloads: []string{"swaptions"}}
	m, err := protozoa.Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	if out := m.Fig13MPKI(); !strings.Contains(out, "swaptions") {
		t.Errorf("Fig13 missing workload:\n%s", out)
	}
}

func TestPublicProfile(t *testing.T) {
	r, err := protozoa.Profile("matrix-multiply", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accesses == 0 || r.FootprintPct() < 90 {
		t.Errorf("profile = %+v", r)
	}
	if _, err := protozoa.Profile("nope", 4, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPublicEnergyModel(t *testing.T) {
	st, err := protozoa.Run("fft", protozoa.MESI, protozoa.Options{Cores: 4, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := protozoa.DefaultEnergyModel().Estimate(st)
	if e.Total() <= 0 || e.NetworkNJ <= 0 {
		t.Errorf("energy = %+v", e)
	}
}

func TestPublicTable1(t *testing.T) {
	o := protozoa.Options{Cores: 4, Scale: 1, Workloads: []string{"word-count"}}
	res, err := protozoa.CollectTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Render(); !strings.Contains(out, "word-count") {
		t.Errorf("Table1 missing workload:\n%s", out)
	}
}
