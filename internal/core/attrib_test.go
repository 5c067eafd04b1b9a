package core

import (
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/trace"
)

// TestAttributionReconciles is the tentpole's accounting invariant,
// mirroring the miss-latency reconciliation discipline: with the
// tracker enabled, every fetched word is classified used or unused
// exactly once, and the attribution's invalidation/upgrade counts
// equal the stats counters — globally and per core.
func TestAttributionReconciles(t *testing.T) {
	type variant struct {
		name string
		cfg  func() Config
	}
	variants := []variant{}
	for _, p := range AllProtocols {
		p := p
		variants = append(variants, variant{p.String(), func() Config { return testConfig(p, 4) }})
	}
	// Inclusion recalls invalidate without a requesting core: they must
	// land in RecallInvalidations, not on core 0.
	variants = append(variants, variant{"mw-recall-3hop", func() Config {
		cfg := testConfig(ProtozoaMW, 4)
		cfg.ThreeHop = true
		cfg.L2RegionsPerTile = 4
		return cfg
	}})
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg()
			perCore := randomStreams(4, 800, 10, 40, 13)
			streams := make([]trace.Stream, 4)
			for i := range streams {
				streams[i] = trace.NewSliceStream(perCore[i])
			}
			sys, err := NewSystem(cfg, streams)
			if err != nil {
				t.Fatal(err)
			}
			tr := sys.EnableAttribution()
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			st := sys.Stats()

			if err := tr.Reconcile(); err != nil {
				t.Error(err)
			}
			if tr.FetchedWords == 0 {
				t.Fatal("tracker saw no fills")
			}
			if tr.Invalidations != st.Invalidations {
				t.Errorf("attrib invalidations %d != stats %d", tr.Invalidations, st.Invalidations)
			}
			for c := range st.PerCore {
				if tr.InvByVictim[c] != st.PerCore[c].Invalidations {
					t.Errorf("core %d: attrib victim invalidations %d != stats %d",
						c, tr.InvByVictim[c], st.PerCore[c].Invalidations)
				}
			}
			// Every reference is folded into the tracker exactly once,
			// and a read after the run folds nothing more.
			sys.foldAttribution()
			var refs uint64
			for _, ri := range tr.Regions() {
				refs += ri.Accesses
			}
			if refs != st.Accesses {
				t.Errorf("attrib counts %d references, stats %d accesses", refs, st.Accesses)
			}
			if tr.Upgrades != st.UpgradeMisses {
				t.Errorf("attrib upgrades %d != stats upgrade misses %d", tr.Upgrades, st.UpgradeMisses)
			}
			var byOffender uint64
			for _, n := range tr.InvByOffender {
				byOffender += n
			}
			if byOffender+tr.RecallInvalidations != tr.Invalidations {
				t.Errorf("offender attribution %d + recalls %d != invalidations %d",
					byOffender, tr.RecallInvalidations, tr.Invalidations)
			}
			// Pattern counts partition the region population.
			var patterns uint64
			for _, n := range tr.PatternCounts() {
				patterns += n
			}
			if patterns != uint64(tr.RegionCount()) {
				t.Errorf("pattern counts sum %d != %d regions", patterns, tr.RegionCount())
			}
		})
	}
}

// TestAttributionRecallsNotBlamedOnCore0 pins the Requester=-1 recall
// fix: with a tiny L2 forcing inclusion recalls, the recall bucket
// must absorb them (under MESI a recall INV always extracts whole
// regions, so recalls reaching a sharer are guaranteed to count).
func TestAttributionRecallsNotBlamedOnCore0(t *testing.T) {
	cfg := testConfig(MESI, 4)
	cfg.L2RegionsPerTile = 2
	perCore := randomStreams(4, 1500, 32, 30, 7)
	streams := make([]trace.Stream, 4)
	for i := range streams {
		streams[i] = trace.NewSliceStream(perCore[i])
	}
	sys, err := NewSystem(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.EnableAttribution()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Recalls == 0 {
		t.Skip("workload produced no recalls")
	}
	if tr.RecallInvalidations == 0 {
		t.Error("recalls happened but none were attributed to the recall bucket")
	}
	if err := tr.Reconcile(); err != nil {
		t.Error(err)
	}
}

// figure1Streams is the falsesharing example's trace: each core
// load/stores its own word of one region.
func figure1Streams(cores, iters int) []trace.Stream {
	streams := make([]trace.Stream, cores)
	for c := 0; c < cores; c++ {
		addr := mem.Addr(0x1000 + c*8)
		recs := make([]trace.Access, 0, 2*iters)
		for i := 0; i < iters; i++ {
			recs = append(recs,
				trace.Access{Kind: trace.Load, Addr: addr, PC: 0x400},
				trace.Access{Kind: trace.Store, Addr: addr, PC: 0x408})
		}
		streams[c] = trace.NewSliceStream(recs)
	}
	return streams
}

// TestFalseSharingClassification is the end-to-end classifier check:
// the Figure 1 counter line is false-shared under region-granularity
// coherence (MESI, SW, SW+MR invalidate over it) and partitioned under
// Protozoa-MW (disjoint writers coexist, zero invalidations).
func TestFalseSharingClassification(t *testing.T) {
	region := mem.DefaultGeometry.Region(0x1000)
	utils := map[Protocol]float64{}
	for _, p := range AllProtocols {
		sys, err := NewSystem(testConfig(p, 4), figure1Streams(4, 200))
		if err != nil {
			t.Fatal(err)
		}
		tr := sys.EnableAttribution()
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		pattern := tr.PatternOf(region)
		if p == ProtozoaMW {
			if pattern != attrib.Partitioned {
				t.Errorf("%s: counter region classified %v, want partitioned", p, pattern)
			}
			if got := tr.PatternCounts()[attrib.FalseShared]; got != 0 {
				t.Errorf("%s: %d false-shared regions, want 0", p, got)
			}
		} else if pattern != attrib.FalseShared {
			t.Errorf("%s: counter region classified %v, want false-shared", p, pattern)
		}
		if err := tr.Reconcile(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
		utils[p] = tr.UtilPct()
	}
	// The adaptive protocols fetch only the words the cores want, so
	// their fill utilization must strictly beat the MESI baseline.
	for _, p := range []Protocol{ProtozoaSW, ProtozoaSWMR, ProtozoaMW} {
		if utils[p] <= utils[MESI] {
			t.Errorf("%s utilization %.1f%% not above MESI %.1f%%", p, utils[p], utils[MESI])
		}
	}
}

// TestAttributionDisabledByDefault guards the zero-cost discipline:
// no tracker exists unless EnableAttribution ran.
func TestAttributionDisabledByDefault(t *testing.T) {
	sys, err := NewSystem(testConfig(MESI, 4), figure1Streams(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Attribution() != nil {
		t.Error("Attribution non-nil without EnableAttribution")
	}
}

// TestSampleHookFires covers the live-endpoint publish path: the hook
// must fire on timeline ticks with monotone cycles.
func TestSampleHookFires(t *testing.T) {
	sys, err := NewSystem(testConfig(ProtozoaMW, 4), figure1Streams(4, 400))
	if err != nil {
		t.Fatal(err)
	}
	reg := sys.EnableMetrics()
	var cycles []uint64
	sys.SetSampleHook(func(cycle uint64) { cycles = append(cycles, cycle) })
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cycles) == 0 {
		t.Fatal("sample hook never fired")
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] < cycles[i-1] {
			t.Fatalf("sample cycles not monotone: %v", cycles)
		}
	}
	if len(reg.Samples()) != len(cycles) {
		t.Errorf("hook fired %d times, registry sampled %d rows", len(cycles), len(reg.Samples()))
	}
}
