package profile

import (
	"strings"
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// perCore gathers one record slice per core, Analyze's input.
func perCore(recs ...[]trace.Access) [][]trace.Access { return recs }

func ld(a mem.Addr) trace.Access { return trace.Access{Kind: trace.Load, Addr: a, PC: 1} }
func st(a mem.Addr) trace.Access { return trace.Access{Kind: trace.Store, Addr: a, PC: 2} }

func TestClassifyPrivate(t *testing.T) {
	r := Analyze(perCore(
		[]trace.Access{ld(0x0), st(0x8)},
		[]trace.Access{ld(0x40)},
	), mem.DefaultGeometry)
	if r.RegionsByClass[Private] != 2 || r.Regions != 2 {
		t.Errorf("regions = %d, private = %d, want 2/2", r.Regions, r.RegionsByClass[Private])
	}
}

func TestClassifyReadOnlyShared(t *testing.T) {
	r := Analyze(perCore(
		[]trace.Access{ld(0x0)},
		[]trace.Access{ld(0x8)},
	), mem.DefaultGeometry)
	if r.RegionsByClass[ReadOnlyShared] != 1 {
		t.Errorf("read-only = %d, want 1", r.RegionsByClass[ReadOnlyShared])
	}
}

func TestClassifyFalseShared(t *testing.T) {
	// Two cores write disjoint words of one region.
	r := Analyze(perCore(
		[]trace.Access{st(0x0)},
		[]trace.Access{st(0x8)},
	), mem.DefaultGeometry)
	if r.RegionsByClass[FalseShared] != 1 {
		t.Errorf("false-shared = %d, want 1", r.RegionsByClass[FalseShared])
	}
}

func TestClassifyTrueShared(t *testing.T) {
	// One core writes a word another reads.
	r := Analyze(perCore(
		[]trace.Access{st(0x0)},
		[]trace.Access{ld(0x0)},
	), mem.DefaultGeometry)
	if r.RegionsByClass[TrueShared] != 1 {
		t.Errorf("true-shared = %d, want 1", r.RegionsByClass[TrueShared])
	}
	// Reader-reader on a word with a writer elsewhere in the region is
	// still false sharing.
	r = Analyze(perCore(
		[]trace.Access{st(0x0), ld(0x10)},
		[]trace.Access{ld(0x10)},
	), mem.DefaultGeometry)
	if r.RegionsByClass[FalseShared] != 1 {
		t.Errorf("false-shared = %d, want 1 (shared word has no writer)", r.RegionsByClass[FalseShared])
	}
}

func TestRMWIsAWrite(t *testing.T) {
	// Two cores RMW one word: true sharing, counted as stores.
	rmw := trace.Access{Kind: trace.RMW, Addr: 0x0, PC: 3}
	r := Analyze(perCore(
		[]trace.Access{rmw},
		[]trace.Access{rmw},
	), mem.DefaultGeometry)
	if r.RegionsByClass[TrueShared] != 1 || r.Stores != 2 || r.Loads != 0 {
		t.Errorf("true-shared = %d, stores = %d, loads = %d, want 1/2/0",
			r.RegionsByClass[TrueShared], r.Stores, r.Loads)
	}
}

func TestClassCoarsensEveryPattern(t *testing.T) {
	for p, want := range map[attrib.Pattern]Sharing{
		attrib.Private: Private, attrib.ReadOnly: ReadOnlyShared,
		attrib.Partitioned: FalseShared, attrib.FalseShared: FalseShared,
		attrib.Migratory: TrueShared, attrib.ReadWrite: TrueShared,
	} {
		if got := Class(p); got != want {
			t.Errorf("Class(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestMismatches(t *testing.T) {
	recs := perCore(
		[]trace.Access{st(0x0), ld(0x40)},
		[]trace.Access{ld(0x0)},
	)
	r := Analyze(recs, mem.DefaultGeometry)
	// A tracker fed the same references agrees region for region.
	sim := attrib.New(2)
	sim.Access(0, 0, 0, true)
	sim.Access(0, 1, 0, false)
	sim.Access(1, 0, 0, false)
	if n := r.Mismatches(sim); n != 0 {
		t.Errorf("identical feed: %d mismatches", n)
	}
	// A lost write turns region 0 read-only; a stray access adds a
	// region the profile never saw.
	sim = attrib.New(2)
	sim.Access(0, 0, 0, false)
	sim.Access(0, 1, 0, false)
	sim.Access(1, 0, 0, false)
	sim.Access(1, 2, 0, false)
	if n := r.Mismatches(sim); n != 2 {
		t.Errorf("lost write + stray region: %d mismatches, want 2", n)
	}
	// A region the run never accessed is a mismatch too.
	if n := r.Mismatches(attrib.New(2)); n != 2 {
		t.Errorf("empty tracker: %d mismatches, want 2", n)
	}
}

func TestFootprintHistogram(t *testing.T) {
	r := Analyze(perCore(
		[]trace.Access{ld(0x0), ld(0x8), ld(0x10)}, // 3 words of region 0
		[]trace.Access{ld(0x40)},                   // 1 word of region 1
	), mem.DefaultGeometry)
	if r.WordsTouchedHist[2] != 1 || r.WordsTouchedHist[0] != 1 {
		t.Errorf("hist = %v", r.WordsTouchedHist)
	}
	if got := r.AvgWordsTouched(); got != 2 {
		t.Errorf("AvgWordsTouched = %v, want 2", got)
	}
	if got := r.FootprintPct(); got != 25 {
		t.Errorf("FootprintPct = %v, want 25", got)
	}
}

func TestBarriersIgnored(t *testing.T) {
	r := Analyze(perCore(
		[]trace.Access{{Kind: trace.Barrier}, ld(0x0)},
	), mem.DefaultGeometry)
	if r.Accesses != 1 {
		t.Errorf("accesses = %d, want 1", r.Accesses)
	}
}

func TestSharingString(t *testing.T) {
	for s, want := range map[Sharing]string{
		Private: "private", ReadOnlyShared: "read-only",
		FalseShared: "false-shared", TrueShared: "true-shared",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestRender(t *testing.T) {
	r := Analyze(perCore([]trace.Access{st(0x0)}), mem.DefaultGeometry)
	out := r.Render("demo")
	for _, want := range []string{"demo", "private", "false-shared", "footprint"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// Workload signatures, the Section 2 motivation numbers.

func TestWorkloadProfiles(t *testing.T) {
	profile := func(name string) *Report {
		return Analyze(workloads.MustGet(name).Records(16, 1, 0), mem.DefaultGeometry)
	}

	lr := profile("linear-regression")
	if lr.AccessesByClass[FalseShared] == 0 {
		t.Error("linear-regression shows no false-shared accesses")
	}
	if lr.AccessPct(TrueShared) > 5 {
		t.Errorf("linear-regression true-shared accesses = %.1f%%, want ~0", lr.AccessPct(TrueShared))
	}

	mm := profile("matrix-multiply")
	if mm.ClassPct(Private) < 99 {
		t.Errorf("matrix-multiply private regions = %.1f%%, want ~100", mm.ClassPct(Private))
	}
	if mm.FootprintPct() < 90 {
		t.Errorf("matrix-multiply footprint = %.1f%%, want ~100", mm.FootprintPct())
	}

	bs := profile("blackscholes")
	if bs.FootprintPct() > 40 {
		t.Errorf("blackscholes footprint = %.1f%%, want sparse", bs.FootprintPct())
	}

	sc := profile("streamcluster")
	if sc.ClassPct(ReadOnlyShared) < 30 {
		t.Errorf("streamcluster read-only shared regions = %.1f%%, want large", sc.ClassPct(ReadOnlyShared))
	}

	sm := profile("string-match")
	if sm.RegionsByClass[FalseShared] == 0 {
		t.Error("string-match shows no false-shared regions")
	}

	// RMWs are writes: the atomic counter is pure true sharing, and the
	// ticket lock's lock region (RMW ticket grab, RMW release) is
	// true-shared like its protected data.
	ac := profile("micro-atomic-counter")
	if ac.ClassPct(TrueShared) != 100 || ac.Stores != ac.Accesses {
		t.Errorf("micro-atomic-counter: true-shared %.1f%%, %d stores of %d accesses; want 100%%, all stores",
			ac.ClassPct(TrueShared), ac.Stores, ac.Accesses)
	}
	tl := profile("micro-ticket-lock")
	if tl.Regions != 2 || tl.RegionsByClass[TrueShared] != 2 {
		t.Errorf("micro-ticket-lock: %d of %d regions true-shared, want the lock and data regions",
			tl.RegionsByClass[TrueShared], tl.Regions)
	}
}
