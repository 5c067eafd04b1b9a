package workloads

import (
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 28 {
		t.Fatalf("registry has %d workloads, want the paper's 28: %v", len(names), names)
	}
	for _, n := range names {
		s := MustGet(n)
		if s.Models == "" || s.Suite == "" || s.About == "" {
			t.Errorf("%s: incomplete spec %+v", n, s)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("no-such-workload"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestAllMatchesNames(t *testing.T) {
	all := All()
	names := Names()
	if len(all) != len(names) {
		t.Fatalf("All() = %d specs, Names() = %d", len(all), len(names))
	}
	for i := range all {
		if all[i].Name != names[i] {
			t.Errorf("All()[%d] = %s, Names()[%d] = %s", i, all[i].Name, i, names[i])
		}
	}
}

func TestStreamsDeterministic(t *testing.T) {
	for _, spec := range All() {
		a := spec.Records(4, 1, 0)
		b := spec.Records(4, 1, 0)
		for c := 0; c < 4; c++ {
			ra, rb := a[c], b[c]
			if len(ra) != len(rb) {
				t.Fatalf("%s core %d: lengths differ %d vs %d", spec.Name, c, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("%s core %d record %d: %+v vs %+v", spec.Name, c, i, ra[i], rb[i])
				}
			}
		}
	}
}

func TestStreamsNonEmptyAndAligned(t *testing.T) {
	for _, spec := range All() {
		perCore := spec.Records(4, 1, 0)
		for c, recs := range perCore {
			if len(recs) == 0 {
				t.Errorf("%s core %d: empty stream", spec.Name, c)
				continue
			}
			for i, r := range recs {
				if r.Kind == trace.Barrier {
					continue
				}
				if r.Addr%8 != 0 {
					t.Fatalf("%s core %d record %d: unaligned address %#x", spec.Name, c, i, r.Addr)
				}
				if r.PC == 0 {
					t.Fatalf("%s core %d record %d: zero PC", spec.Name, c, i)
				}
			}
		}
	}
}

func TestScaleGrowsStreams(t *testing.T) {
	for _, spec := range All() {
		n1 := len(spec.Records(2, 1, 0)[0])
		n3 := len(spec.Records(2, 3, 0)[0])
		if n3 < 2*n1 {
			t.Errorf("%s: scale 3 stream (%d) not ~3x scale 1 (%d)", spec.Name, n3, n1)
		}
	}
	// Scale below 1 clamps.
	n0 := len(MustGet("fft").Records(2, 0, 0)[0])
	n1 := len(MustGet("fft").Records(2, 1, 0)[0])
	if n0 != n1 {
		t.Errorf("scale 0 stream length %d != scale 1 length %d", n0, n1)
	}
}

func TestBarrierWorkloadsEmitAlignedBarriers(t *testing.T) {
	for _, name := range []string{"kmeans", "fluidanimate", "fft"} {
		perCore := MustGet(name).Records(4, 1, 0)
		var counts []int
		for _, s := range perCore {
			n := 0
			for _, r := range s {
				if r.Kind == trace.Barrier {
					n++
				}
			}
			counts = append(counts, n)
		}
		for _, n := range counts {
			if n == 0 || n != counts[0] {
				t.Fatalf("%s: unbalanced barrier counts %v", name, counts)
			}
		}
	}
}

// regionsOf collects the distinct regions a stream touches.
func regionsOf(recs []trace.Access) map[mem.RegionID]bool {
	g := mem.DefaultGeometry
	out := make(map[mem.RegionID]bool)
	for _, r := range recs {
		if r.Kind != trace.Barrier {
			out[g.Region(r.Addr)] = true
		}
	}
	return out
}

func TestLinearRegressionAccumulatorsFalseShare(t *testing.T) {
	// Eight cores x 6-word structs = 48 words = 6 regions, and every
	// region must be written by at least two cores (false sharing).
	perCore := MustGet("linear-regression").Records(8, 1, 0)
	g := mem.DefaultGeometry
	writers := make(map[mem.RegionID]map[int]bool)
	for c, s := range perCore {
		for _, r := range s {
			if r.Kind != trace.Store {
				continue
			}
			reg := g.Region(r.Addr)
			if writers[reg] == nil {
				writers[reg] = make(map[int]bool)
			}
			writers[reg][c] = true
		}
	}
	if len(writers) != 6 {
		t.Errorf("accumulator stores span %d regions, want 6", len(writers))
	}
	for reg, ws := range writers {
		if len(ws) < 2 {
			t.Errorf("region %d written by %d cores, want false sharing (>= 2)", reg, len(ws))
		}
	}
}

func TestMatrixMultiplyIsPrivate(t *testing.T) {
	// No region may be touched by two cores.
	perCore := MustGet("matrix-multiply").Records(4, 1, 0)
	seen := make(map[mem.RegionID]int)
	for c, s := range perCore {
		for r := range regionsOf(s) {
			if prev, ok := seen[r]; ok && prev != c {
				t.Fatalf("region %d touched by cores %d and %d", r, prev, c)
			}
			seen[r] = c
		}
	}
}

func TestStreamclusterSharesReadOnlyPoints(t *testing.T) {
	// All cores must overlap heavily on the shared point arena.
	perCore := MustGet("streamcluster").Records(4, 1, 0)
	r0 := regionsOf(perCore[0])
	r1 := regionsOf(perCore[1])
	shared := 0
	for r := range r0 {
		if r1[r] {
			shared++
		}
	}
	if shared < 10 {
		t.Errorf("cores 0 and 1 share only %d regions, want >= 10", shared)
	}
}

func TestStringMatchInterleavesWriters(t *testing.T) {
	// Adjacent flag words must belong to different cores: find a region
	// written by more than one core.
	perCore := MustGet("string-match").Records(4, 1, 0)
	g := mem.DefaultGeometry
	writers := make(map[mem.RegionID]map[int]bool)
	for c, s := range perCore {
		for _, r := range s {
			if r.Kind != trace.Store {
				continue
			}
			reg := g.Region(r.Addr)
			if writers[reg] == nil {
				writers[reg] = make(map[int]bool)
			}
			writers[reg][c] = true
		}
	}
	multi := 0
	for _, ws := range writers {
		if len(ws) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-writer regions in string-match")
	}
}
