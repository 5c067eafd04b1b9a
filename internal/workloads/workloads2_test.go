package workloads

import (
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
)

func TestSecondHalfRegistered(t *testing.T) {
	for _, n := range []string{
		"lu", "ocean", "radix", "water", "cholesky", "facesim", "x264",
		"rev-index", "h2", "tradebeans", "jbb", "parkd",
	} {
		if _, err := Get(n); err != nil {
			t.Errorf("missing workload %s: %v", n, err)
		}
	}
}

func TestTradebeansIsPrivate(t *testing.T) {
	perCore := MustGet("tradebeans").Records(4, 1, 0)
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

func TestRadixScattersAcrossCores(t *testing.T) {
	// The output array must have regions written by multiple cores.
	perCore := MustGet("radix").Records(4, 1, 0)
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
		t.Error("radix scatter produced no multi-writer regions")
	}
}

func TestX264SharesReferenceFrame(t *testing.T) {
	perCore := MustGet("x264").Records(4, 1, 0)
	r0 := regionsOf(perCore[0])
	r1 := regionsOf(perCore[1])
	shared := 0
	for r := range r0 {
		if r1[r] {
			shared++
		}
	}
	if shared < 20 {
		t.Errorf("cores share only %d reference-frame regions", shared)
	}
}

func TestOceanReadsNeighbourHalo(t *testing.T) {
	// Core 0 must read at least one region that core 1 writes.
	perCore := MustGet("ocean").Records(4, 1, 0)
	g := mem.DefaultGeometry
	c1writes := make(map[mem.RegionID]bool)
	for _, r := range perCore[1] {
		if r.Kind == trace.Store {
			c1writes[g.Region(r.Addr)] = true
		}
	}
	overlap := false
	for _, r := range perCore[0] {
		if r.Kind == trace.Load && c1writes[g.Region(r.Addr)] {
			overlap = true
			break
		}
	}
	if !overlap {
		t.Error("ocean core 0 never reads core 1's halo rows")
	}
}

func TestBarrierPhasedWorkloadsBalanced(t *testing.T) {
	for _, name := range []string{"lu", "ocean", "parkd"} {
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
				t.Fatalf("%s: unbalanced barriers %v", name, counts)
			}
		}
	}
}

func TestH2HeaderFalseSharing(t *testing.T) {
	// Header words of different cores must pack into common regions.
	perCore := MustGet("h2").Records(8, 1, 0)
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
		t.Error("h2 headers are not false-shared")
	}
}
