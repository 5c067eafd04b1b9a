package core

import (
	"runtime"
	"testing"

	"protozoa/internal/workloads"
)

// TestRunAllocsPerAccess bounds the heap allocations a coherence-heavy
// run makes per simulated access. L1 fills, merges and evictions move
// blocks by value, the miss classifier's causes live in a chunked
// table, directory entries come from per-slice slabs and every L1 set
// starts with four block slots, so what remains is first-touch work:
// table chunks, entry slabs and the memory image. The count was 0.238
// before the slabs (bound 0.4) and is 0.006 with them; the bound keeps
// about 2x headroom.
func TestRunAllocsPerAccess(t *testing.T) {
	spec, err := workloads.Get("canneal")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(DefaultConfig(MESI), spec.StreamsSeeded(16, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	accesses := sys.Stats().Accesses
	if accesses == 0 {
		t.Fatal("run made no accesses")
	}
	perAccess := float64(after.Mallocs-before.Mallocs) / float64(accesses)
	t.Logf("%d accesses, %.4f allocations per access", accesses, perAccess)
	if perAccess >= 0.012 {
		t.Errorf("System.Run made %.4f allocations per access, want < 0.012", perAccess)
	}
}
