package core

import (
	"runtime"
	"testing"

	"protozoa/internal/workloads"
)

// TestRunAllocsPerAccess bounds the heap allocations a coherence-heavy
// run makes per simulated access. L1 fills, merges and evictions move
// blocks by value and the miss classifier's causes live in a chunked
// table, so what remains is first-touch work: directory entries, table
// chunks and set storage growing to its steady-state size.
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
	t.Logf("%d accesses, %.3f allocations per access", accesses, perAccess)
	if perAccess >= 0.4 {
		t.Errorf("System.Run made %.3f allocations per access, want < 0.4", perAccess)
	}
}
