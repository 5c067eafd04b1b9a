package core

import (
	"slices"
	"testing"
)

func TestRegionTable(t *testing.T) {
	var tb regionTable[uint32]
	idx := []uint64{0, 1, regionChunkSlots + 7, regionTableSlots - 1, regionTableSlots, 1 << 40}
	for i, x := range idx {
		if got := tb.get(x); got != 0 {
			t.Fatalf("get(%d) on an empty table = %d, want 0", x, got)
		}
		tb.set(x, uint32(i+1))
	}
	for i, x := range idx {
		if got := tb.get(x); got != uint32(i+1) {
			t.Errorf("get(%d) = %d, want %d", x, got, i+1)
		}
	}
	if len(tb.sparse) != 2 {
		t.Errorf("%d indices in the overflow map, want 2 (those at or past the dense cap)", len(tb.sparse))
	}

	tb.set(1, 0)
	tb.set(1<<40, 0)
	var seen []uint32
	tb.each(func(v uint32) { seen = append(seen, v) })
	slices.Sort(seen)
	if want := []uint32{1, 3, 4, 5}; !slices.Equal(seen, want) {
		t.Errorf("each after clearing two slots saw %v, want %v", seen, want)
	}
	if _, ok := tb.sparse[1<<40]; ok {
		t.Error("writing zero left an overflow entry behind")
	}

	// Clearing a slot whose chunk was never touched allocates nothing.
	var empty regionTable[*dirEntry]
	empty.set(regionChunkSlots*9, nil)
	if len(empty.dense) != 0 || empty.sparse != nil {
		t.Error("writing nil into an untouched chunk allocated storage")
	}
}
