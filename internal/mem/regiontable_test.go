package mem

import (
	"slices"
	"testing"
)

func TestRegionTable(t *testing.T) {
	var tb RegionTable[uint32]
	idx := []uint64{0, 1, regionChunkSlots + 7, RegionTableSlots - 1, RegionTableSlots, 1 << 40}
	for i, x := range idx {
		if got := tb.Get(x); got != 0 {
			t.Fatalf("Get(%d) on an empty table = %d, want 0", x, got)
		}
		tb.Set(x, uint32(i+1))
	}
	for i, x := range idx {
		if got := tb.Get(x); got != uint32(i+1) {
			t.Errorf("Get(%d) = %d, want %d", x, got, i+1)
		}
	}
	if len(tb.sparse) != 2 {
		t.Errorf("%d indices in the overflow map, want 2 (those at or past the dense cap)", len(tb.sparse))
	}

	tb.Set(1, 0)
	tb.Set(1<<40, 0)
	var seen []uint32
	tb.Each(func(v uint32) { seen = append(seen, v) })
	slices.Sort(seen)
	if want := []uint32{1, 3, 4, 5}; !slices.Equal(seen, want) {
		t.Errorf("Each after clearing two slots saw %v, want %v", seen, want)
	}
	if _, ok := tb.sparse[1<<40]; ok {
		t.Error("writing zero left an overflow entry behind")
	}

	// Clearing a slot whose chunk was never touched allocates nothing.
	var empty RegionTable[*int]
	empty.Set(regionChunkSlots*9, nil)
	if len(empty.dense) != 0 || empty.sparse != nil {
		t.Error("writing nil into an untouched chunk allocated storage")
	}
}
