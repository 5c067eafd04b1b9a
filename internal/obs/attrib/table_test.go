package attrib

import (
	"reflect"
	"testing"

	"protozoa/internal/mem"
)

// feedAt replays buildTracker's event mix on regions base+1..base+3.
func feedAt(t *Tracker, base mem.RegionID) {
	for i := 0; i < 10; i++ {
		t.Access(0, base+1, uint8(i%4), i%3 == 0)
	}
	t.Fill(0, base+1, 8)
	t.Death(0, base+1, Footprint{}, 5, 8)
	for i := 0; i < 50; i++ {
		t.Access(1, base+2, 0, true)
		t.Access(2, base+2, 8, true)
		t.Invalidation(base+2, 1, 2, 4)
		t.Upgrade(1, base+2)
	}
	t.Fill(1, base+2, 16)
	t.Fill(2, base+2, 16)
	t.Death(1, base+2, Footprint{}, 2, 16)
	t.Death(2, base+2, Footprint{}, 2, 16)
	t.Fanout(base+2, 3)
	t.Access(0, base+3, 0, false)
	t.Access(3, base+3, 1, false)
	t.Fill(3, base+3, 4)
	t.Death(3, base+3, Footprint{}, 4, 4)
	t.Invalidation(base+3, -1, 3, 2)
}

// TestOverflowRegionsMatchDense pins the region table's overflow path:
// regions past the dense cap live in its map, and every view of the
// tracker reads the same for them as for the same events on low
// region IDs.
func TestOverflowRegionsMatchDense(t *testing.T) {
	const far = mem.RegionID(mem.RegionTableSlots) + 100
	dense, sparse := New(4), New(4)
	feedAt(dense, 0)
	feedAt(sparse, far)

	if got, want := sparse.Summarize(), dense.Summarize(); got != want {
		t.Errorf("Summarize: overflow %+v, dense %+v", got, want)
	}
	for id := mem.RegionID(1); id <= 3; id++ {
		if got, want := sparse.PatternOf(far+id), dense.PatternOf(id); got != want {
			t.Errorf("PatternOf(%d): overflow %v, dense %v", id, got, want)
		}
	}
	top := sparse.TopOffenders(0)
	for i := range top {
		top[i].Region -= far
	}
	if want := dense.TopOffenders(0); !reflect.DeepEqual(top, want) {
		t.Errorf("TopOffenders: overflow %+v, dense %+v", top, want)
	}
	d := sparse.Dump()
	for i := range d.Regions {
		d.Regions[i].ID -= far
	}
	if want := dense.Dump(); !reflect.DeepEqual(d, want) {
		t.Errorf("Dump: overflow %+v, dense %+v", d, want)
	}
	if err := sparse.Reconcile(); err != nil {
		t.Errorf("overflow tracker does not reconcile: %v", err)
	}

	// Merged, the two halves sit on both sides of the cap; the dump
	// stays sorted by ID and the offender order stays deterministic.
	merged := New(4)
	merged.Merge(sparse)
	merged.Merge(dense)
	if n := merged.RegionCount(); n != 6 {
		t.Fatalf("merged tracker holds %d regions, want 6", n)
	}
	md := merged.Dump()
	for i := 1; i < len(md.Regions); i++ {
		if md.Regions[i-1].ID >= md.Regions[i].ID {
			t.Fatalf("merged dump out of order: %d before %d", md.Regions[i-1].ID, md.Regions[i].ID)
		}
	}
	mt := merged.TopOffenders(0)
	if mt[0].Region != 2 || mt[1].Region != far+2 {
		t.Errorf("merged top offenders start %d, %d; want 2, %d", mt[0].Region, mt[1].Region, far+2)
	}
	if err := merged.Reconcile(); err != nil {
		t.Errorf("merged tracker does not reconcile: %v", err)
	}
}

// warmTracker returns a 16-core tracker whose regions have all been
// touched and classified, as after a run's first pass over its data.
func warmTracker(regions int) *Tracker {
	tr := New(16)
	for r := 0; r < regions; r++ {
		for c := 0; c < 16; c++ {
			tr.Access(c, mem.RegionID(r), uint8(c%8), c%4 == 0)
		}
	}
	tr.PatternCounts()
	return tr
}

// TestTrackerAccessAllocatesNothing pins the steady state: once a
// region has state, recording accesses to it allocates nothing.
func TestTrackerAccessAllocatesNothing(t *testing.T) {
	const regions = 1024
	tr := warmTracker(regions)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		for r := 0; r < regions; r++ {
			tr.Access(i%16, mem.RegionID(r), uint8(i%16), i%3 == 0)
			i++
		}
	}); n != 0 {
		t.Errorf("Access on known regions: %v allocs per %d accesses, want 0", n, regions)
	}
}

func BenchmarkTrackerAccess(b *testing.B) {
	b.ReportAllocs()
	const regions = 1024
	tr := warmTracker(regions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride across regions so the one-entry memo rarely hits, as
		// when sixteen cores interleave.
		tr.Access(i%16, mem.RegionID(i*7%regions), uint8(i%8), i%4 == 0)
	}
}
