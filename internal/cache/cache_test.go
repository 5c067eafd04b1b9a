package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"protozoa/internal/mem"
)

func mkBlock(region mem.RegionID, r mem.Range, st State) Block {
	return Block{Region: region, R: r, State: st}
}

func small(t *testing.T) *Cache {
	t.Helper()
	// 1 set, budget for exactly two full-region blocks (2 x (8+64)).
	return MustNew(Config{Sets: 1, SetBudgetBytes: 144, TagBytes: 8, Geom: mem.DefaultGeometry})
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{Sets: 0, SetBudgetBytes: 288, TagBytes: 8, Geom: mem.DefaultGeometry}); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := New(Config{Sets: 4, SetBudgetBytes: 32, TagBytes: 8, Geom: mem.DefaultGeometry}); err == nil {
		t.Error("budget below one region accepted")
	}
}

func TestInsertAndLookup(t *testing.T) {
	c := small(t)
	c.Insert(mkBlock(7, mem.Range{Start: 2, End: 5}, Shared))
	if b := c.Lookup(7, 3); b == nil || b.R != (mem.Range{Start: 2, End: 5}) {
		t.Fatal("Lookup(7,3) missed")
	}
	if c.Lookup(7, 1) != nil {
		t.Error("Lookup(7,1) hit outside the block range")
	}
	if c.Lookup(8, 3) != nil {
		t.Error("Lookup(8,3) hit the wrong region")
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	if !Modified.Dirty() || Shared.Dirty() {
		t.Error("Dirty() wrong")
	}
}

func TestWordAccess(t *testing.T) {
	b := mkBlock(1, mem.Range{Start: 2, End: 5}, Modified)
	b.Touch(3, false)
	b.Touch(5, true)
	b.Touch(3, true)
	if b.UsedWords() != 2 || b.Touched() != b.Read|b.Wrote || b.Refs != 0 {
		t.Errorf("UsedWords = %d, want 2; Touched %b, Refs %d", b.UsedWords(), b.Touched(), b.Refs)
	}
}

func TestInsertOverlapPanics(t *testing.T) {
	c := small(t)
	c.Insert(mkBlock(7, mem.Range{Start: 2, End: 5}, Shared))
	defer func() {
		if recover() == nil {
			t.Error("overlapping insert did not panic")
		}
	}()
	c.Insert(mkBlock(7, mem.Range{Start: 5, End: 7}, Shared))
}

func TestInsertEvictsLRU(t *testing.T) {
	c := small(t)
	full := mem.DefaultGeometry.FullRange()
	c.Insert(mkBlock(1, full, Shared))
	c.Insert(mkBlock(2, full, Modified))
	c.Lookup(1, 0) // make region 1 most recently used
	victims := c.Insert(mkBlock(3, full, Shared))
	if len(victims) != 1 || victims[0].Region != 2 {
		t.Fatalf("victims = %+v, want region 2 evicted", victims)
	}
	if !c.HasRegion(1) || c.HasRegion(2) || !c.HasRegion(3) {
		t.Error("wrong residency after eviction")
	}
}

func TestInsertEvictsMultipleSmallBlocks(t *testing.T) {
	// Budget 144: five 2-word blocks cost 5 x 24 = 120. A full-region
	// block costs 72, so two 24-byte victims must go (120+72-144 = 48).
	c := small(t)
	for i := 0; i < 5; i++ {
		r := mem.Range{Start: uint8(i), End: uint8(i + 1)}
		c.Insert(mkBlock(mem.RegionID(i+10), r, Shared))
	}
	victims := c.Insert(mkBlock(99, mem.DefaultGeometry.FullRange(), Shared))
	if len(victims) != 2 {
		t.Fatalf("victims = %d, want 2", len(victims))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimFill(t *testing.T) {
	c := small(t)
	c.Insert(mkBlock(5, mem.Range{Start: 1, End: 3}, Shared))
	full := mem.DefaultGeometry.FullRange()
	// Miss on word 5 wanting 0-7: resident 1-3 trims the left side.
	got := c.TrimFill(5, full, 5)
	if got != (mem.Range{Start: 4, End: 7}) {
		t.Errorf("TrimFill = %v, want {4,7}", got)
	}
	// Miss on word 0: only word 0 free to the left.
	got = c.TrimFill(5, full, 0)
	if got != (mem.Range{Start: 0, End: 0}) {
		t.Errorf("TrimFill = %v, want {0,0}", got)
	}
	// Empty region: no trimming.
	if got := c.TrimFill(6, full, 4); got != full {
		t.Errorf("TrimFill on empty region = %v, want full", got)
	}
	// Want range not containing the miss word gets widened first.
	got = c.TrimFill(6, mem.Range{Start: 0, End: 1}, 5)
	if !got.Contains(5) {
		t.Errorf("TrimFill must contain the miss word, got %v", got)
	}
}

func TestExtractOverlapping(t *testing.T) {
	c := small(t)
	c.Insert(mkBlock(9, mem.Range{Start: 1, End: 3}, Modified))
	c.Insert(mkBlock(9, mem.Range{Start: 5, End: 6}, Modified))
	before := c.BytesUsed()
	got := c.ExtractOverlapping(9, mem.Range{Start: 0, End: 7})
	if len(got) != 2 {
		t.Fatalf("extracted %d blocks, want 2 (Figure 3 writeback)", len(got))
	}
	if c.HasRegion(9) {
		t.Error("region still resident after full extract")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.BytesUsed() >= before {
		t.Error("bytes not released")
	}
}

func TestExtractOverlappingPartial(t *testing.T) {
	c := small(t)
	c.Insert(mkBlock(9, mem.Range{Start: 1, End: 3}, Modified))
	c.Insert(mkBlock(9, mem.Range{Start: 5, End: 6}, Shared))
	got := c.ExtractOverlapping(9, mem.Range{Start: 0, End: 2})
	if len(got) != 1 || got[0].R != (mem.Range{Start: 1, End: 3}) {
		t.Fatalf("extracted %+v, want only the 1-3 block", got)
	}
	if len(c.BlocksInRegion(9)) != 1 {
		t.Error("non-overlapping block should remain")
	}
}

func TestExtractRegion(t *testing.T) {
	c := small(t)
	c.Insert(mkBlock(9, mem.Range{Start: 1, End: 3}, Modified))
	c.Insert(mkBlock(9, mem.Range{Start: 5, End: 6}, Shared))
	if got := c.ExtractRegion(9); len(got) != 2 {
		t.Fatalf("ExtractRegion returned %d blocks, want 2", len(got))
	}
}

func TestPeekDoesNotBumpLRU(t *testing.T) {
	c := small(t)
	full := mem.DefaultGeometry.FullRange()
	c.Insert(mkBlock(1, full, Shared))
	c.Insert(mkBlock(2, full, Shared))
	c.Peek(1, 0) // must NOT protect region 1
	victims := c.Insert(mkBlock(3, full, Shared))
	if len(victims) != 1 || victims[0].Region != 1 {
		t.Fatalf("victims = %+v, want region 1 (Peek must not touch LRU)", victims)
	}
}

func TestSetIndexingSeparatesRegions(t *testing.T) {
	c := MustNew(Config{Sets: 4, SetBudgetBytes: 144, TagBytes: 8, Geom: mem.DefaultGeometry})
	full := mem.DefaultGeometry.FullRange()
	// Regions 0..7 spread over 4 sets; each set fits two full blocks, so
	// no evictions should occur.
	for i := 0; i < 8; i++ {
		if v := c.Insert(mkBlock(mem.RegionID(i), full, Shared)); len(v) != 0 {
			t.Fatalf("unexpected eviction inserting region %d", i)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultL1ConfigWays(t *testing.T) {
	c := MustNew(DefaultL1Config())
	full := mem.DefaultGeometry.FullRange()
	// Regions i*256 all map to set 0; the 288-byte budget holds exactly
	// four full 64-byte blocks (4 x 72 = 288).
	for i := 0; i < 4; i++ {
		if v := c.Insert(mkBlock(mem.RegionID(i*256), full, Shared)); len(v) != 0 {
			t.Fatalf("eviction at way %d", i)
		}
	}
	if v := c.Insert(mkBlock(mem.RegionID(4*256), full, Shared)); len(v) != 1 {
		t.Fatalf("fifth way fit: victims = %d, want 1", len(v))
	}
}

func TestQuickInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(Config{Sets: 4, SetBudgetBytes: 160, TagBytes: 8, Geom: mem.DefaultGeometry})
		for op := 0; op < 300; op++ {
			region := mem.RegionID(rng.Intn(16))
			w := uint8(rng.Intn(8))
			switch rng.Intn(3) {
			case 0: // fill
				want := c.TrimFill(region, mem.DefaultGeometry.FullRange(), w)
				if c.Peek(region, w) == nil {
					c.Insert(mkBlock(region, want, State(1+rng.Intn(3))))
				}
			case 1: // snoop
				start := uint8(rng.Intn(8))
				end := start + uint8(rng.Intn(8-int(start)))
				c.ExtractOverlapping(region, mem.Range{Start: start, End: end})
			case 2: // lookup
				c.Lookup(region, w)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickTrimFillNeverOverlapsResident(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(Config{Sets: 1, SetBudgetBytes: 288, TagBytes: 8, Geom: mem.DefaultGeometry})
		region := mem.RegionID(3)
		for i := 0; i < 8; i++ {
			w := uint8(rng.Intn(8))
			if c.Peek(region, w) != nil {
				continue
			}
			r := c.TrimFill(region, mem.DefaultGeometry.FullRange(), w)
			if !r.Contains(w) {
				return false
			}
			for _, b := range c.BlocksInRegion(region) {
				if b.R.Overlaps(r) {
					return false
				}
			}
			c.Insert(mkBlock(region, r, Shared))
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBlockSize pins a block's storage cost, which every L1 set slab
// pays per slot: 40 bytes, with no word values (the L1 controller
// keeps those, only in checked runs). The 128-byte value array that
// blocks once carried would take it to 168.
func TestBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 40 {
		t.Errorf("cache.Block is %d bytes, want 40", got)
	}
}
