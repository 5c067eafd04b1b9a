package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"protozoa/internal/mem"
)

func merging(t *testing.T) *Cache {
	t.Helper()
	return MustNew(Config{Sets: 1, SetBudgetBytes: 288, TagBytes: 8, Geom: mem.DefaultGeometry, MergeBlocks: true})
}

func TestMergeAdjacentSameState(t *testing.T) {
	c := merging(t)
	c.Insert(mkBlock(5, mem.Range{Start: 0, End: 2}, Shared))
	c.Insert(mkBlock(5, mem.Range{Start: 3, End: 5}, Shared))
	blocks := c.BlocksInRegion(5)
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d, want 1 merged", len(blocks))
	}
	if blocks[0].R != (mem.Range{Start: 0, End: 5}) {
		t.Errorf("merged range = %v, want {0,5}", blocks[0].R)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeReleasesTagBytes(t *testing.T) {
	c := merging(t)
	c.Insert(mkBlock(5, mem.Range{Start: 0, End: 2}, Shared))
	before := c.BytesUsed()
	c.Insert(mkBlock(5, mem.Range{Start: 3, End: 5}, Shared))
	// Second block adds tag+24 data bytes, then merging releases the tag.
	if got := c.BytesUsed(); got != before+24 {
		t.Errorf("bytes = %d, want %d (one tag released)", got, before+24)
	}
}

func TestMergePreservesTouch(t *testing.T) {
	c := merging(t)
	b1 := mkBlock(5, mem.Range{Start: 0, End: 1}, Modified)
	b1.Note(0, false)
	c.Insert(b1)
	b2 := mkBlock(5, mem.Range{Start: 2, End: 3}, Modified)
	b2.Note(3, true)
	b2.Note(3, true)
	c.Insert(b2)
	m := c.BlocksInRegion(5)[0]
	if m.R != (mem.Range{Start: 0, End: 3}) {
		t.Errorf("merged block covers %v, want {0,3}", m.R)
	}
	if m.Read != mem.Bitmap(0).Set(0) || m.Wrote != mem.Bitmap(0).Set(3) {
		t.Errorf("read/wrote bitmaps = %b/%b, want 1/1000", m.Read, m.Wrote)
	}
	if m.Refs != 3 {
		t.Errorf("merged block counts %d references, want 3", m.Refs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoMergeAcrossStates(t *testing.T) {
	c := merging(t)
	c.Insert(mkBlock(5, mem.Range{Start: 0, End: 2}, Shared))
	c.Insert(mkBlock(5, mem.Range{Start: 3, End: 5}, Modified))
	if n := len(c.BlocksInRegion(5)); n != 2 {
		t.Errorf("blocks = %d, want 2 (states differ)", n)
	}
}

func TestNoMergeAcrossGapsOrRegions(t *testing.T) {
	c := merging(t)
	c.Insert(mkBlock(5, mem.Range{Start: 0, End: 1}, Shared))
	c.Insert(mkBlock(5, mem.Range{Start: 3, End: 4}, Shared)) // gap at word 2
	c.Insert(mkBlock(6, mem.Range{Start: 2, End: 2}, Shared)) // other region
	if n := len(c.BlocksInRegion(5)); n != 2 {
		t.Errorf("region 5 blocks = %d, want 2", n)
	}
	if n := len(c.BlocksInRegion(6)); n != 1 {
		t.Errorf("region 6 blocks = %d, want 1", n)
	}
}

func TestMergeChains(t *testing.T) {
	// Filling the middle gap must collapse three fragments into one.
	c := merging(t)
	c.Insert(mkBlock(5, mem.Range{Start: 0, End: 1}, Shared))
	c.Insert(mkBlock(5, mem.Range{Start: 4, End: 5}, Shared))
	c.Insert(mkBlock(5, mem.Range{Start: 2, End: 3}, Shared))
	blocks := c.BlocksInRegion(5)
	if len(blocks) != 1 || blocks[0].R != (mem.Range{Start: 0, End: 5}) {
		t.Fatalf("blocks = %+v, want single {0,5}", blocks)
	}
}

// TestQuickMergeInvariants drives random fills, snoops and lookups
// through a merging cache. Every filled word is tracked in a shadow
// set, so a merge, eviction or extraction that loses a word, or keeps
// one it should have dropped, fails.
func TestQuickMergeInvariants(t *testing.T) {
	type key struct {
		region mem.RegionID
		w      uint8
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(Config{Sets: 2, SetBudgetBytes: 200, TagBytes: 8, Geom: mem.DefaultGeometry, MergeBlocks: true})
		shadow := map[key]bool{}
		drop := func(blocks []Block) {
			for _, b := range blocks {
				for w := b.R.Start; w <= b.R.End; w++ {
					delete(shadow, key{b.Region, w})
				}
			}
		}
		for op := 0; op < 200; op++ {
			region := mem.RegionID(rng.Intn(6))
			w := uint8(rng.Intn(8))
			switch rng.Intn(3) {
			case 0:
				if c.Peek(region, w) == nil {
					// A narrow predicted range leaves sub-blocks that
					// later fills land next to, so merges happen.
					want := mem.Range{Start: w - uint8(rng.Intn(int(w)+1)), End: w}
					r := c.TrimFill(region, want, w)
					b := mkBlock(region, r, State(1+rng.Intn(3)))
					for fw := r.Start; fw <= r.End; fw++ {
						shadow[key{region, fw}] = true
					}
					drop(c.Insert(b))
				}
			case 1:
				start := uint8(rng.Intn(8))
				end := start + uint8(rng.Intn(8-int(start)))
				drop(c.ExtractOverlapping(region, mem.Range{Start: start, End: end}))
			case 2:
				c.Lookup(region, w)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
			resident := 0
			ok := true
			c.Blocks(func(b *Block) {
				for bw := b.R.Start; bw <= b.R.End; bw++ {
					resident++
					if !shadow[key{b.Region, bw}] {
						t.Logf("seed %d op %d: region %d word %d resident but never filled", seed, op, b.Region, bw)
						ok = false
					}
				}
			})
			if !ok || resident != len(shadow) {
				t.Logf("seed %d op %d: %d resident words, shadow holds %d", seed, op, resident, len(shadow))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
