package cache

import (
	"testing"

	"protozoa/internal/mem"
)

// shape is one of the two storage shapes the protocols drive: Amoeba
// sets filled with 1-word blocks, and the fixed 64 B geometry of the
// MESI baseline, where every block covers its whole region.
type shape struct {
	name   string
	block  mem.Range    // the range every inserted block covers
	halves [2]mem.Range // two adjacent blocks that merge into one
}

var shapes = []shape{
	{"amoeba", mem.OneWord(3), [2]mem.Range{mem.OneWord(3), mem.OneWord(4)}},
	{"fixed64", mem.DefaultGeometry.FullRange(),
		[2]mem.Range{{Start: 0, End: 3}, {Start: 4, End: 7}}},
}

const shapeSets = 4

// warmed returns a cache whose set 0 has been filled past capacity with
// the shape's blocks, so its storage and the victim scratch have reached
// their steady-state size. next is the first unused region of set 0.
func (sh shape) warmed(merge bool) (c *Cache, next mem.RegionID) {
	c = MustNew(Config{Sets: shapeSets, SetBudgetBytes: 288, TagBytes: 8,
		Geom: mem.DefaultGeometry, MergeBlocks: merge})
	for i := 0; i < 64; i++ {
		c.Insert(sh.fill(next))
		next += shapeSets
	}
	return c, next
}

// fill is the shape's block for a region.
func (sh shape) fill(region mem.RegionID) Block {
	return Block{Region: region, R: sh.block, State: Shared}
}

// TestSteadyStateAllocatesNothing pins the storage's allocation
// contract: once a set's storage has grown, an insert that evicts, an
// insert that merges, and a snoop extraction allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			c, next := sh.warmed(false)
			if n := testing.AllocsPerRun(200, func() {
				if len(c.Insert(sh.fill(next))) == 0 {
					t.Fatal("a full set took an insert without evicting")
				}
				next += shapeSets
			}); n != 0 {
				t.Errorf("insert with eviction: %v allocs/op, want 0", n)
			}

			c, next = sh.warmed(true)
			if n := testing.AllocsPerRun(200, func() {
				for _, r := range sh.halves {
					c.Insert(Block{Region: next, R: r, State: Modified})
				}
				if got := c.BlocksInRegion(next); len(got) != 1 {
					t.Fatalf("halves left %d blocks, want 1 merged", len(got))
				}
				next += shapeSets
			}); n != 0 {
				t.Errorf("merge: %v allocs/op, want 0", n)
			}

			c, next = sh.warmed(false)
			if n := testing.AllocsPerRun(200, func() {
				c.Insert(sh.fill(next))
				if len(c.ExtractOverlapping(next, sh.block)) != 1 {
					t.Fatal("extract missed the inserted block")
				}
				next += shapeSets
			}); n != 0 {
				t.Errorf("ExtractOverlapping: %v allocs/op, want 0", n)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

var sinkBlock *Block

func BenchmarkLookupHit(b *testing.B) {
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			c, next := sh.warmed(false)
			// The set's resident regions, probed round-robin.
			var resident []mem.RegionID
			for r := next - shapeSets; c.HasRegion(r); r -= shapeSets {
				resident = append(resident, r)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBlock = c.Lookup(resident[i%len(resident)], sh.block.Start)
			}
		})
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			c, next := sh.warmed(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Insert(sh.fill(next))
				next += shapeSets
			}
		})
	}
}

func BenchmarkExtractOverlapping(b *testing.B) {
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			c, next := sh.warmed(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Insert(sh.fill(next))
				c.ExtractOverlapping(next, sh.block)
				next += shapeSets
			}
		})
	}
}
