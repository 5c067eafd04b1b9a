package core

import (
	"math/bits"

	"protozoa/internal/mem"
	"protozoa/internal/recycle"
)

// Word values. Every result a run reports is value-free: traffic,
// misses, block sizes, execution time, energy. Only a view subscribed
// to the value records (the random tester's Checker, the tests' load
// recorders) reads word values, so a machine tracks them
// only once such a view arms it: each L1 then keeps a word store keyed
// by region (l1Words), each directory slice keeps its L2 blocks beside
// its entry arena plus a memory image, and every pooled Msg carries a
// word array. An unarmed machine has none of these; each copy site
// checks for its store with one nil test.

// armValues gives the machine its word stores. subscribe calls it for
// the first value view, before the first event, so no store has missed
// a value.
func (s *System) armValues() {
	stride := uint32(s.geom.WordsPerRegion())
	for _, l := range s.l1s {
		l.words = &l1Words{index: mem.RegionTable[uint32]{Pool: &tableChunks}, arena: wordArena{stride: stride}}
	}
	for _, d := range s.dirs {
		d.words = &wordArena{stride: stride}
		d.memory = make(map[mem.RegionID][]uint64)
	}
	for _, m := range s.pool.free {
		m.Words = new([mem.MaxRegionWords]uint64)
	}
}

// wordArena holds blocks of stride words (the geometry's
// WordsPerRegion), indexed by region word offset, in chunks of
// dirChunkSlots blocks drawn from wordChunks.
type wordArena struct {
	chunks [][]uint64
	stride uint32
}

// wordChunks recycles word chunks across machines, one pool per region
// size (indexed by log2 of WordsPerRegion, up to log2(MaxRegionWords)
// = 4), so every chunk a pool holds is exactly dirChunkSlots*stride
// words long and all of it is in use. A chunk is cleared when drawn.
var wordChunks [5]recycle.Pool[[]uint64]

func wordPool(stride uint32) *recycle.Pool[[]uint64] {
	return &wordChunks[bits.TrailingZeros32(stride)]
}

// block returns the block at position pos.
func (a *wordArena) block(pos uint32) []uint64 {
	i := pos % dirChunkSlots * a.stride
	return a.chunks[pos/dirChunkSlots][i : i+a.stride : i+a.stride]
}

// grow adds one cleared chunk, so positions up to
// len(chunks)*dirChunkSlots are valid.
func (a *wordArena) grow() {
	w, ok := wordPool(a.stride).Get()
	if ok {
		clear(w)
	} else {
		w = make([]uint64, dirChunkSlots*a.stride)
	}
	a.chunks = append(a.chunks, w)
}

// release hands the chunks to their pool, poisoned first while
// recycle.Poison is set; the arena must not be used afterwards.
func (a *wordArena) release() {
	poison := recycle.Poison.Load()
	for _, w := range a.chunks {
		if poison {
			for j := range w {
				w[j] = 0xdeadbeefdeadbeef
			}
		}
		wordPool(a.stride).Put(w)
	}
	a.chunks = nil
}

// l1Words is an armed L1's word store: one region-sized block for each
// region the L1 has held, found through a region index. A cache never
// holds two blocks covering one word, so each word has one home
// whatever blocks come, go or merge; a word no resident block covers
// is stale and never read.
type l1Words struct {
	index mem.RegionTable[uint32] // region -> arena position + 1
	arena wordArena
	used  uint32
}

// of returns the region's words, placing the region on first touch.
func (v *l1Words) of(region mem.RegionID) []uint64 {
	pos := v.index.Get(uint64(region))
	if pos == 0 {
		if v.used == uint32(len(v.arena.chunks))*dirChunkSlots {
			v.arena.grow()
		}
		v.used++
		pos = v.used
		v.index.Set(uint64(region), pos)
	}
	return v.arena.block(pos - 1)
}

// release hands the index and the arena to their pools.
func (v *l1Words) release() {
	v.index.Release()
	v.arena.release()
}
