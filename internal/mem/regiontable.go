package mem

import "protozoa/internal/recycle"

// RegionTable is a directly indexed table of per-region values: the
// directory's entry index, the L1 miss classifier's word causes and the
// attribution tracker's region states all live in one. The index space
// is chunked — a directory of fixed-size chunks allocated on first
// touch — so tables whose indices sit high in the address space only
// allocate the spans they touch, and growth never copies values.
// Indices at or beyond RegionTableSlots (sparse gigantic address spaces
// in directed tests) fall back to a map. A slot never written reads as
// T's zero value, and writing the zero value clears it.
//
// A table with a Pool draws its chunks and its chunk directory from
// it, and Release hands them back, so machines built one after another
// in a process reuse the same chunks and a directory already grown to
// the span they touch.
type RegionTable[T comparable] struct {
	Pool *ChunkPool[T]

	dense  []*[regionChunkSlots]T
	sparse map[uint64]T // lazily allocated overflow
}

// ChunkPool recycles RegionTable chunks across tables; it is safe for
// concurrent use. A chunk is cleared when it is drawn, so a table never
// sees what the chunk held before. While recycle.Poison is set,
// Release fills each chunk with Poison before pooling it, which makes
// a missed clear show up as wrong values rather than as lucky zeros.
type ChunkPool[T comparable] struct {
	Poison T
	pool   recycle.Pool[*[regionChunkSlots]T]
	dirs   recycle.Pool[[]*[regionChunkSlots]T] // emptied chunk directories
}

func (p *ChunkPool[T]) get() *[regionChunkSlots]T {
	if c, ok := p.pool.Get(); ok {
		clear(c[:])
		return c
	}
	return new([regionChunkSlots]T)
}

func (p *ChunkPool[T]) put(c *[regionChunkSlots]T) {
	if recycle.Poison.Load() {
		for i := range c {
			c[i] = p.Poison
		}
	}
	p.pool.Put(c)
}

// RegionTableSlots caps the dense index space; the chunk directory
// holds one pointer per 512 slots, so even at the cap it is 256 KiB.
// Indices at or past it live in the overflow map.
const (
	RegionTableSlots = 1 << 24
	regionChunkBits  = 9
	regionChunkSlots = 1 << regionChunkBits
	regionChunkMask  = regionChunkSlots - 1
)

// Get returns the value at index i.
func (t *RegionTable[T]) Get(i uint64) T {
	if i < RegionTableSlots {
		if ch := i >> regionChunkBits; ch < uint64(len(t.dense)) && t.dense[ch] != nil {
			return t.dense[ch][i&regionChunkMask]
		}
		var zero T
		return zero
	}
	return t.sparse[i]
}

// Set stores v at index i, allocating its chunk on first touch.
func (t *RegionTable[T]) Set(i uint64, v T) {
	var zero T
	if i >= RegionTableSlots {
		if v == zero {
			delete(t.sparse, i)
			return
		}
		if t.sparse == nil {
			t.sparse = make(map[uint64]T)
		}
		t.sparse[i] = v
		return
	}
	ch := i >> regionChunkBits
	if ch >= uint64(len(t.dense)) {
		if v == zero {
			return
		}
		if t.dense == nil && t.Pool != nil {
			t.dense, _ = t.Pool.dirs.Get()
		}
		t.dense = append(t.dense, make([]*[regionChunkSlots]T, ch+1-uint64(len(t.dense)))...)
	}
	if t.dense[ch] == nil {
		if v == zero {
			return
		}
		if t.Pool != nil {
			t.dense[ch] = t.Pool.get()
		} else {
			t.dense[ch] = new([regionChunkSlots]T)
		}
	}
	t.dense[ch][i&regionChunkMask] = v
}

// Each calls fn for every non-zero value: dense slots in index order,
// then the overflow map in no particular order.
func (t *RegionTable[T]) Each(fn func(T)) {
	var zero T
	for _, chunk := range t.dense {
		if chunk == nil {
			continue
		}
		for _, v := range chunk {
			if v != zero {
				fn(v)
			}
		}
	}
	for _, v := range t.sparse {
		fn(v)
	}
}

// Release empties the table, handing its chunks and its emptied chunk
// directory to Pool (a table without a Pool just drops them). The table
// stays usable and reads as empty.
func (t *RegionTable[T]) Release() {
	if t.Pool != nil {
		for _, chunk := range t.dense {
			if chunk != nil {
				t.Pool.put(chunk)
			}
		}
		if t.dense != nil {
			clear(t.dense)
			t.Pool.dirs.Put(t.dense[:0])
		}
	}
	*t = RegionTable[T]{Pool: t.Pool}
}
