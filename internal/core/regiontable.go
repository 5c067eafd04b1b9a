package core

// regionTable is a directly indexed table of per-region values. The
// index space is chunked — a directory of fixed-size chunks allocated
// on first touch — so tables whose indices sit high in the address
// space only allocate the spans they touch, and growth never copies
// values. Indices at or beyond regionTableSlots (sparse gigantic
// address spaces in directed tests) fall back to a map. A slot never
// written reads as T's zero value, and writing the zero value clears
// it.
type regionTable[T comparable] struct {
	dense  []*[regionChunkSlots]T
	sparse map[uint64]T // lazily allocated overflow
}

// regionTableSlots caps the dense index space; the chunk directory
// holds one pointer per 512 slots, so even at the cap it is 256 KiB.
const (
	regionTableSlots = 1 << 24
	regionChunkBits  = 9
	regionChunkSlots = 1 << regionChunkBits
	regionChunkMask  = regionChunkSlots - 1
)

// get returns the value at index i.
func (t *regionTable[T]) get(i uint64) T {
	if i < regionTableSlots {
		if ch := i >> regionChunkBits; ch < uint64(len(t.dense)) && t.dense[ch] != nil {
			return t.dense[ch][i&regionChunkMask]
		}
		var zero T
		return zero
	}
	return t.sparse[i]
}

// set stores v at index i, allocating its chunk on first touch.
func (t *regionTable[T]) set(i uint64, v T) {
	var zero T
	if i >= regionTableSlots {
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
		t.dense = append(t.dense, make([]*[regionChunkSlots]T, ch+1-uint64(len(t.dense)))...)
	}
	if t.dense[ch] == nil {
		if v == zero {
			return
		}
		t.dense[ch] = new([regionChunkSlots]T)
	}
	t.dense[ch][i&regionChunkMask] = v
}

// each calls fn for every non-zero value: dense slots in index order,
// then the overflow map in no particular order.
func (t *regionTable[T]) each(fn func(T)) {
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
