package mem

// RegionTable is a directly indexed table of per-region values: the
// directory's entry table, the L1 miss classifier's word causes and the
// attribution tracker's region states all live in one. The index space
// is chunked — a directory of fixed-size chunks allocated on first
// touch — so tables whose indices sit high in the address space only
// allocate the spans they touch, and growth never copies values.
// Indices at or beyond RegionTableSlots (sparse gigantic address spaces
// in directed tests) fall back to a map. A slot never written reads as
// T's zero value, and writing the zero value clears it.
type RegionTable[T comparable] struct {
	dense  []*[regionChunkSlots]T
	sparse map[uint64]T // lazily allocated overflow
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
