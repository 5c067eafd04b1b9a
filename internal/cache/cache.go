// Package cache implements the private L1 storage used by every
// protocol in the family: an Amoeba-Cache (Kumar et al., MICRO 2012)
// that stores variable-granularity blocks, each a 4-tuple
// <Region tag, Start, End, Data> whose boundaries never cross a REGION.
//
// Capacity is modeled the way the Amoeba paper charges it: each set has
// a byte budget (288 B in Table 4) and every resident block costs its
// data bytes plus a tag overhead (8 B), so fine-grain blocks let a set
// hold more useful words while coarse blocks amortize the tag. A
// fixed-granularity cache for the MESI baseline is the degenerate case
// in which every block covers the full region: with 64-byte regions a
// 288-byte set holds exactly 4 ways.
//
// The package also provides the multi-step snoop support of Section
// 3.1/Figure 3: ExtractOverlapping is the CHECK + GATHER sequence that
// removes every resident sub-block overlapping a coherence request so
// the protocol can treat them as a single writeback.
//
// Blocks are stored by value in their set, data inline, so a
// steady-state fill, merge or eviction allocates nothing. The *Block
// pointers that Lookup, Peek, BlocksInRegion and Blocks return point
// into set storage: they are valid until the next Insert or Extract* on
// that set, which may move or overwrite the blocks.
package cache

import (
	"fmt"

	"protozoa/internal/mem"
	"protozoa/internal/recycle"
)

// State is a block's MESI stable state. Transient states live in the
// L1 controller's MSHRs, not in the storage.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Dirty reports whether the state implies dirty data.
func (s State) Dirty() bool { return s == Modified }

// Block is one resident Amoeba block.
type Block struct {
	Region    mem.RegionID
	R         mem.Range
	State     State
	FetchWord uint8 // word offset of the miss that fetched the block
	// Read and Wrote are the words the core read and wrote since fill
	// (an RMW is a write); Refs counts the references Note recorded
	// since an observer (core's attribution feed) last folded them.
	Read, Wrote mem.Bitmap
	Refs        uint64
	FetchPC     uint64 // PC of the miss that fetched the block (predictor training)

	// Data holds the word values indexed by region word offset, the
	// layout Msg.Words uses. Only the words inside R are the block's;
	// every word outside R must be zero (Insert and CheckInvariants
	// enforce it).
	Data [mem.MaxRegionWords]uint64

	lru uint64
}

// Word returns the value of word w (region offset). It panics if w lies
// outside the block's range.
func (b *Block) Word(w uint8) uint64 {
	if w < b.R.Start || w > b.R.End {
		outsideRange(w, b.R)
	}
	return b.Data[w]
}

// SetWord stores v into word w. It panics if w lies outside the
// block's range.
func (b *Block) SetWord(w uint8, v uint64) {
	if w < b.R.Start || w > b.R.End {
		outsideRange(w, b.R)
	}
	b.Data[w] = v
}

// outsideRange is Word and SetWord's failure path, kept out of line so
// both stay inlinable.
//
//go:noinline
func outsideRange(w uint8, r mem.Range) {
	panic(fmt.Sprintf("cache: word %d outside block range %v", w, r))
}

// strayWord reports the first non-zero word outside the block's range.
func (b *Block) strayWord() (uint8, bool) {
	for w := range b.Data {
		if !b.R.Contains(uint8(w)) && b.Data[w] != 0 {
			return uint8(w), true
		}
	}
	return 0, false
}

// Touch marks word w as read or written by the core, without counting
// a reference.
func (b *Block) Touch(w uint8, write bool) {
	if write {
		b.Wrote = b.Wrote.Set(w)
	} else {
		b.Read = b.Read.Set(w)
	}
}

// Note records one core reference to word w: Touch plus a count.
func (b *Block) Note(w uint8, write bool) {
	b.Touch(w, write)
	b.Refs++
}

// Touched reports the words the core accessed since fill.
func (b *Block) Touched() mem.Bitmap { return b.Read | b.Wrote }

// UsedWords reports how many of the block's words the core touched.
func (b *Block) UsedWords() int { return b.Touched().CountIn(b.R) }

// Config sizes a cache.
type Config struct {
	Sets           int // number of sets; blocks of a region map to one set
	SetBudgetBytes int // storage budget per set, tags included
	TagBytes       int // per-block tag/metadata overhead
	Geom           mem.Geometry

	// MergeBlocks coalesces a freshly inserted block with adjacent
	// same-state blocks of its region, as the Amoeba-Cache hardware
	// does: fragments left by partial fills re-join, saving one tag per
	// merge and keeping lookups short.
	MergeBlocks bool
}

// DefaultL1Config is Table 4's Amoeba L1: 256 sets x 288 B/set with
// 8-byte tags over 64-byte regions.
func DefaultL1Config() Config {
	return Config{Sets: 256, SetBudgetBytes: 288, TagBytes: 8, Geom: mem.DefaultGeometry}
}

type set struct {
	blocks    []Block
	bytesUsed int
}

// Cache is a single private L1's storage. Not safe for concurrent use.
type Cache struct {
	cfg  Config
	sets []set
	tick uint64

	// maxBlocks bounds a set's population (its budget over the cheapest
	// block's cost), so set storage grows to it and never beyond.
	maxBlocks int

	// Reusable result buffers for the snoop-query methods, so the
	// protocol hot path performs no per-query slice allocations. Each
	// method documents that its result is valid only until its next
	// call; the three are separate because a snoop holds an extraction
	// result while issuing region queries.
	regionScratch  []*Block // BlocksInRegion
	extractScratch []Block  // ExtractOverlapping / ExtractRegion
	victimScratch  []Block  // Insert
}

// New builds a cache. The set budget must fit at least one full-region
// block so fixed-granularity configurations are always serviceable.
// New reuses the storage of the most recently released cache when it
// has the same set count (one of another geometry is left to the
// garbage collector).
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 {
		return nil, fmt.Errorf("cache: bad set count %d", cfg.Sets)
	}
	minBudget := cfg.TagBytes + cfg.Geom.RegionBytes
	if cfg.SetBudgetBytes < minBudget {
		return nil, fmt.Errorf("cache: set budget %d cannot hold one full region (%d)", cfg.SetBudgetBytes, minBudget)
	}
	maxBlocks := cfg.SetBudgetBytes / (cfg.TagBytes + mem.WordBytes)
	c, ok := released.Get()
	if !ok || len(c.sets) != cfg.Sets {
		// Carve every set's first slots from one slab: a fixed 64 B set
		// (four blocks in 288 B) never grows, and an Amoeba set grows
		// only once it holds more than setSlots blocks.
		n := min(setSlots, maxBlocks)
		slab := make([]Block, cfg.Sets*n)
		c = &Cache{sets: make([]set, cfg.Sets)}
		for i := range c.sets {
			c.sets[i].blocks = slab[i*n : i*n : (i+1)*n]
		}
	} else {
		// A reused set keeps the capacity it grew to; emptying it is
		// enough, since Insert writes every field of a block it places.
		for i := range c.sets {
			c.sets[i] = set{blocks: c.sets[i].blocks[:0]}
		}
	}
	c.cfg, c.maxBlocks, c.tick = cfg, maxBlocks, 0
	return c, nil
}

// setSlots is each set's initial block capacity, carved from one slab
// per cache.
const setSlots = 4

// released holds the storage of released caches for New to reuse.
var released recycle.Pool[*Cache]

// Release hands the cache's storage to the pool New draws from. The
// cache, and every *Block it returned, must not be used afterwards.
// While recycle.Poison is set, every block slot is overwritten with a
// non-zero pattern first.
func (c *Cache) Release() {
	if recycle.Poison.Load() {
		poison := Block{Region: ^mem.RegionID(0), R: mem.Range{End: mem.MaxRegionWords - 1}, State: Modified,
			Read: ^mem.Bitmap(0), Wrote: ^mem.Bitmap(0), Refs: ^uint64(0), FetchPC: ^uint64(0), lru: ^uint64(0)}
		for w := range poison.Data {
			poison.Data[w] = 0xdeadbeefdeadbeef
		}
		for i := range c.sets {
			blocks := c.sets[i].blocks[:cap(c.sets[i].blocks)]
			for j := range blocks {
				blocks[j] = poison
			}
			c.sets[i] = set{blocks: blocks, bytesUsed: 1 << 30}
		}
		c.tick = ^uint64(0) >> 1
	}
	released.Put(c)
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Cost is the storage charge for a block covering range r.
func (c *Cache) Cost(r mem.Range) int { return c.cfg.TagBytes + r.Bytes() }

func (c *Cache) setFor(region mem.RegionID) *set {
	return &c.sets[uint64(region)%uint64(c.cfg.Sets)]
}

// Lookup finds the block holding word w of the region, bumping its LRU
// recency. It returns nil on miss. The block pointer is valid until the
// next Insert or Extract* on the region's set.
func (c *Cache) Lookup(region mem.RegionID, w uint8) *Block {
	b := c.Peek(region, w)
	if b != nil {
		c.tick++
		b.lru = c.tick
	}
	return b
}

// Peek is Lookup without the LRU update.
func (c *Cache) Peek(region mem.RegionID, w uint8) *Block {
	blocks := c.setFor(region).blocks
	for i := range blocks {
		if b := &blocks[i]; b.Region == region && b.R.Contains(w) {
			return b
		}
	}
	return nil
}

// BlocksInRegion returns the resident blocks of a region (the CHECK
// step of a multi-block snoop), in set order. The returned slice is
// reused by the next BlocksInRegion call; the Block pointers point into
// set storage and stay valid until the next Insert or Extract* on the
// region's set.
func (c *Cache) BlocksInRegion(region mem.RegionID) []*Block {
	out := c.regionScratch[:0]
	blocks := c.setFor(region).blocks
	for i := range blocks {
		if blocks[i].Region == region {
			out = append(out, &blocks[i])
		}
	}
	c.regionScratch = out
	return out
}

// HasRegion reports whether any block of the region is resident.
func (c *Cache) HasRegion(region mem.RegionID) bool {
	blocks := c.setFor(region).blocks
	for i := range blocks {
		if blocks[i].Region == region {
			return true
		}
	}
	return false
}

// TrimFill shrinks a predicted fill range so it does not overlap any
// resident block of the region while still containing the missing word
// w. The Protozoa protocols never create overlapping blocks: a fill
// that would overlap a resident sub-block is trimmed to the free gap
// around the miss word.
func (c *Cache) TrimFill(region mem.RegionID, want mem.Range, w uint8) mem.Range {
	if !want.Contains(w) {
		want = want.Span(mem.OneWord(w))
	}
	resident := mem.Bitmap(0)
	blocks := c.setFor(region).blocks
	for i := range blocks {
		if blocks[i].Region == region {
			resident = resident.Union(blocks[i].R.Bitmap())
		}
	}
	start, end := w, w
	for start > want.Start && !resident.Has(start-1) {
		start--
	}
	for end < want.End && !resident.Has(end+1) {
		end++
	}
	return mem.Range{Start: start, End: end}
}

// Insert places a new block, evicting least-recently-used blocks from
// the set until it fits. Victims are returned for the protocol to
// write back (if dirty) or drop silently (if clean); the returned slice
// is reused by the next Insert call. Insert panics if the block would
// overlap a resident block of the same region — the protocol must
// TrimFill first — if its range is invalid, or if it carries a non-zero
// word outside its range.
func (c *Cache) Insert(b Block) []Block {
	if !b.R.Valid(c.cfg.Geom) {
		panic(fmt.Sprintf("cache: invalid range %v", b.R))
	}
	if w, stray := b.strayWord(); stray {
		panic(fmt.Sprintf("cache: inserting %v with non-zero word %d outside its range", b.R, w))
	}
	s := c.setFor(b.Region)
	for i := range s.blocks {
		if rb := &s.blocks[i]; rb.Region == b.Region && rb.R.Overlaps(b.R) {
			panic(fmt.Sprintf("cache: inserting %v overlaps resident %v in region %d", b.R, rb.R, b.Region))
		}
	}
	cost := c.Cost(b.R)
	victims := c.victimScratch[:0]
	for s.bytesUsed+cost > c.cfg.SetBudgetBytes {
		if len(s.blocks) == 0 {
			panic("cache: set budget exhausted with no victims")
		}
		vi := lruIndex(s.blocks)
		victims = append(victims, s.blocks[vi])
		s.removeAt(vi, c.Cost(s.blocks[vi].R))
	}
	c.victimScratch = victims
	if len(s.blocks) == cap(s.blocks) {
		// Grow by doubling, capped at the most blocks the set can hold,
		// so a full set carries no unusable slack.
		grown := make([]Block, len(s.blocks), min(2*len(s.blocks)+1, c.maxBlocks))
		copy(grown, s.blocks)
		s.blocks = grown
	}
	c.tick++
	b.lru = c.tick
	s.blocks = append(s.blocks, b)
	s.bytesUsed += cost
	if c.cfg.MergeBlocks {
		c.mergeLast(s)
	}
	return victims
}

// mergeLast coalesces the freshly inserted block — always the set's
// last — with same-region, same-state blocks exactly adjacent to it,
// repeating until no neighbour qualifies. Merging never overlaps (the
// non-overlap invariant holds before and after) and releases one tag
// per merge.
func (c *Cache) mergeLast(s *set) {
	for {
		nb := &s.blocks[len(s.blocks)-1]
		merged := false
		for i := range s.blocks[:len(s.blocks)-1] {
			ob := &s.blocks[i]
			if ob.Region != nb.Region || ob.State != nb.State {
				continue
			}
			switch {
			case ob.R.End+1 == nb.R.Start:
				nb.R.Start = ob.R.Start
			case nb.R.End+1 == ob.R.Start:
				nb.R.End = ob.R.End
			default:
				continue
			}
			// Both blocks index Data by region offset, so the absorbed
			// words land in place.
			copy(nb.Data[ob.R.Start:ob.R.End+1], ob.Data[ob.R.Start:ob.R.End+1])
			nb.Read = nb.Read.Union(ob.Read)
			nb.Wrote = nb.Wrote.Union(ob.Wrote)
			nb.Refs += ob.Refs
			// Remove the absorbed block; one tag's bytes come back.
			s.removeAt(i, c.cfg.TagBytes)
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

// lruIndex returns the index of the set's least-recently-used block
// (the first one on a tie).
func lruIndex(blocks []Block) int {
	vi := 0
	for i := range blocks {
		if blocks[i].lru < blocks[vi].lru {
			vi = i
		}
	}
	return vi
}

// removeAt deletes the set's i-th block, keeping the order of the
// rest, and releases freed bytes of its storage charge.
func (s *set) removeAt(i, freed int) {
	s.blocks = append(s.blocks[:i], s.blocks[i+1:]...)
	s.bytesUsed -= freed
}

// ExtractOverlapping removes and returns every resident block of the
// region overlapping r: the CHECK + GATHER steps of Figure 3. The
// protocol treats the gathered blocks as a single coherence operation.
// The returned slice is reused by the next Extract* call.
func (c *Cache) ExtractOverlapping(region mem.RegionID, r mem.Range) []Block {
	s := c.setFor(region)
	out := c.extractScratch[:0]
	kept := 0
	for i := range s.blocks {
		b := &s.blocks[i]
		if b.Region == region && b.R.Overlaps(r) {
			out = append(out, *b)
			s.bytesUsed -= c.Cost(b.R)
			continue
		}
		if kept != i {
			s.blocks[kept] = *b
		}
		kept++
	}
	s.blocks = s.blocks[:kept]
	c.extractScratch = out
	return out
}

// ExtractRegion removes and returns every resident block of the region
// (a full-region snoop, as in MESI and Protozoa-SW invalidations).
func (c *Cache) ExtractRegion(region mem.RegionID) []Block {
	return c.ExtractOverlapping(region, c.cfg.Geom.FullRange())
}

// Blocks calls fn for every resident block; used for end-of-run
// classification and invariant checks. fn must not Insert or Extract.
func (c *Cache) Blocks(fn func(*Block)) {
	for i := range c.sets {
		blocks := c.sets[i].blocks
		for j := range blocks {
			fn(&blocks[j])
		}
	}
}

// Usage reports the live utilization view: how many data words are
// resident and how many of those the core has touched since their
// fill — the instantaneous counterpart of the end-of-life used/unused
// classification.
func (c *Cache) Usage() (resident, touched int) {
	c.Blocks(func(b *Block) {
		resident += b.R.Words()
		touched += b.UsedWords()
	})
	return resident, touched
}

// BytesUsed reports the current storage occupancy, tags included.
func (c *Cache) BytesUsed() int {
	t := 0
	for i := range c.sets {
		t += c.sets[i].bytesUsed
	}
	return t
}

// CheckInvariants validates the structural invariants: ranges valid,
// no overlapping blocks within a region, no non-zero word outside a
// block's range, set byte accounting exact, and every block mapped to
// its home set. It returns the first violation found.
func (c *Cache) CheckInvariants() error {
	for si := range c.sets {
		s := &c.sets[si]
		bytes := 0
		for i := range s.blocks {
			b := &s.blocks[i]
			if !b.R.Valid(c.cfg.Geom) {
				return fmt.Errorf("set %d: block %d has invalid range %v", si, i, b.R)
			}
			if int(uint64(b.Region)%uint64(c.cfg.Sets)) != si {
				return fmt.Errorf("set %d: block region %d mapped to wrong set", si, b.Region)
			}
			if w, stray := b.strayWord(); stray {
				return fmt.Errorf("set %d: block %d %v holds non-zero word %d outside its range", si, i, b.R, w)
			}
			bytes += c.Cost(b.R)
			for j := i + 1; j < len(s.blocks); j++ {
				ob := &s.blocks[j]
				if ob.Region == b.Region && ob.R.Overlaps(b.R) {
					return fmt.Errorf("set %d: overlapping blocks %v and %v in region %d", si, b.R, ob.R, b.Region)
				}
			}
		}
		if bytes != s.bytesUsed {
			return fmt.Errorf("set %d: bytesUsed %d != actual %d", si, s.bytesUsed, bytes)
		}
		if s.bytesUsed > c.cfg.SetBudgetBytes {
			return fmt.Errorf("set %d: over budget: %d > %d", si, s.bytesUsed, c.cfg.SetBudgetBytes)
		}
	}
	return nil
}
