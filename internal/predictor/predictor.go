// Package predictor implements the spatial-locality predictor that
// decides the Start/End range an L1 miss requests — the PC-based
// predictor of the Amoeba-Cache paper that Protozoa leverages
// (Section 4: "we also leverage the PC-predictor discussed in the
// Amoeba-cache paper").
//
// The predictor learns, per miss PC, how far around the missing word
// the application actually reads before the block dies. Each entry
// stores left/right word extents relative to the trigger word; on
// every block eviction or invalidation the observed touch bitmap is
// fed back and the extents move toward the observation. A cold entry
// predicts the full region, so well-behaved streaming code starts with
// MESI-like spatial prefetching and sparse code quickly shrinks to
// word-sized fetches.
package predictor

import (
	"protozoa/internal/mem"
	"protozoa/internal/recycle"
)

// Predictor chooses a fetch range for a miss and learns from evicted
// blocks' usage.
type Predictor interface {
	// Predict returns the range to request for a miss at word w of the
	// region, triggered by instruction pc. The result always contains w.
	Predict(pc uint64, region mem.RegionID, w uint8) mem.Range
	// Train feeds back a dead block: the PC and word that fetched it,
	// the region it lived in, and the words the core actually touched
	// while it was resident.
	Train(pc uint64, region mem.RegionID, trigger uint8, touched mem.Bitmap, r mem.Range)
}

// Fixed always predicts the full region: the fixed-granularity
// behaviour of the MESI baseline.
type Fixed struct {
	Geom mem.Geometry
}

// Predict returns the full region regardless of history.
func (f Fixed) Predict(uint64, mem.RegionID, uint8) mem.Range { return f.Geom.FullRange() }

// Train is a no-op for the fixed predictor.
func (f Fixed) Train(uint64, mem.RegionID, uint8, mem.Bitmap, mem.Range) {}

// Spatial is the PC-indexed adaptive predictor.
type Spatial struct {
	geom    mem.Geometry
	entries []spatialEntry
}

// Region is the region-history variant the Amoeba-Cache paper also
// evaluates: instead of indexing by miss PC, it remembers each
// region's last observed usage bitmap and predicts the contiguous run
// around the missing word. It captures data-structure-specific layouts
// the PC predictor blurs (one PC touching differently shaped objects),
// at the cost of one entry per hot region.
type Region struct {
	geom    mem.Geometry
	entries []regionEntry
}

type regionEntry struct {
	region mem.RegionID
	valid  bool
	usage  mem.Bitmap
}

// NewRegion builds a region-history predictor with the given
// direct-mapped table size (rounded up to a power of two).
func NewRegion(geom mem.Geometry, tableSize int) *Region {
	if tableSize <= 0 {
		tableSize = DefaultTableSize
	}
	n := 1
	for n < tableSize {
		n <<= 1
	}
	return &Region{geom: geom, entries: make([]regionEntry, n)}
}

func (r *Region) slot(region mem.RegionID) *regionEntry {
	h := uint64(region) * 0x9E3779B97F4A7C15
	return &r.entries[h>>32&uint64(len(r.entries)-1)]
}

// Predict returns the remembered contiguous usage run around w, the
// full region when the history is cold, or a single word when the
// history says w was not used before (a fresh access pattern).
func (r *Region) Predict(_ uint64, region mem.RegionID, w uint8) mem.Range {
	e := r.slot(region)
	if !e.valid || e.region != region {
		return r.geom.FullRange()
	}
	if run, ok := e.usage.RunContaining(w, r.geom); ok {
		return run
	}
	return mem.OneWord(w)
}

// Train replaces the block's span of the region's remembered usage
// with the observed bitmap, so the entry converges to the region's
// live footprint even when several blocks cover it.
func (r *Region) Train(_ uint64, region mem.RegionID, _ uint8, touched mem.Bitmap, rng mem.Range) {
	e := r.slot(region)
	if !e.valid || e.region != region {
		*e = regionEntry{region: region, valid: true, usage: touched.Intersect(rng.Bitmap())}
		return
	}
	e.usage = e.usage.Intersect(rng.Bitmap() ^ mem.Bitmap(0xFFFF)).Union(touched.Intersect(rng.Bitmap()))
}

type spatialEntry struct {
	pc          uint64
	valid       bool
	left, right uint8 // predicted extent around the trigger word
	shrink      uint8 // consecutive narrower-than-predicted observations
}

// DefaultTableSize matches a small direct-mapped hardware table.
const DefaultTableSize = 512

// NewSpatial builds a spatial predictor with the given direct-mapped
// table size (rounded up to a power of two). It reuses, cleared, a
// table a released predictor left when one of that size is at hand.
func NewSpatial(geom mem.Geometry, tableSize int) *Spatial {
	if tableSize <= 0 {
		tableSize = DefaultTableSize
	}
	n := 1
	for n < tableSize {
		n <<= 1
	}
	entries, ok := releasedTables.Get()
	if ok && len(entries) == n {
		clear(entries)
	} else {
		entries = make([]spatialEntry, n)
	}
	return &Spatial{geom: geom, entries: entries}
}

// releasedTables holds the tables of released predictors for
// NewSpatial to reuse.
var releasedTables recycle.Pool[[]spatialEntry]

// Release hands the predictor's table to the pool NewSpatial draws
// from; the predictor must not be used afterwards. While recycle.Poison
// is set, every entry keeps its PC and valid bit but is set to predict
// a single word first, so a later predictor that skipped the clear
// would mispredict any PC the table already knew.
func (s *Spatial) Release() {
	if recycle.Poison.Load() {
		for i := range s.entries {
			e := &s.entries[i]
			e.left, e.right, e.shrink = 0, 0, shrinkAfter-1
		}
	}
	releasedTables.Put(s.entries)
	s.entries = nil
}

func (s *Spatial) slot(pc uint64) *spatialEntry {
	h := pc * 0x9E3779B97F4A7C15
	return &s.entries[h>>32&uint64(len(s.entries)-1)]
}

// Predict returns the learned extent around w, clamped to the region,
// or the full region when the PC has no history.
func (s *Spatial) Predict(pc uint64, _ mem.RegionID, w uint8) mem.Range {
	e := s.slot(pc)
	if !e.valid || e.pc != pc {
		return s.geom.FullRange()
	}
	start := 0
	if int(w) > int(e.left) {
		start = int(w) - int(e.left)
	}
	end := int(w) + int(e.right)
	if maxW := s.geom.WordsPerRegion() - 1; end > maxW {
		end = maxW
	}
	return mem.Range{Start: uint8(start), End: uint8(end)}
}

// shrinkAfter is the hysteresis threshold: only after this many
// consecutive narrower observations does the predicted extent shrink.
// Blocks that die young — typically killed by a coherence invalidation
// before the core finished walking them (the paper's false-sharing
// workloads do this constantly) — would otherwise train the extent
// into a 1-word death spiral: shorter fills mean more misses, more
// misses mean more invalidation deaths, and so on.
const shrinkAfter = 4

// Train updates the PC's extents from the observed usage. Wider
// observations grow the prediction immediately (missed spatial
// locality is the expensive mistake); narrower ones shrink it only
// after shrinkAfter consecutive confirmations.
func (s *Spatial) Train(pc uint64, _ mem.RegionID, trigger uint8, touched mem.Bitmap, r mem.Range) {
	// Observed extents: distance from the trigger word to the farthest
	// touched words. An untouched block trains toward a single word.
	left, right := 0, 0
	for w := r.Start; ; w++ {
		if touched.Has(w) {
			if d := int(trigger) - int(w); d > left {
				left = d
			}
			if d := int(w) - int(trigger); d > right {
				right = d
			}
		}
		if w == r.End {
			break
		}
	}
	e := s.slot(pc)
	if !e.valid || e.pc != pc {
		*e = spatialEntry{pc: pc, valid: true, left: uint8(left), right: uint8(right)}
		return
	}
	if left >= int(e.left) && right >= int(e.right) {
		e.left, e.right = uint8(left), uint8(right)
		e.shrink = 0
		return
	}
	e.shrink++
	if e.shrink >= shrinkAfter {
		e.left = uint8((int(e.left) + left + 1) / 2)
		e.right = uint8((int(e.right) + right + 1) / 2)
		e.shrink = 0
	}
}
