package core

import (
	"fmt"
	"math/bits"
	"slices"

	"protozoa/internal/cache"
	"protozoa/internal/mem"
	"protozoa/internal/obs/flight"
	"protozoa/internal/trace"
)

// Checker is the random-tester correctness oracle (Section 3.6). It
// observes a System and verifies, at every directory quiescent point,
// for every region an L1 step touched since the previous one:
//
//   - word-granularity SWMR: a word cached with write permission (M or
//     E) anywhere has exactly one holder system-wide;
//   - the protocol's own granularity: region-level SWMR for MESI and
//     Protozoa-SW, at most one writing core per region for
//     Protozoa-SW+MR;
//   - value integrity: every cached word equals the golden value (the
//     last value written in coherence order), catching lost
//     writebacks, stale copies, and mis-patched L2 data;
//   - load integrity: every completed load observed the golden value.
//
// Violations are recorded (up to MaxViolations) rather than panicking,
// so tests and the protozoa verify tool can report them.
type Checker struct {
	// CheckerSummary holds the counts: Checks, the transaction ends
	// (quiescent points) checked, and Loads, the load values validated.
	CheckerSummary

	sys    *System
	golden map[mem.Addr]uint64

	// transcript is the flight recorder's tail captured at the first
	// violation (empty when the recorder is disabled): the record of
	// what the machine was doing when the invariant broke, before
	// later traffic rotates it out of the bounded rings.
	transcript string

	// changed lists the regions L1 steps touched since the last check,
	// repeats included (each L1 state edge appends).
	changed []mem.RegionID
}

// MaxViolations bounds the recorded diagnostics.
const MaxViolations = 32

// NewChecker subscribes a fresh checker to the system's L1 state
// edges, transaction ends and values, which arms word values, so it
// must be called before the run (later it panics). The run ends with a
// CheckAll.
func NewChecker(sys *System) *Checker {
	c := &Checker{sys: sys, golden: make(map[mem.Addr]uint64)}
	sys.subscribe(view{kinds: checkerKinds, see: c.see, end: c.CheckAll})
	return c
}

// see applies one record: an L1 state edge marks its region for the
// next check, a transaction end checks, and a value record is a store
// to remember or a load to validate.
func (c *Checker) see(r *flight.Record) {
	switch r.Kind {
	case flight.KindL1State:
		c.changed = append(c.changed, mem.RegionID(r.Region))
	case flight.KindTxnEnd:
		// An unblock, not a recall's end: check the regions L1 steps
		// touched since the last check. A verdict reads only a region's
		// L1 blocks and golden words, and both change only in an L1 step
		// (a store retires into an L1 block), so the untouched regions
		// still pass.
		if r.Sub == flight.SubNone {
			c.Checks++
			c.check()
		}
	case kindValue:
		addr := mem.Addr(r.Region)
		switch trace.Kind(r.Sub) {
		case trace.Store:
			c.golden[addr] = r.Txn
		case trace.RMW:
			// A load of the old value and a store of old+1.
			c.load(int(r.Src), addr, r.Txn)
			c.golden[addr] = r.Txn + 1
		default:
			c.load(int(r.Src), addr, r.Txn)
		}
	}
}

// Violations returns the recorded diagnostics.
func (c *Checker) Violations() []string { return c.CheckerSummary.Violations }

// CheckerSummary is the serializable outcome of a checked run — what
// protozoa verify reports per cell, in a form the result cache can
// store and replay byte-identically.
type CheckerSummary struct {
	Loads      int
	Checks     int
	Violations []string `json:",omitempty"`
}

// Summary snapshots the checker's outcome.
func (c *Checker) Summary() *CheckerSummary {
	s := c.CheckerSummary
	s.Violations = slices.Clone(s.Violations)
	return &s
}

// Err summarizes the violations as an error, or nil if none occurred.
func (s *CheckerSummary) Err() error {
	if len(s.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("checker: %d violation(s), first: %s", len(s.Violations), s.Violations[0])
}

// Err is CheckerSummary.Err, plus, when the flight recorder was
// enabled, the transcript captured at the first violation, so a
// random-tester failure reads as a protocol trace instead of a bare
// invariant message.
func (c *Checker) Err() error {
	err := c.CheckerSummary.Err()
	if err != nil && c.transcript != "" {
		err = fmt.Errorf("%w\nflight transcript at first violation (last %d records):\n%s",
			err, violationTranscriptCap, c.transcript)
	}
	return err
}

// Transcript returns the flight-recorder tail captured at the first
// violation (empty when none occurred or the recorder was disabled).
func (c *Checker) Transcript() string { return c.transcript }

func (c *Checker) fail(format string, args ...interface{}) {
	if len(c.Violations()) == 0 {
		// Auto-dump on the first violation: snapshot the flight tail
		// now, while the records leading up to the break are still in
		// the rings.
		c.transcript = c.sys.flightTail(violationTranscriptCap)
	}
	if v := &c.CheckerSummary.Violations; len(*v) < MaxViolations {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

// load validates a completed load against the golden value.
func (c *Checker) load(core int, addr mem.Addr, val uint64) {
	c.Loads++
	if want := c.golden[addr]; val != want {
		c.fail("core %d loaded %#x from %#x, want golden %#x", core, val, addr, want)
	}
}

// CheckAll checks every region cached in any L1. System.Run calls it
// once when a checked run ends; it does not count as a check.
func (c *Checker) CheckAll() {
	for _, l1 := range c.sys.l1s {
		l1.cache.Blocks(func(b *cache.Block) { c.changed = append(c.changed, b.Region) })
	}
	c.check()
}

// check checks each changed region once, in ascending order, and
// empties the list.
func (c *Checker) check() {
	slices.Sort(c.changed)
	for _, r := range slices.Compact(c.changed) {
		c.checkRegion(r)
	}
	c.changed = c.changed[:0]
}

// checkRegion checks one region across every L1: each cached word
// against its golden value, then word SWMR, then the protocol's own
// region rule. Core sets are bitmasks (at most 32 cores); a writer
// holds the word in M or E.
func (c *Checker) checkRegion(region mem.RegionID) {
	g := c.sys.Geometry()
	var holders, writers [mem.MaxRegionWords]uint32
	for _, l1 := range c.sys.l1s {
		blocks := l1.cache.BlocksInRegion(region)
		if len(blocks) == 0 {
			continue
		}
		data := l1.words.of(region)
		for _, b := range blocks {
			for w := b.R.Start; w <= b.R.End; w++ {
				addr := g.WordAddr(region, w)
				if val, want := data[w], c.golden[addr]; val != want {
					c.fail("core %d caches %#x=%#x in %v, golden %#x", l1.id, addr, val, b.State, want)
				}
				holders[w] |= 1 << l1.id
				if b.State == cache.Modified || b.State == cache.Exclusive {
					writers[w] |= 1 << l1.id
				}
			}
		}
	}

	// Word-granularity SWMR holds for every protocol (region SWMR
	// implies it): a written word has exactly one holder.
	var regionHolders, regionWriters uint32
	for w, wr := range writers {
		regionHolders |= holders[w]
		regionWriters |= wr
		if wr == 0 {
			continue
		}
		if bits.OnesCount32(wr) > 1 {
			c.fail("word %d of region %d writable at cores %v", w, region, coreList(wr))
		}
		if bits.OnesCount32(holders[w]) > 1 {
			c.fail("word %d of region %d written at core %d but cached at %v",
				w, region, bits.TrailingZeros32(wr), coreList(holders[w]))
		}
	}

	switch c.sys.Protocol() {
	case MESI, ProtozoaSW:
		// Region-granularity SWMR: a region with any written word has
		// exactly one L1 caching anything of it.
		if regionWriters != 0 && bits.OnesCount32(regionHolders) > 1 {
			c.fail("%v: region %d has writer(s) %v and holders %v",
				c.sys.Protocol(), region, coreList(regionWriters), coreList(regionHolders))
		}
	case ProtozoaSWMR:
		// At most one writing core per region.
		if n := bits.OnesCount32(regionWriters); n > 1 {
			c.fail("SW+MR: region %d has %d writers %v", region, n, coreList(regionWriters))
		}
	}
}

// coreList lists the cores of a core bitmask in ascending order.
func coreList(mask uint32) []int {
	out := make([]int, 0, bits.OnesCount32(mask))
	for ; mask != 0; mask &= mask - 1 {
		out = append(out, bits.TrailingZeros32(mask))
	}
	return out
}
