package core

import (
	"fmt"
	"sort"

	"protozoa/internal/cache"
	"protozoa/internal/mem"
)

// Checker is the random-tester correctness oracle (Section 3.6). It
// observes a System and verifies, at every directory quiescent point:
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
	sys    *System
	golden map[mem.Addr]uint64

	// Checks counts quiescent-point scans performed.
	Checks int
	// Loads counts load values validated.
	Loads int

	violations []string

	// transcript is the flight recorder's tail captured at the first
	// violation (empty when the recorder is disabled): the record of
	// what the machine was doing when the invariant broke, before
	// later traffic rotates it out of the bounded rings.
	transcript string
}

// MaxViolations bounds the recorded diagnostics.
const MaxViolations = 32

// NewChecker attaches a fresh checker to the system as its observer.
func NewChecker(sys *System) *Checker {
	c := &Checker{sys: sys, golden: make(map[mem.Addr]uint64)}
	sys.SetObserver(c)
	return c
}

// Violations returns the recorded diagnostics.
func (c *Checker) Violations() []string { return c.violations }

// CheckerSummary is the serializable outcome of a checked run — what
// protozoa verify reports per cell, in a form the result cache can
// store and replay byte-identically.
type CheckerSummary struct {
	Loads      int
	Checks     int
	Violations []string `json:",omitempty"`
}

// Summary snapshots the checker's outcome.
func (c *Checker) Summary() CheckerSummary {
	return CheckerSummary{
		Loads:      c.Loads,
		Checks:     c.Checks,
		Violations: append([]string(nil), c.violations...),
	}
}

// Err summarizes the violations as an error, or nil if none occurred.
// When the flight recorder was enabled the error carries the transcript
// captured at the first violation, so a random-tester failure reads as
// a protocol trace instead of a bare invariant message.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	err := fmt.Errorf("checker: %d violation(s), first: %s", len(c.violations), c.violations[0])
	if c.transcript != "" {
		err = fmt.Errorf("%w\nflight transcript at first violation (last %d records):\n%s",
			err, violationTranscriptCap, c.transcript)
	}
	return err
}

// Transcript returns the flight-recorder tail captured at the first
// violation (empty when none occurred or the recorder was disabled).
func (c *Checker) Transcript() string { return c.transcript }

func (c *Checker) fail(format string, args ...interface{}) {
	if len(c.violations) == 0 {
		// Auto-dump on the first violation: snapshot the flight tail
		// now, while the records leading up to the break are still in
		// the rings.
		c.transcript = c.sys.flightTail(violationTranscriptCap)
	}
	if len(c.violations) < MaxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// OnStore implements Observer.
func (c *Checker) OnStore(_ int, addr mem.Addr, val uint64) {
	c.golden[addr] = val
}

// OnLoad implements Observer.
func (c *Checker) OnLoad(core int, addr mem.Addr, val uint64) {
	c.Loads++
	if want := c.golden[addr]; val != want {
		c.fail("core %d loaded %#x from %#x, want golden %#x", core, val, addr, want)
	}
}

// OnTxnEnd implements Observer.
func (c *Checker) OnTxnEnd(mem.RegionID) {
	c.Checks++
	c.checkValues()
	c.checkSWMR()
}

func (c *Checker) checkValues() {
	g := c.sys.Geometry()
	c.sys.ForEachCachedWord(func(core int, region mem.RegionID, w uint8, st cache.State, val uint64) {
		addr := g.WordAddr(region, w)
		if want := c.golden[addr]; val != want {
			c.fail("core %d caches %#x=%#x in %v, golden %#x", core, addr, val, st, want)
		}
	})
}

func (c *Checker) checkSWMR() {
	type key struct {
		region mem.RegionID
		w      uint8
	}
	wordWriters := make(map[key][]int)
	wordHolders := make(map[key][]int)
	regionWriters := make(map[mem.RegionID]map[int]bool)
	regionHolders := make(map[mem.RegionID]map[int]bool)

	c.sys.ForEachCachedWord(func(core int, region mem.RegionID, w uint8, st cache.State, _ uint64) {
		k := key{region, w}
		wordHolders[k] = append(wordHolders[k], core)
		if regionHolders[region] == nil {
			regionHolders[region] = make(map[int]bool)
		}
		regionHolders[region][core] = true
		if st == cache.Modified || st == cache.Exclusive {
			wordWriters[k] = append(wordWriters[k], core)
			if regionWriters[region] == nil {
				regionWriters[region] = make(map[int]bool)
			}
			regionWriters[region][core] = true
		}
	})

	// Word-granularity SWMR holds for every protocol (region SWMR
	// implies it): a written word has exactly one holder.
	for k, writers := range wordWriters {
		if len(writers) > 1 {
			c.fail("word %d of region %d writable at cores %v", k.w, k.region, writers)
		}
		if len(wordHolders[k]) > 1 {
			c.fail("word %d of region %d written at core %d but cached at %v",
				k.w, k.region, writers[0], wordHolders[k])
		}
	}

	switch c.sys.Protocol() {
	case MESI, ProtozoaSW:
		// Region-granularity SWMR: a region with any written word has
		// exactly one L1 caching anything of it.
		for region, writers := range regionWriters {
			if len(writers) > 0 && len(regionHolders[region]) > 1 {
				c.fail("%v: region %d has writer(s) %v and holders %v",
					c.sys.Protocol(), region, coreList(writers), coreList(regionHolders[region]))
			}
		}
	case ProtozoaSWMR:
		// At most one writing core per region.
		for region, writers := range regionWriters {
			if len(writers) > 1 {
				c.fail("SW+MR: region %d has %d writers %v", region, len(writers), coreList(writers))
			}
		}
	}
}

func coreList(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
