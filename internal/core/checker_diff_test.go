package core

// The incremental oracle checks, at each transaction end, only the
// regions an L1 step touched since the previous one. These tests run
// it beside the whole-machine check at every transaction end and
// require the two to agree: the same loads checked, the same number
// of checks, and the same first violation at the same transaction. A
// step that changes an L1 block without emitting an L1 state edge
// would let the whole-machine check see a violation first. On a
// correct machine neither sees one, so the pair also compares every
// L1's blocks with the previous transaction end's and requires each
// region whose blocks were inserted, re-stated or rewritten to be in
// the feed (a block that only left cannot break an invariant, and
// evictions are not fed).

import (
	"fmt"
	"slices"
	"testing"

	"protozoa/internal/cache"
	"protozoa/internal/mem"
	"protozoa/internal/obs/flight"
	"protozoa/internal/workloads"
)

// oraclePair runs two checkers side by side on one machine: inc, the
// incremental oracle, and full, which checks every cached region at
// every transaction end. The pair is the machine's one checker view.
type oraclePair struct {
	sys       *System
	inc, full *Checker
	// incAt and fullAt are the transaction ends (1-based) at which each
	// checker recorded its first violation, 0 while it has none.
	incAt, fullAt int

	// blocks is every L1's blocks by region at the previous transaction
	// end; unfed lists the regions whose blocks changed without an L1
	// edge marking them.
	blocks map[mem.RegionID][]blockView
	unfed  []string
}

// blockView is what of an L1 block an oracle verdict reads.
type blockView struct {
	core  int
	r     mem.Range
	state cache.State
	data  [mem.MaxRegionWords]uint64
}

// attachOraclePair subscribes the pair to sys with a checker's kinds:
// inc sees every record and ends the run with its CheckAll; full sees
// only the values, so its feed stays empty.
func attachOraclePair(sys *System) *oraclePair {
	o := &oraclePair{sys: sys,
		inc:  &Checker{sys: sys, golden: make(map[mem.Addr]uint64)},
		full: &Checker{sys: sys, golden: make(map[mem.Addr]uint64)}}
	sys.subscribe(view{kinds: checkerKinds, see: o.see, end: o.inc.CheckAll})
	return o
}

// checkFeed compares every L1's blocks with the previous transaction
// end's: a region with a block that was not there before (inserted,
// re-stated or rewritten) must be in the incremental checker's feed.
func (o *oraclePair) checkFeed() {
	now := make(map[mem.RegionID][]blockView)
	for _, l1 := range o.sys.l1s {
		l1.cache.Blocks(func(b *cache.Block) {
			v := blockView{core: l1.id, r: b.R, state: b.State}
			copy(v.data[b.R.Start:b.R.End+1], l1.words.of(b.Region)[b.R.Start:b.R.End+1])
			now[b.Region] = append(now[b.Region], v)
		})
	}
	for region, views := range now {
		if slices.Contains(o.inc.changed, region) {
			continue
		}
		for _, v := range views {
			if !slices.Contains(o.blocks[region], v) {
				o.unfed = append(o.unfed, fmt.Sprintf("transaction end %d: region %d core %d %v %v",
					o.inc.Checks+1, region, v.core, v.r, v.state))
				break
			}
		}
	}
	o.blocks = now
}

// see hands one record to the checkers. At each transaction end it
// first checks the feed, then lets inc check and runs full's
// whole-machine check.
func (o *oraclePair) see(r *flight.Record) {
	switch {
	case r.Kind == flight.KindL1State:
		o.inc.see(r)
		return
	case r.Kind != flight.KindTxnEnd:
		o.inc.see(r)
		o.full.see(r)
		return
	case r.Sub != flight.SubNone:
		return // a recall's end, no quiescent point
	}
	o.checkFeed()
	o.inc.see(r)
	o.full.Checks++
	o.full.CheckAll()
	if o.incAt == 0 && len(o.inc.Violations()) > 0 {
		o.incAt = o.inc.Checks
	}
	if o.fullAt == 0 && len(o.full.Violations()) > 0 {
		o.fullAt = o.full.Checks
	}
}

// first returns a checker's first violation, "" when it has none.
func first(c *Checker) string {
	if v := c.Violations(); len(v) > 0 {
		return v[0]
	}
	return ""
}

// runOraclePair runs sys under both oracles and fails the test when
// they disagree. poison, when non-nil, runs on the pair before the
// run. It returns the pair for further checks. System.Run ends with
// the incremental checker's CheckAll, so full ends with one too.
func runOraclePair(t *testing.T, name string, sys *System, poison func(*oraclePair)) *oraclePair {
	t.Helper()
	o := attachOraclePair(sys)
	if poison != nil {
		poison(o)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	o.full.CheckAll()
	if o.inc.Loads != o.full.Loads || o.inc.Checks != o.full.Checks {
		t.Errorf("%s: incremental checked %d loads at %d transaction ends, whole-machine %d at %d",
			name, o.inc.Loads, o.inc.Checks, o.full.Loads, o.full.Checks)
	}
	if a, b := first(o.inc), first(o.full); a != b || o.incAt != o.fullAt {
		t.Errorf("%s: first violation: incremental %q at transaction end %d, whole-machine %q at %d",
			name, a, o.incAt, b, o.fullAt)
	}
	if o.inc.Checks == 0 {
		t.Errorf("%s: no transaction end checked", name)
	}
	if len(o.unfed) > 0 {
		t.Errorf("%s: %d block changes the feed missed, first: %s", name, len(o.unfed), o.unfed[0])
	}
	if o.incAt != 0 {
		t.Logf("%s: first violation at transaction end %d: %s", name, o.incAt, first(o.inc))
	}
	return o
}

// mustBeClean fails the test when a correct machine reported a
// violation.
func mustBeClean(t *testing.T, o *oraclePair) {
	t.Helper()
	if v := first(o.inc); v != "" {
		t.Errorf("violation on a correct machine: %s", v)
	}
}

// TestOraclesAgreeRandomTester runs the random tester under every
// protocol, with 3-hop forwarding off and on, on the default machine,
// the bloom directory, a 2-set L1 that evicts constantly and an L2 of
// four regions per tile that recalls. Each machine runs twice: as it
// is, and with a poisoned golden value in every region, which the
// oracles must flag at the same transaction end (the first fill that
// brings a poisoned word into an L1 without loading it).
func TestOraclesAgreeRandomTester(t *testing.T) {
	machines := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"bloom", func(c *Config) { c.Directory = DirBloom }},
		{"small-l1", func(c *Config) { c.L1Sets, c.L1SetBudget = 2, 144 }},
		{"l2-4-regions", func(c *Config) { c.L2RegionsPerTile = 4 }},
	}
	for _, p := range AllProtocols {
		for _, threeHop := range []bool{false, true} {
			for _, m := range machines {
				name := fmt.Sprintf("%v/threehop=%v/%s", p, threeHop, m.name)
				t.Run(name, func(t *testing.T) {
					cfg := testConfig(p, 4)
					cfg.ThreeHop = threeHop
					m.mutate(&cfg)
					recs := workloads.RandomRecords(4, 1500, 12, 40, 31)
					sys, err := NewSystem(cfg, recs)
					if err != nil {
						t.Fatal(err)
					}
					mustBeClean(t, runOraclePair(t, name, sys, nil))

					if sys, err = NewSystem(cfg, recs); err != nil {
						t.Fatal(err)
					}
					o := runOraclePair(t, name+"/poisoned", sys, func(o *oraclePair) {
						for r := 0; r < 12; r++ {
							addr := mem.Addr(r*64 + 5*8)
							o.inc.golden[addr] = 0xbad
							o.full.golden[addr] = 0xbad
						}
					})
					if first(o.inc) == "" {
						t.Error("poisoned golden values went unflagged")
					}
				})
			}
		}
	}
}

// TestOraclesAgreeLitmus runs every litmus program over its delay
// sweep, on the plain machine and with the Section 6 extensions.
func TestOraclesAgreeLitmus(t *testing.T) {
	programs := []struct {
		name    string
		threads []litmusThread
		delays  [][]uint16
		mutate  func(*Config)
	}{
		{"MP", litmusMP, sweep2, nil},
		{"SB", litmusSB, sweep2, nil},
		{"CoRR", litmusCoRR, sweep2, nil},
		{"IRIW", litmusIRIW, sweep4, nil},
		{"MP/extensions", litmusMP, sweep2, litmusExtensions},
	}
	for _, p := range AllProtocols {
		for _, prog := range programs {
			t.Run(fmt.Sprintf("%v/%s", p, prog.name), func(t *testing.T) {
				for _, delays := range prog.delays {
					sys := litmusSystem(t, p, prog.threads, delays, prog.mutate)
					mustBeClean(t, runOraclePair(t, fmt.Sprintf("delays %v", delays), sys, nil))
				}
			})
		}
	}
}

// TestOraclesAgreeMicros runs every micro-benchmark under every
// protocol.
func TestOraclesAgreeMicros(t *testing.T) {
	for _, spec := range workloads.Micros() {
		for _, p := range AllProtocols {
			name := fmt.Sprintf("%s/%v", spec.Name, p)
			t.Run(name, func(t *testing.T) {
				sys, err := NewSystem(testConfig(p, 4), spec.Records(4, 1, 0))
				if err != nil {
					t.Fatal(err)
				}
				mustBeClean(t, runOraclePair(t, name, sys, nil))
			})
		}
	}
}
