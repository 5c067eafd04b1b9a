// Package attrib attributes coherence traffic to the regions and cores
// that cause it. A Tracker accumulates, per region, the word-level
// reader/writer footprint of every core, the fetched-vs-used word
// balance of every fill, and the invalidations and upgrades the region
// suffered — enough to answer the two questions the paper's motivation
// rests on: what fraction of fetched data is ever used (§1-2 cache
// utilization), and which sharing pattern explains the traffic
// (private, read-only, false-shared, migratory, read-write).
//
// Like the rest of internal/obs, the package knows nothing about the
// protocol engine: core.System.EnableAttribution subscribes a Tracker
// to the machine's one emit and applies its fill, death, invalidation,
// upgrade and fan-out records, so a run without attribution pays one
// kind-mask test per potential record.
//
// Accounting discipline: fetched words are counted once per fill, and
// classified used/unused exactly once when the block dies (eviction,
// invalidation, or the end-of-run residual flush) — so after a
// complete run, FetchedWords == UsedWords + UnusedWords holds exactly
// (Reconcile checks it, globally and per region).
package attrib

import (
	"fmt"
	"sort"

	"protozoa/internal/mem"
)

// Pattern classifies a region's observed sharing behaviour from its
// reader/writer word footprints and invalidation history.
type Pattern uint8

const (
	// Untouched: no recorded accesses (a region seen only via probes).
	Untouched Pattern = iota
	// Private: exactly one core touched the region.
	Private
	// ReadOnly: multiple cores, no writer.
	ReadOnly
	// Partitioned: multiple cores with word-disjoint footprints that
	// the protocol resolved without sustained coherence churn
	// (Protozoa-MW on the Figure 1 counter line — at most a cold-start
	// transient while the predictor converges).
	Partitioned
	// FalseShared: word-disjoint sharing that still causes sustained
	// invalidation/upgrade churn — cores fight over a region none of
	// whose words they actually share (what region-granularity
	// coherence does to the Figure 1 counter line).
	FalseShared
	// Migratory: cores conflict on words they both read and write —
	// the read-modify-write token (lock, shared counter) that migrates
	// core to core.
	Migratory
	// ReadWrite: true word-level read-write sharing (producer/consumer
	// and everything else).
	ReadWrite

	// NumPatterns sizes per-pattern count arrays.
	NumPatterns
)

var patternNames = [NumPatterns]string{
	"untouched", "private", "read-only", "partitioned", "false-shared", "migratory", "read-write",
}

func (p Pattern) String() string {
	if p < NumPatterns {
		return patternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", uint8(p))
}

// Footprint is one core's references to one region since they were
// last folded into a tracker: the words read and written (an RMW is a
// write) and the reference count. An L1 block folds its own at death.
type Footprint struct {
	Read, Wrote mem.Bitmap
	Refs        uint64
}

// regionTally is one region's accumulated attribution. It holds no
// pointer, so the garbage collector never scans the tracker's tables.
type regionTally struct {
	id mem.RegionID

	accesses              uint64 // CPU references (churn-rate denominator)
	fetched, used, unused uint64 // words
	fills, deaths         uint64
	invals                uint64 // invalidation events that took words from an L1
	invWords              uint64 // words those events took
	upgrades              uint64
	probes                uint64 // directory probe messages fanned out

	invRow     uint32 // 1 + row index in Tracker.invRows; 0 = no core-attributed invalidation yet
	recallInvs uint32 // invalidations from L2 inclusion recalls (no core)

	pattern Pattern
	dirty   bool // an input to classify (footprint, references, invalidations, upgrades) changed since it last ran
}

// Tracker accumulates attribution for one run. It is single-goroutine
// like the machine it observes; snapshot methods (Summary, TopOffenders,
// PatternCounts, ...) may be called mid-run or after.
//
// Region state is kept by value in pointer-free tables indexed by state
// index: states, foot (2*cores bitmaps per region, readers then
// writers) and invRows (cores counters per row, allocated on a region's
// first core-attributed invalidation). index maps region ID to 1 + it.
//
// The exported counter fields are hot-path-updated totals; treat them
// as read-only outside this package.
type Tracker struct {
	cores   int
	index   mem.RegionTable[uint32]
	states  []regionTally
	foot    []mem.Bitmap
	invRows []uint32

	// last memoizes 1 + the state index of the most recent lookup:
	// consecutive calls hit the same region almost always.
	last uint32

	// dirtyList holds the state indices whose classification is stale;
	// flushed lazily so updates stay a bitmap OR plus a flag.
	dirtyList     []uint32
	patternCounts [NumPatterns]uint64

	// Run totals, in words unless noted.
	FetchedWords uint64 // words brought into L1s by fills
	UsedWords    uint64 // fetched words touched before their block died
	UnusedWords  uint64 // fetched words never touched (wasted NoC bytes)
	Fills        uint64
	Deaths       uint64

	Invalidations       uint64 // events where a probe took words from an L1
	InvWordsLost        uint64 // words those events took
	Upgrades            uint64 // write-to-Shared upgrade misses
	ProbeMsgs           uint64 // directory probe messages fanned out
	RecallInvalidations uint64 // invalidations from L2 inclusion recalls

	InvByOffender  []uint64 // per requester core whose request invalidated others
	InvByVictim    []uint64 // per core that lost words (== stats.PerCore Invalidations)
	UpgradesByCore []uint64
}

// New returns a Tracker for a machine with the given core count.
func New(cores int) *Tracker {
	return &Tracker{
		cores:          cores,
		InvByOffender:  make([]uint64, cores),
		InvByVictim:    make([]uint64, cores),
		UpgradesByCore: make([]uint64, cores),
	}
}

// RegionCount reports how many distinct regions have attribution state.
func (t *Tracker) RegionCount() int { return len(t.states) }

// state returns the region's state index, registering the region on
// first sight.
func (t *Tracker) state(id mem.RegionID) uint32 {
	if l := t.last; l != 0 && t.states[l-1].id == id {
		return l - 1
	}
	l := t.index.Get(uint64(id))
	if l == 0 {
		l = uint32(len(t.states)) + 1
		t.states = append(t.states, regionTally{id: id})
		t.foot = append(t.foot, make([]mem.Bitmap, 2*t.cores)...)
		t.index.Set(uint64(id), l)
		t.markDirty(l - 1)
		t.patternCounts[Untouched]++
	}
	t.last = l
	return l - 1
}

// footOf returns state i's footprint bitmaps.
func (t *Tracker) footOf(i uint32) []mem.Bitmap {
	n := 2 * t.cores
	return t.foot[int(i)*n : int(i+1)*n : int(i+1)*n]
}

// invRowOf returns state i's per-core invalidation row. A state without
// one gets a zeroed row when grow is set, and nil otherwise.
func (t *Tracker) invRowOf(i uint32, grow bool) []uint32 {
	if t.states[i].invRow == 0 {
		if !grow {
			return nil
		}
		t.invRows = append(t.invRows, make([]uint32, t.cores)...)
		t.states[i].invRow = uint32(len(t.invRows) / t.cores)
	}
	row := int(t.states[i].invRow)
	return t.invRows[(row-1)*t.cores : row*t.cores : row*t.cores]
}

func (t *Tracker) markDirty(i uint32) {
	if r := &t.states[i]; !r.dirty {
		r.dirty = true
		t.dirtyList = append(t.dirtyList, i)
	}
}

// Fold adds core's references to the region. Footprint bits are
// idempotent, so folding a word twice is harmless; Refs count once.
func (t *Tracker) Fold(core int, region mem.RegionID, f Footprint) {
	t.fold(t.state(region), core, f)
}

// fold marks the region dirty whenever it adds a footprint bit or a
// reference: classify's churn gate reads the access count, so a
// reference that touches no new word can still change the pattern.
func (t *Tracker) fold(i uint32, core int, f Footprint) {
	t.states[i].accesses += f.Refs
	foot := t.footOf(i)
	rd, wr := foot[core]|f.Read, foot[t.cores+core]|f.Wrote
	if rd != foot[core] || wr != foot[t.cores+core] || f.Refs != 0 {
		foot[core], foot[t.cores+core] = rd, wr
		t.markDirty(i)
	}
}

// Reference is the footprint of one reference to word w.
func Reference(w uint8, write bool) Footprint {
	if write {
		return Footprint{Wrote: mem.Bitmap(0).Set(w), Refs: 1}
	}
	return Footprint{Read: mem.Bitmap(0).Set(w), Refs: 1}
}

// Access records one CPU reference: core touched word w of the region,
// reading or writing. It is Fold's one-reference form, the trace-side
// profile's feed.
func (t *Tracker) Access(core int, region mem.RegionID, w uint8, write bool) {
	t.Fold(core, region, Reference(w, write))
}

// Fill records a data fill of the given word count into core's L1.
func (t *Tracker) Fill(core int, region mem.RegionID, words int) {
	r := &t.states[t.state(region)]
	r.fetched += uint64(words)
	r.fills++
	t.FetchedWords += uint64(words)
	t.Fills++
}

// Death records a block leaving an L1 (eviction, invalidation, or the
// end-of-run residual flush): used of its total words were touched,
// and f is the footprint of the references it served since it was
// last folded.
func (t *Tracker) Death(core int, region mem.RegionID, f Footprint, used, total int) {
	i := t.state(region)
	t.fold(i, core, f)
	r := &t.states[i]
	r.used += uint64(used)
	r.unused += uint64(total - used)
	r.deaths++
	t.UsedWords += uint64(used)
	t.UnusedWords += uint64(total - used)
	t.Deaths++
}

// Invalidation records a probe taking wordsLost words from victim's L1
// on behalf of requester core offender (-1 when no core is behind it —
// an L2 inclusion recall).
func (t *Tracker) Invalidation(region mem.RegionID, offender, victim, wordsLost int) {
	i := t.state(region)
	r := &t.states[i]
	r.invals++
	r.invWords += uint64(wordsLost)
	t.Invalidations++
	t.InvWordsLost += uint64(wordsLost)
	t.InvByVictim[victim]++
	if offender >= 0 {
		t.invRowOf(i, true)[offender]++
		t.InvByOffender[offender]++
	} else {
		r.recallInvs++
		t.RecallInvalidations++
	}
	t.markDirty(i)
}

// Upgrade records a write-to-Shared upgrade miss by core on the region.
func (t *Tracker) Upgrade(core int, region mem.RegionID) {
	i := t.state(region)
	t.states[i].upgrades++
	t.markDirty(i)
	t.Upgrades++
	t.UpgradesByCore[core]++
}

// Fanout records the directory probing `probes` L1s for the region.
func (t *Tracker) Fanout(region mem.RegionID, probes int) {
	t.states[t.state(region)].probes += uint64(probes)
	t.ProbeMsgs += uint64(probes)
}

// Trim classifies every region (a pure function of its state, so no
// result changes) and drops the tables' spare capacity; core.System.Run
// trims the tracker it keeps for reporting.
func (t *Tracker) Trim() {
	t.flushDirty()
	t.states = append([]regionTally(nil), t.states...)
	t.foot = append([]mem.Bitmap(nil), t.foot...)
	t.invRows = append([]uint32(nil), t.invRows...)
	t.dirtyList = nil
}

// falseShareAccessesPerChurn is the sustained-churn gate for the
// false-shared label: more than one invalidation or upgrade per this
// many accesses to the region. Steady ping-pong invalidates every few
// accesses (rate ~1 churn per 2 accesses per writer); a cold-start
// transient is a constant, so its rate falls below any fixed threshold
// as the run grows.
const falseShareAccessesPerChurn = 64

// classify derives the region's sharing pattern from its footprints;
// internal/profile coarsens it into the Section 2 classes.
func (t *Tracker) classify(i uint32) Pattern {
	r, foot := &t.states[i], t.footOf(i)
	touchers, writers := 0, 0
	for c := 0; c < t.cores; c++ {
		rd, wr := foot[c], foot[t.cores+c]
		if rd|wr != 0 {
			touchers++
		}
		if wr != 0 {
			writers++
		}
	}
	switch {
	case touchers == 0:
		return Untouched
	case touchers == 1:
		return Private
	case writers == 0:
		return ReadOnly
	}
	// Word-level conflict scan: a conflict word is written by someone
	// and touched by at least one other core. Migratory sharing is the
	// special conflict where every core on the word also writes it
	// (the RMW token); one writer plus readers is producer/consumer.
	conflict, migratory := false, true
	for w := uint8(0); w < mem.MaxRegionWords; w++ {
		wTouch, wWrite := 0, 0
		readerOnly := false
		for c := 0; c < t.cores; c++ {
			rd, wr := foot[c].Has(w), foot[t.cores+c].Has(w)
			if rd || wr {
				wTouch++
			}
			if wr {
				wWrite++
			}
			if rd && !wr {
				readerOnly = true
			}
		}
		if wWrite >= 1 && wTouch >= 2 {
			conflict = true
			if readerOnly || wWrite < 2 {
				migratory = false
			}
		}
	}
	if !conflict {
		// Word-disjoint sharing: whether it was a problem is empirical.
		// Region-granularity coherence churns over it (sustained
		// invalidations, or upgrade ping-pong under single-writer
		// revocation); word-granularity coherence lets the cores
		// coexist after a bounded cold-start transient. The rate gate
		// separates the two: real false-sharing churn scales with the
		// access count, a predictor-convergence transient is O(1), so
		// its rate vanishes on any run long enough to matter.
		if (r.invals+r.upgrades)*falseShareAccessesPerChurn > r.accesses {
			return FalseShared
		}
		return Partitioned
	}
	if migratory {
		return Migratory
	}
	return ReadWrite
}

// flushDirty re-classifies every region whose inputs changed since the
// last snapshot and maintains the per-pattern counts incrementally.
func (t *Tracker) flushDirty() {
	for _, i := range t.dirtyList {
		r := &t.states[i]
		if np := t.classify(i); np != r.pattern {
			t.patternCounts[r.pattern]--
			t.patternCounts[np]++
			r.pattern = np
		}
		r.dirty = false
	}
	t.dirtyList = t.dirtyList[:0]
}

// PatternCounts reports how many regions currently classify under each
// pattern.
func (t *Tracker) PatternCounts() [NumPatterns]uint64 {
	t.flushDirty()
	return t.patternCounts
}

// FalseSharedRegions reports the regions currently classified
// false-shared.
func (t *Tracker) FalseSharedRegions() uint64 {
	t.flushDirty()
	return t.patternCounts[FalseShared]
}

// PatternOf reports a region's current classification (Untouched when
// the region has no attribution state).
func (t *Tracker) PatternOf(region mem.RegionID) Pattern {
	l := t.index.Get(uint64(region))
	if l == 0 {
		return Untouched
	}
	t.flushDirty()
	return t.states[l-1].pattern
}

// UtilPct is the fill-side cache utilization: the percentage of
// fetched words touched before their block died. 100 when nothing was
// fetched.
func (t *Tracker) UtilPct() float64 {
	if t.FetchedWords == 0 {
		return 100
	}
	return 100 * float64(t.UsedWords) / float64(t.FetchedWords)
}

// WastedBytes is the NoC payload bytes fetched but never used.
func (t *Tracker) WastedBytes() uint64 { return t.UnusedWords * mem.WordBytes }

// Summary is a whole-run attribution rollup.
type Summary struct {
	Regions                              int
	FetchedWords, UsedWords, UnusedWords uint64
	UtilPct                              float64
	WastedBytes                          uint64
	Invalidations, InvWordsLost          uint64
	Upgrades, ProbeMsgs                  uint64
	RecallInvalidations                  uint64
	Patterns                             [NumPatterns]uint64
}

// Summarize rolls the tracker up.
func (t *Tracker) Summarize() Summary {
	return Summary{
		Regions:             len(t.states),
		FetchedWords:        t.FetchedWords,
		UsedWords:           t.UsedWords,
		UnusedWords:         t.UnusedWords,
		UtilPct:             t.UtilPct(),
		WastedBytes:         t.WastedBytes(),
		Invalidations:       t.Invalidations,
		InvWordsLost:        t.InvWordsLost,
		Upgrades:            t.Upgrades,
		ProbeMsgs:           t.ProbeMsgs,
		RecallInvalidations: t.RecallInvalidations,
		Patterns:            t.PatternCounts(),
	}
}

// Add accumulates another summary into s (cross-workload rollups).
func (s *Summary) Add(o Summary) {
	s.Regions += o.Regions
	s.FetchedWords += o.FetchedWords
	s.UsedWords += o.UsedWords
	s.UnusedWords += o.UnusedWords
	s.Invalidations += o.Invalidations
	s.InvWordsLost += o.InvWordsLost
	s.Upgrades += o.Upgrades
	s.ProbeMsgs += o.ProbeMsgs
	s.RecallInvalidations += o.RecallInvalidations
	for i := range s.Patterns {
		s.Patterns[i] += o.Patterns[i]
	}
	if s.FetchedWords == 0 {
		s.UtilPct = 100
	} else {
		s.UtilPct = 100 * float64(s.UsedWords) / float64(s.FetchedWords)
	}
	s.WastedBytes = s.UnusedWords * mem.WordBytes
}

// RegionInfo is one region's attribution snapshot.
type RegionInfo struct {
	Region       mem.RegionID
	Pattern      Pattern
	Sharers      int    // cores that touched the region
	Accesses     uint64 // CPU references to the region
	WordsTouched int    // distinct words any core touched

	FetchedWords, UsedWords, UnusedWords uint64
	Fills                                uint64
	Invalidations, InvWordsLost          uint64
	Upgrades, ProbeMsgs                  uint64

	// Offender is the core whose requests invalidated others most
	// often (-1 when the region saw no core-attributed invalidation).
	Offender int

	// Score ranks offenders: bytes the region wasted (fetched-unused)
	// plus bytes churned by invalidations.
	Score uint64
}

func (t *Tracker) info(i uint32) RegionInfo {
	r, foot := &t.states[i], t.footOf(i)
	sharers := 0
	var touched mem.Bitmap
	for c := 0; c < t.cores; c++ {
		if f := foot[c] | foot[t.cores+c]; f != 0 {
			sharers++
			touched |= f
		}
	}
	offender, best := -1, uint32(0)
	for c, n := range t.invRowOf(i, false) {
		if n > best {
			offender, best = c, n
		}
	}
	return RegionInfo{
		Region: r.id, Pattern: r.pattern, Sharers: sharers,
		Accesses: r.accesses, WordsTouched: touched.Count(),
		FetchedWords: r.fetched, UsedWords: r.used, UnusedWords: r.unused,
		Fills:         r.fills,
		Invalidations: r.invals, InvWordsLost: r.invWords,
		Upgrades: r.upgrades, ProbeMsgs: r.probes,
		Offender: offender,
		Score:    (r.unused + r.invWords) * mem.WordBytes,
	}
}

// Regions snapshots every region, in no particular order.
func (t *Tracker) Regions() []RegionInfo {
	t.flushDirty()
	out := make([]RegionInfo, 0, len(t.states))
	t.index.Each(func(l uint32) { out = append(out, t.info(l-1)) })
	return out
}

// TopOffenders returns the n regions responsible for the most wasted
// and invalidation-churned bytes, worst first. Ordering is
// deterministic: score, then invalidations, then region id.
func (t *Tracker) TopOffenders(n int) []RegionInfo {
	out := t.Regions()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Invalidations != b.Invalidations {
			return a.Invalidations > b.Invalidations
		}
		return a.Region < b.Region
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Reconcile checks the accounting invariant — every fetched word was
// classified used or unused exactly once — globally and per region.
// It holds after a complete run (core.System.Run flushes residual
// blocks); mid-run, fills that haven't died yet make fetched exceed
// used+unused and Reconcile reports it.
func (t *Tracker) Reconcile() error {
	if t.FetchedWords != t.UsedWords+t.UnusedWords {
		return fmt.Errorf("attrib: fetched %d words != used %d + unused %d",
			t.FetchedWords, t.UsedWords, t.UnusedWords)
	}
	var fetched, used, unused, invals uint64
	var bad *regionTally // the first failing region in ID order
	t.index.Each(func(l uint32) {
		r := &t.states[l-1]
		if bad == nil && r.fetched != r.used+r.unused {
			bad = r
		}
		fetched += r.fetched
		used += r.used
		unused += r.unused
		invals += r.invals
	})
	if bad != nil {
		return fmt.Errorf("attrib: region %d: fetched %d words != used %d + unused %d",
			bad.id, bad.fetched, bad.used, bad.unused)
	}
	if fetched != t.FetchedWords || used != t.UsedWords || unused != t.UnusedWords {
		return fmt.Errorf("attrib: per-region sums (%d/%d/%d) disagree with totals (%d/%d/%d)",
			fetched, used, unused, t.FetchedWords, t.UsedWords, t.UnusedWords)
	}
	if invals != t.Invalidations {
		return fmt.Errorf("attrib: per-region invalidations %d != total %d", invals, t.Invalidations)
	}
	return nil
}
