package attrib

import (
	"fmt"
	"slices"
	"sort"

	"protozoa/internal/mem"
)

// RegionDump is one region's serialized attribution state. Every field
// is integral, so a JSON round-trip is exact.
type RegionDump struct {
	ID   mem.RegionID
	Foot []mem.Bitmap // reader bitmaps [0,cores), writer bitmaps [cores,2*cores)

	Accesses uint64
	Fetched  uint64
	Used     uint64
	Unused   uint64
	Fills    uint64
	Deaths   uint64
	Invals   uint64
	InvWords uint64
	Upgrades uint64
	Probes   uint64

	// InvByCore is omitted (nil) when the region saw no core-attributed
	// invalidation — the common case — to keep payloads small.
	InvByCore  []uint32 `json:",omitempty"`
	RecallInvs uint32   `json:",omitempty"`
}

// Dump is a Tracker's complete serializable state, used by the result
// cache to persist attribution alongside a cell's stats. Regions are
// sorted by ID so the encoding is canonical: the same tracker state
// always serializes to the same bytes.
type Dump struct {
	Cores   int
	Regions []RegionDump

	FetchedWords uint64
	UsedWords    uint64
	UnusedWords  uint64
	Fills        uint64
	Deaths       uint64

	Invalidations       uint64
	InvWordsLost        uint64
	Upgrades            uint64
	ProbeMsgs           uint64
	RecallInvalidations uint64

	InvByOffender  []uint64
	InvByVictim    []uint64
	UpgradesByCore []uint64
}

// Dump snapshots the tracker into a serializable form. Classification
// state (patterns, dirty lists) is intentionally not captured: FromDump
// rebuilds it deterministically from the footprints.
func (t *Tracker) Dump() *Dump {
	d := &Dump{
		Cores:               t.cores,
		Regions:             make([]RegionDump, 0, len(t.states)),
		FetchedWords:        t.FetchedWords,
		UsedWords:           t.UsedWords,
		UnusedWords:         t.UnusedWords,
		Fills:               t.Fills,
		Deaths:              t.Deaths,
		Invalidations:       t.Invalidations,
		InvWordsLost:        t.InvWordsLost,
		Upgrades:            t.Upgrades,
		ProbeMsgs:           t.ProbeMsgs,
		RecallInvalidations: t.RecallInvalidations,
		InvByOffender:       append([]uint64(nil), t.InvByOffender...),
		InvByVictim:         append([]uint64(nil), t.InvByVictim...),
		UpgradesByCore:      append([]uint64(nil), t.UpgradesByCore...),
	}
	t.index.Each(func(l uint32) {
		i := l - 1
		r := &t.states[i]
		rd := RegionDump{
			ID:         r.id,
			Foot:       append([]mem.Bitmap(nil), t.footOf(i)...),
			Accesses:   r.accesses,
			Fetched:    r.fetched,
			Used:       r.used,
			Unused:     r.unused,
			Fills:      r.fills,
			Deaths:     r.deaths,
			Invals:     r.invals,
			InvWords:   r.invWords,
			Upgrades:   r.upgrades,
			Probes:     r.probes,
			RecallInvs: r.recallInvs,
		}
		if row := t.invRowOf(i, false); slices.ContainsFunc(row, func(n uint32) bool { return n != 0 }) {
			rd.InvByCore = append([]uint32(nil), row...)
		}
		d.Regions = append(d.Regions, rd)
	})
	// The index walks dense IDs in order but its overflow map in none.
	sort.Slice(d.Regions, func(i, j int) bool { return d.Regions[i].ID < d.Regions[j].ID })
	return d
}

// maxCores is the largest machine core.NewSystem builds: its directory
// sharer vectors hold 32 cores.
const maxCores = 32

// FromDump reconstructs a Tracker from a Dump. Every region starts
// dirty, so classification is recomputed from the restored footprints
// and the rebuilt tracker is indistinguishable from the dumped one. A
// dump read from disk is untrusted: FromDump rejects core counts the
// simulator cannot build, per-core slices of the wrong length, region
// IDs that do not strictly increase (Dump sorts them) and any state
// that fails Reconcile.
func FromDump(d *Dump) (*Tracker, error) {
	if d.Cores < 1 || d.Cores > maxCores {
		return nil, fmt.Errorf("attrib: dump has invalid core count %d", d.Cores)
	}
	if len(d.InvByOffender) != d.Cores || len(d.InvByVictim) != d.Cores || len(d.UpgradesByCore) != d.Cores {
		return nil, fmt.Errorf("attrib: dump per-core totals have %d/%d/%d entries, want %d",
			len(d.InvByOffender), len(d.InvByVictim), len(d.UpgradesByCore), d.Cores)
	}
	rows := 0
	for i := range d.Regions {
		rd := &d.Regions[i]
		if i > 0 && rd.ID <= d.Regions[i-1].ID {
			return nil, fmt.Errorf("attrib: dump region %d follows region %d (IDs must strictly increase)",
				rd.ID, d.Regions[i-1].ID)
		}
		if len(rd.Foot) != 2*d.Cores {
			return nil, fmt.Errorf("attrib: region %d footprint has %d entries, want %d",
				rd.ID, len(rd.Foot), 2*d.Cores)
		}
		if rd.InvByCore != nil && len(rd.InvByCore) != d.Cores {
			return nil, fmt.Errorf("attrib: region %d invByCore has %d entries, want %d",
				rd.ID, len(rd.InvByCore), d.Cores)
		}
		if rd.InvByCore != nil {
			rows++
		}
	}
	t := New(d.Cores)
	// The region count is known, so the tables are sized exactly.
	t.states = make([]regionState, 0, len(d.Regions))
	t.foot = make([]mem.Bitmap, 0, len(d.Regions)*2*d.Cores)
	t.invRows = make([]uint32, 0, rows*d.Cores)
	t.add(d)
	if err := t.Reconcile(); err != nil {
		return nil, err
	}
	return t, nil
}

// add sums a dump into t, counts adding and bitmaps unioning: FromDump's
// restore.
func (t *Tracker) add(d *Dump) {
	t.FetchedWords += d.FetchedWords
	t.UsedWords += d.UsedWords
	t.UnusedWords += d.UnusedWords
	t.Fills += d.Fills
	t.Deaths += d.Deaths
	t.Invalidations += d.Invalidations
	t.InvWordsLost += d.InvWordsLost
	t.Upgrades += d.Upgrades
	t.ProbeMsgs += d.ProbeMsgs
	t.RecallInvalidations += d.RecallInvalidations
	for c := 0; c < t.cores; c++ {
		t.InvByOffender[c] += d.InvByOffender[c]
		t.InvByVictim[c] += d.InvByVictim[c]
		t.UpgradesByCore[c] += d.UpgradesByCore[c]
	}
	for k := range d.Regions {
		rd := &d.Regions[k]
		i := t.state(rd.ID)
		foot := t.footOf(i)
		for c := range foot {
			foot[c] |= rd.Foot[c]
		}
		if rd.InvByCore != nil {
			row := t.invRowOf(i, true)
			for c := range row {
				row[c] += rd.InvByCore[c]
			}
		}
		r := &t.states[i]
		r.accesses += rd.Accesses
		r.fetched += rd.Fetched
		r.used += rd.Used
		r.unused += rd.Unused
		r.fills += rd.Fills
		r.deaths += rd.Deaths
		r.invals += rd.Invals
		r.invWords += rd.InvWords
		r.upgrades += rd.Upgrades
		r.probes += rd.Probes
		r.recallInvs += rd.RecallInvs
		t.markDirty(i)
	}
}
