package attrib

import (
	"fmt"
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
// rebuilds it deterministically from the footprints, exactly as the
// PDES shard merge does.
func (t *Tracker) Dump() *Dump {
	d := &Dump{
		Cores:               t.cores,
		Regions:             make([]RegionDump, 0, t.nregions),
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
	t.regions.Each(func(r *regionState) {
		rd := RegionDump{
			ID:         r.id,
			Foot:       append([]mem.Bitmap(nil), r.foot...),
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
		for _, n := range r.invByCore {
			if n != 0 {
				rd.InvByCore = append([]uint32(nil), r.invByCore...)
				break
			}
		}
		d.Regions = append(d.Regions, rd)
	})
	sort.Slice(d.Regions, func(i, j int) bool { return d.Regions[i].ID < d.Regions[j].ID })
	return d
}

// FromDump reconstructs a Tracker from a Dump. Every region starts
// dirty, so pattern classification is recomputed from the restored
// footprints on the next snapshot — the rebuilt tracker is
// indistinguishable from the one that produced the dump.
func FromDump(d *Dump) (*Tracker, error) {
	if d.Cores <= 0 {
		return nil, fmt.Errorf("attrib: dump has invalid core count %d", d.Cores)
	}
	t := New(d.Cores)
	copy(t.InvByOffender, d.InvByOffender)
	copy(t.InvByVictim, d.InvByVictim)
	copy(t.UpgradesByCore, d.UpgradesByCore)
	t.FetchedWords = d.FetchedWords
	t.UsedWords = d.UsedWords
	t.UnusedWords = d.UnusedWords
	t.Fills = d.Fills
	t.Deaths = d.Deaths
	t.Invalidations = d.Invalidations
	t.InvWordsLost = d.InvWordsLost
	t.Upgrades = d.Upgrades
	t.ProbeMsgs = d.ProbeMsgs
	t.RecallInvalidations = d.RecallInvalidations
	for i := range d.Regions {
		rd := &d.Regions[i]
		if len(rd.Foot) != 2*d.Cores {
			return nil, fmt.Errorf("attrib: region %d footprint has %d entries, want %d",
				rd.ID, len(rd.Foot), 2*d.Cores)
		}
		if rd.InvByCore != nil && len(rd.InvByCore) != d.Cores {
			return nil, fmt.Errorf("attrib: region %d invByCore has %d entries, want %d",
				rd.ID, len(rd.InvByCore), d.Cores)
		}
		r := t.state(rd.ID) // registers the region and marks it dirty
		copy(r.foot, rd.Foot)
		r.accesses = rd.Accesses
		r.fetched = rd.Fetched
		r.used = rd.Used
		r.unused = rd.Unused
		r.fills = rd.Fills
		r.deaths = rd.Deaths
		r.invals = rd.Invals
		r.invWords = rd.InvWords
		r.upgrades = rd.Upgrades
		r.probes = rd.Probes
		copy(r.invByCore, rd.InvByCore)
		r.recallInvs = rd.RecallInvs
	}
	return t, nil
}
