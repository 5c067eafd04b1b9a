// Package profile analyzes a workload's access streams without
// simulating a machine: the Section 2 motivation methodology. For each
// region it classifies the sharing pattern (private, read-only shared,
// false shared, true shared) and measures the spatial footprint
// (distinct words touched), the numbers behind the paper's claims that
// storage/communication and coherence granularity need independent,
// per-application regulation.
package profile

import (
	"fmt"
	"strings"

	"protozoa/internal/directory"
	"protozoa/internal/mem"
	"protozoa/internal/trace"
)

// Sharing classifies one region's access pattern.
type Sharing uint8

const (
	// Private: a single core touches the region.
	Private Sharing = iota
	// ReadOnlyShared: several cores touch it, nobody writes.
	ReadOnlyShared
	// FalseShared: several cores touch it and at least one writes, but
	// no single word is touched by two cores with a writer among them —
	// the sharing exists only at region granularity.
	FalseShared
	// TrueShared: some word is accessed by multiple cores with at least
	// one writer: communication the coherence protocol must mediate at
	// any granularity.
	TrueShared
)

// String returns the classification label.
func (s Sharing) String() string {
	switch s {
	case Private:
		return "private"
	case ReadOnlyShared:
		return "read-only"
	case FalseShared:
		return "false-shared"
	case TrueShared:
		return "true-shared"
	}
	return fmt.Sprintf("Sharing(%d)", uint8(s))
}

// Report is a workload's sharing/locality profile.
type Report struct {
	Geom     mem.Geometry
	Accesses uint64
	Loads    uint64
	Stores   uint64

	Regions        int
	RegionsByClass [4]int // indexed by Sharing

	// AccessesByClass attributes every access to its region's class:
	// the paper's observation that false sharing can dominate even when
	// few regions exhibit it.
	AccessesByClass [4]uint64

	// WordsTouchedHist[k-1] counts regions whose lifetime footprint is
	// exactly k distinct words: the upper bound any spatial predictor
	// can exploit.
	WordsTouchedHist [mem.MaxRegionWords]uint64
}

// regionInfo accumulates per-region facts during analysis.
type regionInfo struct {
	cores    directory.NodeSet
	writers  directory.NodeSet
	accesses uint64
	// per-word touched/written core sets
	wordCores   [mem.MaxRegionWords]directory.NodeSet
	wordWriters [mem.MaxRegionWords]directory.NodeSet
}

// Analyze drains the streams and builds the profile. Streams are
// consumed; pass freshly built ones.
func Analyze(streams []trace.Stream, geom mem.Geometry) *Report {
	r := &Report{Geom: geom}
	regions := make(map[mem.RegionID]*regionInfo)
	for coreID, s := range streams {
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			if a.Kind == trace.Barrier {
				continue
			}
			r.Accesses++
			if a.Kind == trace.Store {
				r.Stores++
			} else {
				r.Loads++
			}
			reg, w := geom.Region(a.Addr), geom.WordOffset(a.Addr)
			info := regions[reg]
			if info == nil {
				info = &regionInfo{}
				regions[reg] = info
			}
			info.accesses++
			info.cores = info.cores.Add(coreID)
			info.wordCores[w] = info.wordCores[w].Add(coreID)
			if a.Kind == trace.Store {
				info.writers = info.writers.Add(coreID)
				info.wordWriters[w] = info.wordWriters[w].Add(coreID)
			}
		}
	}

	r.Regions = len(regions)
	words := geom.WordsPerRegion()
	for _, info := range regions {
		class := classify(info, words)
		r.RegionsByClass[class]++
		r.AccessesByClass[class] += info.accesses
		touched := 0
		for w := 0; w < words; w++ {
			if !info.wordCores[w].Empty() {
				touched++
			}
		}
		if touched >= 1 {
			r.WordsTouchedHist[touched-1]++
		}
	}
	return r
}

func classify(info *regionInfo, words int) Sharing {
	if info.cores.Count() <= 1 {
		return Private
	}
	if info.writers.Empty() {
		return ReadOnlyShared
	}
	for w := 0; w < words; w++ {
		if info.wordCores[w].Count() > 1 && !info.wordWriters[w].Empty() {
			return TrueShared
		}
	}
	return FalseShared
}

// AvgWordsTouched is the mean lifetime footprint of a touched region,
// in words.
func (r *Report) AvgWordsTouched() float64 {
	var sum, n uint64
	for i, c := range r.WordsTouchedHist {
		sum += uint64(i+1) * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// FootprintPct is the fraction of each touched region's words the
// application ever uses, as a percentage — the upper bound on USED%.
func (r *Report) FootprintPct() float64 {
	return 100 * r.AvgWordsTouched() / float64(r.Geom.WordsPerRegion())
}

// ClassPct returns the fraction of regions in the class, in percent.
func (r *Report) ClassPct(s Sharing) float64 {
	if r.Regions == 0 {
		return 0
	}
	return 100 * float64(r.RegionsByClass[s]) / float64(r.Regions)
}

// AccessPct returns the fraction of accesses hitting the class.
func (r *Report) AccessPct(s Sharing) float64 {
	if r.Accesses == 0 {
		return 0
	}
	return 100 * float64(r.AccessesByClass[s]) / float64(r.Accesses)
}

// SummaryHeader is the header line of the suite summary table, one
// SummaryRow per workload (the Section 2 motivation table).
func SummaryHeader() string {
	return fmt.Sprintf("%-18s %9s %10s %13s %12s %10s\n",
		"workload", "private", "read-only", "false-shared", "true-shared", "footprint")
}

// SummaryRow formats the profile as one row under SummaryHeader.
func (r *Report) SummaryRow(name string) string {
	return fmt.Sprintf("%-18s %8.1f%% %9.1f%% %12.1f%% %11.1f%% %9.0f%%\n",
		name, r.ClassPct(Private), r.ClassPct(ReadOnlyShared),
		r.ClassPct(FalseShared), r.ClassPct(TrueShared), r.FootprintPct())
}

// Render formats the profile as a table.
func (r *Report) Render(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s: %d accesses (%d loads, %d stores), %d regions touched\n",
		name, r.Accesses, r.Loads, r.Stores, r.Regions)
	fmt.Fprintf(&b, "  %-14s %10s %10s\n", "sharing", "regions", "accesses")
	for s := Private; s <= TrueShared; s++ {
		fmt.Fprintf(&b, "  %-14s %9.1f%% %9.1f%%\n", s, r.ClassPct(s), r.AccessPct(s))
	}
	fmt.Fprintf(&b, "  region footprint: %.1f of %d words (%.0f%%)\n",
		r.AvgWordsTouched(), r.Geom.WordsPerRegion(), r.FootprintPct())
	return b.String()
}
