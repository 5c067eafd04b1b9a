// Package profile analyzes a workload's access records without
// simulating a machine: the Section 2 motivation methodology. It feeds
// every record to an attribution tracker (internal/obs/attrib, the
// repo's one sharing classifier), coarsens each region's pattern into
// the four Section 2 classes (private, read-only shared, false shared,
// true shared) and measures the spatial footprint (distinct words
// touched): the numbers behind the paper's claims that
// storage/communication and coherence granularity need independent,
// per-application regulation.
package profile

import (
	"fmt"
	"strings"

	"protozoa/internal/mem"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/trace"
)

// Sharing is a region's Section 2 class: an attribution pattern
// coarsened by Class.
type Sharing uint8

const (
	Private        Sharing = iota // one core touches the region
	ReadOnlyShared                // several cores, no writer
	FalseShared                   // writers, but sharing only at region granularity
	TrueShared                    // a word shared by several cores with a writer
)

var sharingNames = [...]string{"private", "read-only", "false-shared", "true-shared"}

// String returns the classification label.
func (s Sharing) String() string {
	if int(s) < len(sharingNames) {
		return sharingNames[s]
	}
	return fmt.Sprintf("Sharing(%d)", uint8(s))
}

// classes is the coarsening behind Class. It drops the churn gate
// between Partitioned and FalseShared, the one input a trace lacks (the
// protocol's invalidations), and merges Migratory with ReadWrite, which
// Section 2 does not tell apart.
var classes = [attrib.NumPatterns]Sharing{
	attrib.Private:     Private,
	attrib.ReadOnly:    ReadOnlyShared,
	attrib.Partitioned: FalseShared,
	attrib.FalseShared: FalseShared,
	attrib.Migratory:   TrueShared,
	attrib.ReadWrite:   TrueShared,
}

// Class coarsens an attribution pattern into its Section 2 class.
// Untouched, which no profiled region can be, maps to Private.
func Class(p attrib.Pattern) Sharing { return classes[p] }

// Report is a workload's sharing/locality profile.
type Report struct {
	Geom     mem.Geometry
	Accesses uint64
	Loads    uint64
	Stores   uint64 // includes RMWs (trace.Kind.Writes)

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

	regions []attrib.RegionInfo // the tracker's snapshot, for Mismatches
}

// Analyze profiles per-core access records (element c is core c's
// stream, as workloads.Spec.Records returns them). It only reads recs.
func Analyze(recs [][]trace.Access, geom mem.Geometry) *Report {
	r := &Report{Geom: geom}
	tr := attrib.New(len(recs))
	for core, accs := range recs {
		for _, a := range accs {
			if a.Kind == trace.Barrier {
				continue
			}
			if a.Kind.Writes() {
				r.Stores++
			}
			tr.Access(core, geom.Region(a.Addr), geom.WordOffset(a.Addr), a.Kind.Writes())
		}
	}
	r.regions = tr.Regions()
	r.Regions = len(r.regions)
	for _, ri := range r.regions {
		class := Class(ri.Pattern)
		r.RegionsByClass[class]++
		r.AccessesByClass[class] += ri.Accesses
		r.Accesses += ri.Accesses
		r.WordsTouchedHist[ri.WordsTouched-1]++
	}
	r.Loads = r.Accesses - r.Stores
	return r
}

// Mismatches reconciles the profile with a simulated run of the same
// records: it counts the profile's regions whose class the run's
// tracker does not reproduce (or never saw accessed), plus any surplus
// of tracker regions. The L1s see exactly the trace's accesses, so
// anything but 0 is a feeder bug.
func (r *Report) Mismatches(sim *attrib.Tracker) int {
	n := max(sim.RegionCount()-len(r.regions), 0)
	for _, ri := range r.regions {
		if p := sim.PatternOf(ri.Region); p == attrib.Untouched || Class(p) != Class(ri.Pattern) {
			n++
		}
	}
	return n
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
