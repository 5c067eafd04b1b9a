// Package protozoa is a from-scratch reproduction of "Protozoa:
// Adaptive Granularity Cache Coherence" (Zhao, Shriraman, Kumar,
// Dwarkadas — ISCA 2013): a family of directory coherence protocols
// that decouple storage/communication granularity from coherence
// granularity over an Amoeba-Cache L1.
//
// The package is the public facade over the full simulator:
//
//   - Run simulates one workload of the built-in suite under one
//     protocol and returns its measurements.
//   - Collect runs the whole workload x protocol matrix and renders
//     the paper's Figures 9-16 as text tables; CollectTable1 sweeps
//     MESI block sizes for Table 1.
//   - NewSystem gives direct access to the simulated machine for
//     custom per-core access records (see examples/falsesharing).
//
// Quick start:
//
//	st, err := protozoa.Run("linear-regression", protozoa.ProtozoaMW, protozoa.DefaultOptions())
//	if err != nil { ... }
//	fmt.Printf("MPKI %.2f, traffic %d bytes\n", st.MPKI(), st.TrafficTotal())
package protozoa

import (
	"fmt"

	"protozoa/internal/core"
	"protozoa/internal/harness"
	"protozoa/internal/mem"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/profile"
	"protozoa/internal/resultcache"
	"protozoa/internal/stats"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// Protocol selects a member of the protocol family.
type Protocol = core.Protocol

// The protocol family, in the order the paper's figures use.
const (
	// MESI is the conventional fixed-granularity 4-hop directory baseline.
	MESI = core.MESI
	// ProtozoaSW adapts storage/communication granularity only.
	ProtozoaSW = core.ProtozoaSW
	// ProtozoaSWMR adds multiple non-overlapping readers beside one writer.
	ProtozoaSWMR = core.ProtozoaSWMR
	// ProtozoaMW allows multiple non-overlapping writers: word-granularity SWMR.
	ProtozoaMW = core.ProtozoaMW
)

// Protocols returns the family in figure order.
func Protocols() []Protocol { return core.AllProtocols }

// Stats holds one run's measurements (miss rates, traffic breakdown,
// flit-hops, execution cycles, distributions).
type Stats = stats.Stats

// Options sizes an experiment (cores, workload scale, subset) and its
// parallelism: Jobs bounds how many matrix cells simulate concurrently
// (results are identical at any setting) and Progress optionally
// streams per-cell completion lines.
type Options = harness.Options

// DefaultOptions is the paper's 16-core configuration.
func DefaultOptions() Options { return harness.DefaultOptions() }

// ResultCache is the content-addressed on-disk result store; assign one
// to Options.Cache and matrix cells already in its directory are read
// instead of simulated, across calls and processes. See
// docs/CACHING.md.
type ResultCache = resultcache.Cache

// OpenCache opens the result cache in dir (created if missing) for
// Options.Cache: repeated and interrupted experiment grids over it
// resume instead of re-simulating.
func OpenCache(dir string) (*ResultCache, error) { return resultcache.Open(dir) }

// Run simulates one built-in workload under one protocol.
func Run(workload string, p Protocol, o Options) (*Stats, error) {
	sys, err := harness.NewSystem(workload, p, o)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", workload, p, err)
	}
	return sys.Stats(), nil
}

// WorkloadNames lists the built-in workload suite.
func WorkloadNames() []string { return workloads.Names() }

// Workload describes one member of the suite.
type Workload struct {
	Name   string // figure label
	Models string // paper application it reproduces
	Suite  string // paper benchmark suite
	About  string // sharing/locality signature
}

// Workloads describes the full suite.
func Workloads() []Workload {
	var out []Workload
	for _, s := range workloads.All() {
		out = append(out, Workload{Name: s.Name, Models: s.Models, Suite: s.Suite, About: s.About})
	}
	return out
}

// Matrix holds the full workload x protocol result grid and renders
// the paper's figures.
type Matrix = harness.Matrix

// Collect runs the full matrix for the Figure 9-16 reproductions. It
// builds the stats every figure renders from and no report-only view:
// the matrix's Attribs and Breakdowns are nil (only `protozoa report`
// fills them).
func Collect(o Options) (*Matrix, error) { return harness.Collect(o) }

// Table1Result is the MESI block-size sweep.
type Table1Result = harness.Table1Result

// CollectTable1 sweeps MESI over 16/32/64/128-byte blocks (Table 1).
func CollectTable1(o Options) (*Table1Result, error) { return harness.CollectTable1(o) }

// --- direct machine access for custom traces -----------------------------

// SystemConfig configures a simulated machine directly, including the
// Section 6 extensions: ThreeHop direct forwarding, the bloom-filter
// Directory, MergeL1Blocks Amoeba coalescing, and a finite
// L2RegionsPerTile with inclusion recalls.
type SystemConfig = core.Config

// System is one assembled machine.
type System = core.System

// DirectoryKind selects precise or bloom-filter sharer tracking.
type DirectoryKind = core.DirectoryKind

// Directory kinds.
const (
	DirPrecise = core.DirPrecise
	DirBloom   = core.DirBloom
)

// Checker is the Section 3.6 random-tester oracle: SWMR at the
// protocol's granularity plus golden-value integrity.
type Checker = core.Checker

// NewChecker attaches a checker to a system as its observer.
func NewChecker(sys *System) *Checker { return core.NewChecker(sys) }

// DefaultSystemConfig is the paper's Table 4 machine for a protocol.
func DefaultSystemConfig(p Protocol) SystemConfig { return core.DefaultConfig(p) }

// NewSystem builds a machine replaying the given per-core records:
// core c executes recs[c] in order. The machine never writes recs.
func NewSystem(cfg SystemConfig, recs [][]Access) (*System, error) {
	return core.NewSystem(cfg, recs)
}

// Access is one trace record.
type Access = trace.Access

// Trace record kinds.
const (
	Load    = trace.Load
	Store   = trace.Store
	Barrier = trace.Barrier
)

// Addr is a byte address in the simulated physical address space.
type Addr = mem.Addr

// RegionID identifies a coherence region (a 64-byte-aligned block at
// the default geometry).
type RegionID = mem.RegionID

// RegionOf maps an address to its region at the default geometry.
func RegionOf(a Addr) RegionID { return mem.DefaultGeometry.Region(a) }

// Attribution is the coherence-traffic attribution tracker: per-region
// word utilization, sharing-pattern classification, and invalidation
// attribution. Attach with System.EnableAttribution before Run.
type Attribution = attrib.Tracker

// SharingPattern classifies a region's observed sharing behaviour.
type SharingPattern = attrib.Pattern

// Sharing patterns, from word-level reader/writer footprints.
const (
	PatternPrivate     = attrib.Private
	PatternReadOnly    = attrib.ReadOnly
	PatternPartitioned = attrib.Partitioned
	PatternFalseShared = attrib.FalseShared
	PatternMigratory   = attrib.Migratory
	PatternReadWrite   = attrib.ReadWrite
)

// RenderAttribution formats one run's attribution report: the
// utilization summary plus the top-N offender regions.
func RenderAttribution(tr *Attribution, topN int) string {
	return harness.RenderAttribution(tr, topN)
}

// SharingProfile is the Section 2 trace-level analysis: per-region
// sharing classification and spatial footprint.
type SharingProfile = profile.Report

// Profile analyzes a built-in workload's access streams without
// simulating a machine (protozoa profile's engine).
func Profile(workload string, cores, scale int) (*SharingProfile, error) {
	spec, err := workloads.Get(workload)
	if err != nil {
		return nil, err
	}
	return profile.Analyze(spec.Records(cores, scale, 0), mem.DefaultGeometry), nil
}

// EnergyModel converts a run's event counts into dynamic energy.
type EnergyModel = stats.EnergyModel

// DefaultEnergyModel returns representative per-event coefficients.
func DefaultEnergyModel() EnergyModel { return stats.DefaultEnergyModel() }
