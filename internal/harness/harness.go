// Package harness regenerates the paper's evaluation: Table 1 (MESI
// behaviour across fixed block sizes) and Figures 9-15 (traffic
// breakdown, control breakdown, directory owner occupancy, block-size
// distribution, miss rates, execution time, and interconnect energy).
// Each experiment runs the full simulator over the synthetic workload
// suite and renders the same rows/series the paper reports as text
// tables.
package harness

import (
	"errors"
	"fmt"
	"io"

	"protozoa/internal/core"
	"protozoa/internal/obs"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/resultcache"
	"protozoa/internal/runner"
	"protozoa/internal/stats"
	"protozoa/internal/workloads"
)

// Options sizes an experiment run.
type Options struct {
	Cores     int      // simulated cores (paper: 16)
	Scale     int      // workload iteration multiplier
	Workloads []string // nil = the full suite
	TraceSeed uint64   // trace-randomization seed (0 = canonical records)

	// Jobs bounds how many matrix cells Collect/CollectTable1 simulate
	// concurrently (<=0 = GOMAXPROCS). Results are identical at any
	// setting: each cell owns its engine and stats.
	Jobs int
	// Progress, when non-nil, receives per-cell completion lines and
	// an aggregate summary from the runner.
	Progress io.Writer

	// Cache, when non-nil, is the content-addressed result-cache
	// directory: cells already in it are read instead of simulated,
	// with byte-identical output, and simulated cells are written to
	// it (see runner.Pool.Cache).
	Cache *resultcache.Cache
}

// DefaultOptions is the paper's 16-core configuration at a scale that
// finishes the full matrix in tens of seconds.
func DefaultOptions() Options {
	return Options{Cores: 16, Scale: 2}
}

func (o Options) cores() int {
	if o.Cores == 0 {
		return 16
	}
	return o.Cores
}

const (
	// maxEvents is every harness machine's livelock watchdog.
	maxEvents = 200_000_000
	// figureRegion is the figures' region size, every protocol's
	// default; Table 1's 64-byte MESI cell is the figures' MESI cell.
	figureRegion = 64
)

// config resolves the machine configuration of one harness cell:
// protocol p with regions of region bytes on o's cores. The builder
// and the cache key both derive from this value.
func (o Options) config(p core.Protocol, region int) (core.Config, error) {
	cfg := core.DefaultConfig(p)
	cfg.MaxEvents = maxEvents
	cfg.RegionBytes = region
	if err := runner.ConfigureCores(&cfg, o.cores()); err != nil {
		return core.Config{}, fmt.Errorf("harness: %w", err)
	}
	return cfg, nil
}

// NewSystem builds, without running it, the machine that simulates one
// workload under one protocol: the figures' machine on o's cores, with
// the livelock watchdog, replaying the workload's records at o's scale
// and trace seed. protozoa.Run and protozoa sim both run this machine.
func NewSystem(workload string, p core.Protocol, o Options) (*core.System, error) {
	spec, err := workloads.Get(workload)
	if err != nil {
		return nil, err
	}
	cfg, err := o.config(p, figureRegion)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(cfg, spec.Records(o.cores(), o.Scale, o.TraceSeed))
}

// grid is one pool run over harness cells. Every cell of a workload
// replays the same records; callers list a workload's cells together,
// so the shared inputs live only while that workload is in flight.
type grid struct {
	o      Options
	specs  []workloads.Spec // the resolved workload list
	inputs runner.Inputs
	cells  []runner.Cell
}

// cellID locates a completed cell: a workload under a protocol with
// regions of a given size.
type cellID struct {
	workload string
	protocol core.Protocol
	region   int
}

// newGrid resolves o's workload list and core count: every vocabulary
// error surfaces here, before any cell runs.
func newGrid(o Options) (*grid, error) {
	specs, err := runner.ResolveWorkloads(o.Workloads)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if _, err := o.config(core.MESI, figureRegion); err != nil {
		return nil, err
	}
	return &grid{o: o, specs: specs}, nil
}

// add appends the cell simulating spec under p with regions of region
// bytes, with the report's attribution and latency views when observed.
func (g *grid) add(label string, spec workloads.Spec, p core.Protocol, region int, observed bool) {
	cfg, _ := g.o.config(p, region) // newGrid checked the core count
	g.cells = append(g.cells, g.inputs.Cell(runner.Cell{
		Label:       label,
		Protocol:    p,
		Region:      region,
		NeedAttrib:  observed,
		NeedLatency: observed,
	}, spec, cfg, g.o.Scale, g.o.TraceSeed))
}

// addFigures appends spec's figure-matrix cells, one per protocol.
func (g *grid) addFigures(spec workloads.Spec, observed bool) {
	for _, p := range core.AllProtocols {
		g.add(spec.Name+"/"+p.String(), spec, p, figureRegion, observed)
	}
}

// addTable1 appends spec's Table 1 cells: MESI at each block size.
func (g *grid) addTable1(spec workloads.Spec, sizes []int) {
	for _, bs := range sizes {
		g.add(fmt.Sprintf("table1 %s@%dB", spec.Name, bs), spec, core.MESI, bs, false)
	}
}

// run simulates every cell in one pool run. All cells run even if some
// fail; the joined error then reports every failing cell at once.
func (g *grid) run() (map[cellID]runner.Result, error) {
	results, _ := runner.Pool{Jobs: g.o.Jobs, Progress: g.o.Progress, Cache: g.o.Cache}.Run(g.cells)
	done := make(map[cellID]runner.Result, len(results))
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
			continue
		}
		done[cellID{r.Cell.Workload, r.Cell.Protocol, r.Cell.Region}] = r
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("harness: %w", errors.Join(errs...))
	}
	return done, nil
}

// Matrix holds the stats of every (workload, protocol) pair so all the
// per-protocol figures derive from one set of runs.
type Matrix struct {
	Workloads []string
	Protocols []core.Protocol
	Cells     map[string]map[core.Protocol]*stats.Stats

	// Breakdowns holds each cell's miss-latency phase decomposition and
	// Attribs each cell's coherence-traffic attribution (word
	// utilization, sharing patterns, offender rankings). Only the
	// report reads them, so only its matrix builds them: both are nil
	// in a matrix from Collect.
	Breakdowns map[string]map[core.Protocol]*obs.LatencyBreakdown
	Attribs    map[string]map[core.Protocol]*attrib.Tracker
}

// Collect runs the full workload x protocol matrix, fanning the cells
// out over Options.Jobs workers. All cells run even if some fail; the
// joined error then reports every failing cell at once. The matrix
// holds the stats every figure renders from; it builds neither the
// attribution nor the latency breakdown (see Matrix.Attribs).
func Collect(o Options) (*Matrix, error) { return collectMatrix(o, false) }

// collectMatrix is Collect, plus, when observed, the views the report
// reads: each cell's attribution tracker and miss-latency breakdown.
func collectMatrix(o Options, observed bool) (*Matrix, error) {
	g, err := newGrid(o)
	if err != nil {
		return nil, err
	}
	for _, spec := range g.specs {
		g.addFigures(spec, observed)
	}
	done, err := g.run()
	if err != nil {
		return nil, err
	}
	return g.matrix(done, observed), nil
}

// matrix folds the figure cells of a completed grid.
func (g *grid) matrix(done map[cellID]runner.Result, observed bool) *Matrix {
	m := &Matrix{Protocols: core.AllProtocols, Cells: make(map[string]map[core.Protocol]*stats.Stats)}
	if observed {
		m.Breakdowns = make(map[string]map[core.Protocol]*obs.LatencyBreakdown)
		m.Attribs = make(map[string]map[core.Protocol]*attrib.Tracker)
	}
	for _, spec := range g.specs {
		w := spec.Name
		m.Workloads = append(m.Workloads, w)
		m.Cells[w] = make(map[core.Protocol]*stats.Stats)
		if observed {
			m.Breakdowns[w] = make(map[core.Protocol]*obs.LatencyBreakdown)
			m.Attribs[w] = make(map[core.Protocol]*attrib.Tracker)
		}
		for _, p := range m.Protocols {
			r := done[cellID{w, p, figureRegion}]
			m.Cells[w][p] = r.Stats
			if observed {
				m.Breakdowns[w][p] = r.Latency
				m.Attribs[w][p] = r.Attrib
			}
		}
	}
	return m
}

// Get returns the stats cell for a pair.
func (m *Matrix) Get(w string, p core.Protocol) *stats.Stats { return m.Cells[w][p] }

// geoMean computes the geometric mean of positive ratios; zero or
// negative inputs are skipped.
func geoMean(vals []float64) float64 {
	prod, n := 1.0, 0
	for _, v := range vals {
		if v > 0 {
			prod *= v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	// n-th root via successive halving is overkill; use math.Pow.
	return pow(prod, 1.0/float64(n))
}

// GeoMeanRatio computes the geometric mean across workloads of
// metric(p)/metric(MESI).
func (m *Matrix) GeoMeanRatio(p core.Protocol, metric func(*stats.Stats) float64) float64 {
	var ratios []float64
	for _, w := range m.Workloads {
		base := metric(m.Get(w, core.MESI))
		v := metric(m.Get(w, p))
		if base > 0 {
			ratios = append(ratios, v/base)
		}
	}
	return geoMean(ratios)
}

// Metric helpers shared by figures and benches.

// TrafficBytes is total L1 traffic (Figure 9's denominator).
func TrafficBytes(s *stats.Stats) float64 { return float64(s.TrafficTotal()) }

// MPKI is misses per kilo-instruction (Figure 13).
func MPKI(s *stats.Stats) float64 { return s.MPKI() }

// ExecCycles is runtime (Figure 14).
func ExecCycles(s *stats.Stats) float64 { return float64(s.ExecCycles) }

// FlitHops is the interconnect energy proxy (Figure 15).
func FlitHops(s *stats.Stats) float64 { return float64(s.FlitHops) }
