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
	MaxEvents uint64   // watchdog; 0 = derived from workload size
	TraceSeed uint64   // trace-randomization seed (0 = canonical records)

	// Jobs bounds how many matrix cells Collect/CollectTable1 simulate
	// concurrently (<=0 = GOMAXPROCS). Results are identical at any
	// setting: each cell owns its engine and stats.
	Jobs int
	// Progress, when non-nil, receives per-cell completion lines and
	// an aggregate summary from the runner.
	Progress io.Writer

	// Cache, when non-nil, memoizes matrix cells in the
	// content-addressed result cache: repeated cells are answered from
	// it without simulating, with byte-identical output (see
	// runner.Pool.Cache and runner.OpenCache).
	Cache *resultcache.Cache
}

func (o Options) pool() runner.Pool {
	return runner.Pool{Jobs: o.Jobs, Progress: o.Progress, Cache: o.Cache}
}

// DefaultOptions is the paper's 16-core configuration at a scale that
// finishes the full matrix in tens of seconds.
func DefaultOptions() Options {
	return Options{Cores: 16, Scale: 2}
}

func (o Options) workloadList() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workloads.Names()
}

func (o Options) cores() int {
	if o.Cores == 0 {
		return 16
	}
	return o.Cores
}

// cellConfig resolves the machine configuration for one matrix cell —
// the value both the builder and the cache key derive from.
func cellConfig(p core.Protocol, o Options) (core.Config, error) {
	cfg := core.DefaultConfig(p)
	cfg.MaxEvents = o.MaxEvents
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 200_000_000
	}
	if err := runner.ConfigureCores(&cfg, o.cores()); err != nil {
		return core.Config{}, fmt.Errorf("harness: %w", err)
	}
	return cfg, nil
}

// gridCell completes cell c of a Collect or CollectTable1 grid for the
// machine configuration cfg (or cfgErr): its cache key, and a Build
// that replays the workload's records shared through inputs. An
// unknown workload or an unresolvable config leaves the zero
// (uncacheable) key and a Build that fails with the error, so it
// surfaces with the cell's own label.
func gridCell(c runner.Cell, inputs *runner.Inputs, cfg core.Config, cfgErr error, o Options) runner.Cell {
	spec, err := workloads.Get(c.Workload)
	if err == nil {
		err = cfgErr
	}
	if err != nil {
		c.Build = func() (*core.System, error) { return nil, err }
		return c
	}
	c.Key = runner.CellSpec{
		Config:   cfg,
		Workload: spec.Name,
		Scale:    o.Scale,
		Seed:     o.TraceSeed,
	}.Key()
	recs := inputs.Claim(spec, o.cores(), o.Scale, o.TraceSeed)
	c.Build = func() (*core.System, error) { return core.NewSystem(cfg, recs()) }
	return c
}

// Run simulates one workload under one protocol and returns its stats.
func Run(workload string, p core.Protocol, o Options) (*stats.Stats, error) {
	spec, err := workloads.Get(workload)
	if err != nil {
		return nil, err
	}
	cfg, err := cellConfig(p, o)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg, spec.Records(o.cores(), o.Scale, o.TraceSeed))
	if err != nil {
		return nil, err
	}
	if err := sys.Run(); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", workload, p, err)
	}
	return sys.Stats(), nil
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
func Collect(o Options) (*Matrix, error) { return buildMatrix(o, false) }

// collectObserved is Collect plus the views the report reads: each
// cell's attribution tracker and miss-latency breakdown.
func collectObserved(o Options) (*Matrix, error) { return buildMatrix(o, true) }

func buildMatrix(o Options, observed bool) (*Matrix, error) {
	m := &Matrix{
		Workloads: o.workloadList(),
		Protocols: core.AllProtocols,
		Cells:     make(map[string]map[core.Protocol]*stats.Stats),
	}
	if observed {
		m.Breakdowns = make(map[string]map[core.Protocol]*obs.LatencyBreakdown)
		m.Attribs = make(map[string]map[core.Protocol]*attrib.Tracker)
	}
	var cells []runner.Cell
	var inputs runner.Inputs
	for _, w := range m.Workloads {
		for _, p := range m.Protocols {
			cfg, err := cellConfig(p, o)
			cells = append(cells, gridCell(runner.Cell{
				Label:    w + "/" + p.String(),
				Workload: w,
				Protocol: p,
				// The pool delivers both views, live or from the cache.
				NeedAttrib:  observed,
				NeedLatency: observed,
			}, &inputs, cfg, err, o))
		}
	}
	results, _ := o.pool().Run(cells)
	var errs []error
	i := 0
	for _, w := range m.Workloads {
		m.Cells[w] = make(map[core.Protocol]*stats.Stats)
		if observed {
			m.Breakdowns[w] = make(map[core.Protocol]*obs.LatencyBreakdown)
			m.Attribs[w] = make(map[core.Protocol]*attrib.Tracker)
		}
		for _, p := range m.Protocols {
			r := results[i]
			i++
			if r.Err != nil {
				errs = append(errs, r.Err)
				continue
			}
			m.Cells[w][p] = r.Stats
			if observed {
				m.Breakdowns[w][p] = r.Latency
				m.Attribs[w][p] = r.Attrib
			}
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("harness: %w", errors.Join(errs...))
	}
	return m, nil
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
