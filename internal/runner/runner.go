// Package runner fans a grid of independent simulation cells out over
// a bounded worker pool.
//
// Each cell owns a complete core.System — its own event engine, stats
// block, and cursors over its workload's records (the records
// themselves are shared read-only, see Inputs) — so cells share no
// mutable state and a grid's results are bit-identical at any worker
// count; only the wall time changes. Results come back in cell order regardless of
// completion order, and a failing cell records its error in its own
// result slot instead of aborting the process, so one bad
// configuration cannot discard the rest of the grid's output.
//
// The package also owns the grid vocabulary the drivers share:
// protocol/knob/region parsing (see parse.go), the sweep cross
// product, and its CSV schema (see grid.go).
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"protozoa/internal/core"
	"protozoa/internal/obs"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/obs/selfprof"
	"protozoa/internal/resultcache"
	"protozoa/internal/stats"
)

// Cell is one simulation to run: a labelled constructor for a fresh
// machine plus the grid coordinates drivers report rows under.
type Cell struct {
	Label string // progress/error identifier, e.g. "histogram/MESI/baseline/r64"

	// Grid coordinates; drivers that don't sweep a dimension leave it zero.
	Workload string
	Protocol core.Protocol
	Knob     string
	Region   int

	// Key, when non-zero, identifies the cell's fully-resolved
	// configuration in the result cache (see CellSpec.Key). A pool
	// with a cache consults it before building the machine; the zero
	// key marks the cell uncacheable and always simulates.
	Key resultcache.Key

	// NeedAttrib, NeedLatency and NeedChecker request the respective
	// observations: the attribution tracker, the latency breakdown and
	// the random-tester oracle's summary (core.NewChecker). The pool
	// enables them before the run and delivers them in the result (from
	// the live system or a cached payload alike). None changes what the
	// machine simulates, so they are not part of Key: a cached entry
	// answers any cell whose needs its payload covers.
	NeedAttrib  bool
	NeedLatency bool
	NeedChecker bool

	// NeedSelfProf requests the simulator's self-profile
	// (core.System.EnableSelfProf). It observes the simulator, not the
	// machine, so the cache never stores it: a cell answered from the
	// cache simulated nothing and carries none.
	NeedSelfProf bool

	// Build constructs the cell's machine. It runs on a worker
	// goroutine and must return a system no other cell touches.
	Build func() (*core.System, error)
}

// Result is one cell's outcome, delivered in the slot matching the
// cell's index regardless of completion order.
type Result struct {
	Cell     Cell
	Stats    *stats.Stats          // nil when Err != nil
	Attrib   *attrib.Tracker       // non-nil when the cell requested attribution
	Latency  *obs.LatencyBreakdown // non-nil when the cell requested the breakdown
	Checker  *core.CheckerSummary  // non-nil when the cell requested the checker
	SelfProf *selfprof.Report      // non-nil when the cell requested it and simulated
	Err      error                 // build or simulation failure, wrapped with the label
	Events   uint64                // events the cell's engine processed
	Cached   bool                  // result came from the cache, nothing was simulated
	Wall     time.Duration         // wall-clock time the cell took
}

// Summary aggregates one pool run.
type Summary struct {
	Cells     int           // cells executed
	Failed    int           // cells that returned an error
	Cached    int           // cells answered from the result cache
	Jobs      int           // worker-pool width actually used
	Events    uint64        // engine events across all cells
	SimCycles uint64        // simulated cycles across completed cells
	Wall      time.Duration // wall-clock time for the whole grid
}

func (s Summary) String() string {
	return fmt.Sprintf("%d cells (%d failed, %d cached), %d events, %d simulated cycles, %s wall on %d jobs",
		s.Cells, s.Failed, s.Cached, s.Events, s.SimCycles, s.Wall.Round(time.Millisecond), s.Jobs)
}

// Pool executes cells on a bounded number of worker goroutines.
type Pool struct {
	Jobs     int       // concurrent workers; <=0 means GOMAXPROCS
	Progress io.Writer // per-cell completion lines plus a summary; nil = silent

	// Cache, when non-nil, is the result-cache directory for cells
	// with a non-zero Key: hits skip Build and the simulation entirely,
	// and misses write their entry on success. An entry answers a cell
	// when its payload holds every observation the cell needs; a cell
	// that needs more simulates and rewrites the entry with the larger
	// payload. Results are byte-identical with and without the cache —
	// that is the content-addressing contract.
	Cache *resultcache.Cache

	// OnResult, when non-nil, observes each result as its cell
	// finishes (completion order, serialized under the pool's mutex).
	// Drivers use it to feed live aggregates; it must not block.
	OnResult func(Result)
}

// Run executes every cell and returns the results in cell order, with
// per-cell errors captured in place. It never aborts early: cells
// after a failure still run, and the summary counts the failures.
func (p Pool) Run(cells []Cell) ([]Result, Summary) {
	start := time.Now()
	results := make([]Result, len(cells))
	jobs := p.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	// Don't report a zero-width pool for an empty grid; the clamp only
	// applies when there are cells to spread over the workers.
	if len(cells) > 0 && jobs > len(cells) {
		jobs = len(cells)
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards Progress interleaving and done
		done int
		idx  = make(chan int)
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := p.runCell(cells[i])
				results[i] = r
				if p.Progress != nil || p.OnResult != nil {
					mu.Lock()
					done++
					if p.Progress != nil {
						status := "ok"
						if r.Err != nil {
							status = "FAIL: " + r.Err.Error()
						} else if r.Cached {
							status = "cached"
						}
						fmt.Fprintf(p.Progress, "[%d/%d] %s: %s (%d events, %s)\n",
							done, len(cells), r.Cell.Label, status, r.Events, r.Wall.Round(time.Millisecond))
					}
					if p.OnResult != nil {
						p.OnResult(r)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()

	sum := Summary{Cells: len(cells), Jobs: jobs, Wall: time.Since(start)}
	for _, r := range results {
		if r.Cached {
			sum.Cached++
		}
		if r.Err != nil {
			sum.Failed++
		} else {
			// Failed cells stop at an arbitrary point (build error, or a
			// watchdog/deadlock mid-run), so their event counts would
			// make the summary's totals non-reproducible noise.
			sum.Events += r.Events
			sum.SimCycles += r.Stats.ExecCycles
		}
	}
	if p.Progress != nil {
		fmt.Fprintln(p.Progress, sum)
	}
	return results, sum
}

// runCell resolves one cell: from the cache when its entry holds what
// the cell needs, by simulating otherwise. A simulation observes what
// the cell needs plus every view the old entry held, and rewrites the
// entry, so no later request loses what it could read before. A
// failure is never written. Any cache-side failure — an unreadable
// payload, a failed write — degrades to a plain simulation, never to
// a failed cell the simulator itself wouldn't have failed.
func (p Pool) runCell(c Cell) Result {
	if p.Cache == nil || c.Key.IsZero() {
		return simCell(c)
	}
	start := time.Now()
	var cr *cachedResult
	if payload, ok := p.Cache.Get(c.Key); ok {
		cr, _ = decodePayload(payload) // an undecodable entry is a miss
	}
	wide := c
	if cr != nil {
		if cr.covers(c) {
			if r, err := cr.result(c); err == nil {
				r.Wall = time.Since(start)
				return r
			}
		}
		wide.NeedAttrib = c.NeedAttrib || cr.Attrib != nil
		wide.NeedLatency = c.NeedLatency || cr.Latency != nil
		wide.NeedChecker = c.NeedChecker || cr.Checker != nil
	}
	r := simCell(wide)
	if r.Err == nil {
		if payload, err := encodeResult(&r); err == nil {
			_ = p.Cache.Put(c.Key, payload) // an unwritten entry simulates again next time
		}
		if !c.NeedAttrib {
			r.Attrib = nil
		}
		if !c.NeedLatency {
			r.Latency = nil
		}
		if !c.NeedChecker {
			r.Checker = nil
		}
	}
	r.Cell = c
	return r
}

// simCell builds and runs one cell's machine.
func simCell(c Cell) Result {
	start := time.Now()
	r := Result{Cell: c}
	sys, err := c.Build()
	if err != nil {
		r.Err = fmt.Errorf("%s: %w", c.Label, err)
		r.Wall = time.Since(start)
		return r
	}
	var lat *obs.LatencyBreakdown
	var chk *core.Checker
	if c.NeedAttrib {
		sys.EnableAttribution()
	}
	if c.NeedLatency {
		lat = sys.EnableLatencyBreakdown()
	}
	if c.NeedChecker {
		chk = core.NewChecker(sys)
	}
	if c.NeedSelfProf {
		sys.EnableSelfProf()
	}
	if err := sys.Run(); err != nil {
		r.Err = fmt.Errorf("%s: %w", c.Label, err)
	} else {
		r.Stats = sys.Stats()
		r.Attrib = sys.Attribution()
		r.Latency = lat
		if chk != nil {
			r.Checker = chk.Summary()
		}
		if p := sys.SelfProf(); p != nil {
			r.SelfProf = p.Report()
		}
	}
	r.Events = sys.EventsProcessed()
	// The pool built this machine and nothing reads it past here: its
	// storage goes to the next cell this process builds.
	sys.Release()
	r.Wall = time.Since(start)
	return r
}
