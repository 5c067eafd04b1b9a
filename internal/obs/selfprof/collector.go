package selfprof

import (
	"fmt"
	"io"
	"sync"
)

// Collector aggregates self-profile reports across many runs — the
// sweep's -self-prof surface, fed from runner worker goroutines, so it
// is the one synchronized type in the package. It keeps machine-level
// totals only: per-tile detail is a single-run concern, and cells in a
// grid can have different tile counts.
type Collector struct {
	mu    sync.Mutex
	runs  int
	agg   Report
	modes map[string]int
}

// Add folds one run's report into the totals. Cached cells never call
// Add (they did not simulate), so the totals cover simulated work only.
func (c *Collector) Add(r *Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	if c.modes == nil {
		c.modes = make(map[string]int)
	}
	c.modes[r.Mode]++
	a := &c.agg
	a.Rounds += r.Rounds
	a.InlineRounds += r.InlineRounds
	a.SoloExtendedRounds += r.SoloExtendedRounds
	a.BarrierReleases += r.BarrierReleases
	a.InjectedMsgs += r.InjectedMsgs
	a.SkippedTileRounds += r.SkippedTileRounds
	a.LoopNs += r.LoopNs
	a.RunNs += r.RunNs
	a.CoordWaitNs += r.CoordWaitNs
	a.BookkeepingNs += r.BookkeepingNs
	a.MergeNs += r.MergeNs
	a.TotalNs += r.TotalNs
	a.TotalEvents += r.TotalEvents
	a.Queue.RingPushes += r.Queue.RingPushes
	a.Queue.FarPushes += r.Queue.FarPushes
	a.Queue.MicroHits += r.Queue.MicroHits
	a.Queue.Refusals += r.Queue.Refusals
	a.Queue.LimitCuts += r.Queue.LimitCuts
	if r.Queue.RingHigh > a.Queue.RingHigh {
		a.Queue.RingHigh = r.Queue.RingHigh
	}
	if r.Queue.FarHigh > a.Queue.FarHigh {
		a.Queue.FarHigh = r.Queue.FarHigh
	}
	if r.WidthMax > a.WidthMax {
		a.WidthMax = r.WidthMax
	}
}

// Runs reports how many reports have been folded in.
func (c *Collector) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// Totals returns a copy of the aggregated report.
func (c *Collector) Totals() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg
}

// WriteSummary renders the grid-level rollup.
func (c *Collector) WriteSummary(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(w, "self-profile: %d simulated cells", c.runs)
	if n := c.modes["pdes"]; n > 0 {
		fmt.Fprintf(w, " (%d pdes)", n)
	}
	fmt.Fprintf(w, ", %d events in %s total wall\n", c.agg.TotalEvents, ns(c.agg.TotalNs))
	if c.agg.Rounds > 0 {
		fmt.Fprintf(w, " rounds %d (inline %d, solo-extended %d, skipped tile-rounds %d, injected msgs %d)\n",
			c.agg.Rounds, c.agg.InlineRounds, c.agg.SoloExtendedRounds,
			c.agg.SkippedTileRounds, c.agg.InjectedMsgs)
		fmt.Fprintf(w, " wall: loop %s = run %s + bookkeeping %s; coord-wait %s; merge %s\n",
			ns(c.agg.LoopNs), ns(c.agg.RunNs), ns(c.agg.BookkeepingNs),
			ns(c.agg.CoordWaitNs), ns(c.agg.MergeNs))
	}
	fmt.Fprintf(w, " queue: ring %d, far %d, zero-delay %d, refusals %d, limit-cuts %d\n",
		c.agg.Queue.RingPushes, c.agg.Queue.FarPushes, c.agg.Queue.MicroHits,
		c.agg.Queue.Refusals, c.agg.Queue.LimitCuts)
}
