// Package selfprof is the simulator's self-profiling layer: where
// internal/obs observes the simulated machine, selfprof observes the
// simulator itself — how many events a run took, in how much wall
// time, and how the engine's queue was used (ring pushes, far-future
// pushes, zero-delay hits, high-water marks). The layer is strictly
// opt-in (System.EnableSelfProf before Run); every counter site in the
// engine's hot path guards on a single nil check.
package selfprof

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"protozoa/internal/engine"
)

// Profile is one run's self-profiling state. Queue is attached to the
// run's engine (engine.SetProf); the rest is stamped when Run ends.
type Profile struct {
	Start time.Time

	Queue       engine.Prof
	MicroHits   uint64 // zero-delay schedules (engine.MicroHits)
	TotalEvents uint64 // events the run processed
	TotalNs     int64  // wall-clock of the whole Run
}

// New returns a profile whose wall clock starts now.
func New() *Profile { return &Profile{Start: time.Now()} }

// Report is the serializable snapshot of a Profile — what -self-prof
// dumps as JSON and renders as the summary line. Take it after Run.
type Report struct {
	TotalEvents uint64      `json:"total_events"`
	TotalNs     int64       `json:"total_ns"`
	Queue       QueueTotals `json:"queue"`

	// Rounds, CoordWaitNs, BookkeepingNs and WorkerWait exist only for
	// perfbench, which still reads the round telemetry of the retired
	// parallel engine. They always read zero and stay out of the JSON.
	Rounds        uint64         `json:"-"`
	CoordWaitNs   int64          `json:"-"`
	BookkeepingNs int64          `json:"-"`
	WorkerWait    []WorkerReport `json:"-"`
}

// WorkerReport exists only for perfbench (see Report.WorkerWait).
type WorkerReport struct {
	SpinNs int64
}

// QueueTotals are the engine queue's introspection counters.
type QueueTotals struct {
	RingPushes uint64 `json:"ring_pushes"`
	FarPushes  uint64 `json:"far_pushes"`
	MicroHits  uint64 `json:"micro_hits"`
	RingHigh   int    `json:"ring_high"`
	FarHigh    int    `json:"far_high"`

	// Refusals exists only for perfbench; it counted bounded runs of
	// the retired parallel engine and always reads zero.
	Refusals uint64 `json:"-"`
}

// Report snapshots the profile. Call after Run.
func (p *Profile) Report() *Report {
	return &Report{
		TotalEvents: p.TotalEvents,
		TotalNs:     p.TotalNs,
		Queue: QueueTotals{
			RingPushes: p.Queue.RingPushes,
			FarPushes:  p.Queue.FarPushes,
			MicroHits:  p.MicroHits,
			RingHigh:   p.Queue.RingHigh,
			FarHigh:    p.Queue.FarHigh,
		},
	}
}

// WriteJSON dumps the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

func ns(d int64) string {
	return time.Duration(d).Round(10 * time.Microsecond).String()
}

// WriteSummary renders the human-readable lines -self-prof prints.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "self-profile: %d events in %s\n", r.TotalEvents, ns(r.TotalNs))
	fmt.Fprintf(w, " queue: ring %d, far %d, zero-delay %d, high ring/far %d/%d\n",
		r.Queue.RingPushes, r.Queue.FarPushes, r.Queue.MicroHits,
		r.Queue.RingHigh, r.Queue.FarHigh)
}

// Collector aggregates self-profile reports across many runs — the
// sweep's -self-prof surface, fed from runner worker goroutines, so it
// is the one synchronized type in the package.
type Collector struct {
	mu   sync.Mutex
	runs int
	agg  Report
}

// Add folds one run's report into the totals. Cached cells never call
// Add (they did not simulate), so the totals cover simulated work only.
func (c *Collector) Add(r *Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	a := &c.agg
	a.TotalNs += r.TotalNs
	a.TotalEvents += r.TotalEvents
	a.Queue.RingPushes += r.Queue.RingPushes
	a.Queue.FarPushes += r.Queue.FarPushes
	a.Queue.MicroHits += r.Queue.MicroHits
	a.Queue.RingHigh = max(a.Queue.RingHigh, r.Queue.RingHigh)
	a.Queue.FarHigh = max(a.Queue.FarHigh, r.Queue.FarHigh)
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
	fmt.Fprintf(w, "self-profile: %d simulated cells, %d events in %s total wall\n",
		c.runs, c.agg.TotalEvents, ns(c.agg.TotalNs))
	fmt.Fprintf(w, " queue: ring %d, far %d, zero-delay %d\n",
		c.agg.Queue.RingPushes, c.agg.Queue.FarPushes, c.agg.Queue.MicroHits)
}
