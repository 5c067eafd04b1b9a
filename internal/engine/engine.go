// Package engine implements the deterministic discrete-event core of
// the simulator. All timing in the system — core issue, cache access,
// network hops, directory occupancy — is expressed as events scheduled
// on a single queue of (cycle, sequence) pairs, where the sequence
// number makes same-cycle ordering stable and runs reproducible.
//
// This replaces the SIMICS/GEMS execution-driven engine the paper used:
// the memory-system results depend only on event ordering and the
// Table 4 latencies, both of which this engine reproduces exactly.
//
// The queue has two levels. A ring of per-cycle FIFO buckets covers the
// near future: a bucket's cycle is its slot and push order is sequence
// order, so a slot is a bare Runner (16 bytes) and push and pop are O(1)
// with no per-event allocation. Events due this very cycle append to the
// current cycle's bucket behind everything already queued there. A typed
// min-heap of (cycle, sequence, Runner) holds the far-future overflow
// and drains into the ring window by window. Every event is a Runner:
// Schedule wraps a closure in a pointer-shaped adapter, which does not
// allocate. The package tests hold this queue equal to a plain
// binary-heap reference engine under randomized schedules.
package engine

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Event is a callback scheduled to run at a specific cycle.
type Event func()

// Runner is the allocation-free alternative to Event: callers that
// would otherwise capture state in a fresh closure per event implement
// Run on a reusable struct and pass it to ScheduleRunner. Scheduling a
// pointer-shaped Runner does not allocate.
type Runner interface{ Run() }

// funcEvent adapts a closure to Runner. A func value is pointer-shaped,
// so converting it to the interface stores it directly, without
// allocating.
type funcEvent func()

func (f funcEvent) Run() { f() }

// Prof is the engine's opt-in queue-introspection block (the simulator
// self-profiling layer, internal/obs/selfprof). Attach one with SetProf
// before running; every counter site in the hot path guards on a single
// nil check, so an engine without a Prof pays one predictable branch —
// the same contract as the internal/obs hooks. The goroutine running
// the engine is its only writer; read it after Run.
//
// Every scheduled event is exactly one of a ring push, a far push or a
// zero-delay hit (Engine.MicroHits), so the three sum to the events
// scheduled.
type Prof struct {
	RingPushes uint64 // events filed into a later cycle's bucket of the ring
	FarPushes  uint64 // events filed into the far-future heap
	RingHigh   int    // most unpopped events the bucket ring has held
	FarHigh    int    // deepest the far-future heap has been
}

// Engine is a deterministic event queue. The zero value is NOT ready to
// use; construct with New.
type Engine struct {
	now       Cycle
	events    uint64
	high      int    // deepest the queue has ever been
	zeroDelay uint64 // events scheduled at the current cycle
	q         bucketQueue

	// prof, when non-nil, receives the queue-introspection counters
	// (SetProf). One nil check per site when disabled.
	prof *Prof
}

// New returns a fresh engine at cycle zero.
func New() *Engine {
	e := &Engine{}
	e.q.init()
	return e
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Processed reports how many events have run.
func (e *Engine) Processed() uint64 { return e.events }

// push files r at cycle at, which callers guarantee is >= now. The
// current cycle always lies inside the ring window (the window only
// moves to the cycle of the event about to run), so a zero-delay event
// appends to bucket `now` and runs after everything already queued for
// this cycle — all of which was pushed earlier.
func (e *Engine) push(at Cycle, r Runner) {
	q := &e.q
	q.size++
	if at < q.start+numBuckets {
		q.pushRing(at, r)
		if at == e.now {
			e.zeroDelay++
		} else if e.prof != nil {
			e.prof.RingPushes++
		}
		if e.prof != nil && q.inWin > e.prof.RingHigh {
			e.prof.RingHigh = q.inWin
		}
	} else {
		q.pushFar(at, r)
		if e.prof != nil {
			e.prof.FarPushes++
			if len(q.far.items) > e.prof.FarHigh {
				e.prof.FarHigh = len(q.far.items)
			}
		}
	}
	if q.size > e.high {
		e.high = q.size
	}
}

// Schedule runs fn delay cycles from now. Events scheduled for the
// same cycle run in scheduling order.
func (e *Engine) Schedule(delay Cycle, fn Event) {
	e.push(e.now+delay, funcEvent(fn))
}

// ScheduleAt runs fn at the given absolute cycle, which must not be in
// the past; a past cycle is clamped to now.
func (e *Engine) ScheduleAt(at Cycle, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.push(at, funcEvent(fn))
}

// ScheduleRunner runs r delay cycles from now, without allocating: the
// hot-path equivalent of Schedule for pre-bound event structs.
func (e *Engine) ScheduleRunner(delay Cycle, r Runner) {
	e.push(e.now+delay, r)
}

// ScheduleRunnerAt is ScheduleAt for a Runner; past cycles clamp to now.
func (e *Engine) ScheduleRunnerAt(at Cycle, r Runner) {
	if at < e.now {
		at = e.now
	}
	e.push(at, r)
}

// HighWater reports the deepest the queue has ever been — the
// event-queue depth gauge the observability registry exposes.
func (e *Engine) HighWater() int { return e.high }

// MicroHits reports how many events were scheduled at the current
// cycle (zero delay). Always counted — the increment shares the ring
// push's existing branch.
func (e *Engine) MicroHits() uint64 { return e.zeroDelay }

// SetProf attaches a queue-introspection shard: every hot-path counter
// site guards on one nil check, so engines without a Prof pay a single
// predictable branch per site. Pass nil to detach. Counters accumulate;
// attach a zeroed Prof per run for per-run numbers.
func (e *Engine) SetProf(p *Prof) {
	e.prof = p
	e.q.prof = p
}

// Prof returns the attached introspection shard, or nil.
func (e *Engine) Prof() *Prof { return e.prof }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.size }

// Step runs the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	at, r, ok := e.q.pop()
	if !ok {
		return false
	}
	e.now = at
	e.events++
	r.Run()
	return true
}

// Recycle returns the ring storage to a process-wide pool once the
// engine has fully drained. The engine remains readable (Now,
// Processed, Pending, HighWater all stay valid) but must not
// schedule further events. Recycle is a no-op on engines with events
// still queued and on engines already recycled — callers on error paths
// can skip it and lose nothing but the reuse.
func (e *Engine) Recycle() {
	if e.q.size != 0 {
		return
	}
	e.q.release()
}

// Run drains the queue. It stops after maxEvents events when
// maxEvents > 0 (a watchdog against protocol livelock) and reports
// whether the queue drained completely.
func (e *Engine) Run(maxEvents uint64) bool {
	start := e.events
	for e.Step() {
		if maxEvents > 0 && e.events-start >= maxEvents {
			return e.Pending() == 0
		}
	}
	return true
}
