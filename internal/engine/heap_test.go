package engine

import "testing"

// heapEngine is the differential oracle for the production engine: every
// event goes on one binary min-heap ordered by (cycle, seq), with no
// ring, no window and no zero-delay special case. It is the simplest
// possible implementation of the engine's total order, so any
// divergence between it and Engine is a bug in Engine.
type heapEngine struct {
	now Cycle
	seq uint64
	h   heapQueue
}

func newHeapEngine() *heapEngine { return &heapEngine{} }

func (e *heapEngine) push(at Cycle, r Runner) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.h.push(farItem{at: at, seq: e.seq, r: r})
}

func (e *heapEngine) Now() Cycle                           { return e.now }
func (e *heapEngine) Schedule(delay Cycle, fn Event)       { e.push(e.now+delay, funcEvent(fn)) }
func (e *heapEngine) ScheduleAt(at Cycle, fn Event)        { e.push(at, funcEvent(fn)) }
func (e *heapEngine) ScheduleRunner(delay Cycle, r Runner) { e.push(e.now+delay, r) }
func (e *heapEngine) ScheduleRunnerAt(at Cycle, r Runner)  { e.push(at, r) }

func (e *heapEngine) Run(maxEvents uint64) bool {
	for n := uint64(0); maxEvents == 0 || n < maxEvents; n++ {
		it, ok := e.h.pop()
		if !ok {
			return true
		}
		e.now = it.at
		it.r.Run()
	}
	return len(e.h.items) == 0
}

// scheduler is the engine surface the differential tests drive, so one
// test body runs on both the production Engine and the heapEngine.
type scheduler interface {
	Now() Cycle
	Schedule(delay Cycle, fn Event)
	ScheduleAt(at Cycle, fn Event)
	ScheduleRunner(delay Cycle, r Runner)
	ScheduleRunnerAt(at Cycle, r Runner)
	Run(maxEvents uint64) bool
}

// engines names the two implementations every differential test runs.
var engines = []struct {
	name string
	newE func() scheduler
}{
	{"bucketed", func() scheduler { return New() }},
	{"heap", func() scheduler { return newHeapEngine() }},
}

// runBoth runs the same schedule on a fresh production engine and a
// fresh heap oracle and fails at the first event where their firing
// orders differ.
func runBoth(t *testing.T, label string, run func(e scheduler) []int) {
	t.Helper()
	a := run(New())
	b := run(newHeapEngine())
	if len(a) != len(b) {
		t.Fatalf("%s: bucketed ran %d events, heap ran %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: queues diverge at event %d: %d vs %d", label, i, a[i], b[i])
		}
	}
}
