package engine

import "testing"

// benchPending is how many events each queue benchmark keeps queued:
// about what a 16-core run has in flight between two pops.
const benchPending = 64

// benchDelay spreads re-scheduled events over the next few cycles, the
// message and pipeline latencies that dominate a run's pushes.
func benchDelay(i int) Cycle { return Cycle(1 + i*7%16) }

// hopper re-schedules itself a few cycles later every time it runs, the
// shape of a message hopping from controller to controller.
type hopper struct {
	e *Engine
	i int
}

func (h *hopper) Run() {
	h.i++
	h.e.ScheduleRunner(benchDelay(h.i), h)
}

// BenchmarkStep is the per-event cost of a run: one Step pops the
// earliest event from the ring and runs it, and the event schedules its
// successor with ScheduleRunner. Almost every push lands in the
// 512-cycle ring; only the pushes that cross the window's end detour
// through the far heap until the window moves.
func BenchmarkStep(b *testing.B) {
	b.ReportAllocs()
	e := New()
	hs := make([]hopper, benchPending)
	for i := range hs {
		hs[i] = hopper{e: e, i: i}
		e.ScheduleRunner(benchDelay(i), &hs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkFarHeap is the far-future heap alone: pop the minimum and
// push an event up to a few thousand cycles out, as memory replies and
// the stall watchdog do.
func BenchmarkFarHeap(b *testing.B) {
	b.ReportAllocs()
	var h heapQueue
	r := &testRunner{}
	for i := 0; i < benchPending; i++ {
		h.push(farItem{at: Cycle(i * 61 % 4096), seq: uint64(i), r: r})
	}
	seq := uint64(benchPending)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, _ := h.pop()
		seq++
		it.at += Cycle(512 + i*97%4096)
		it.seq = seq
		h.push(it)
	}
}

// rescheduler schedules itself again at zero delay every time it runs:
// a same-cycle chain that lives entirely in the current cycle's bucket.
type rescheduler struct{ e *Engine }

func (r *rescheduler) Run() { r.e.ScheduleRunner(0, r) }

// BenchmarkZeroDelay runs one event of a zero-delay chain per op: an
// append to the current cycle's bucket and the pop that takes it.
func BenchmarkZeroDelay(b *testing.B) {
	b.ReportAllocs()
	e := New()
	r := &rescheduler{e: e}
	e.ScheduleRunner(0, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
