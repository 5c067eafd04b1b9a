package engine

import "testing"

// benchPending is how many events each queue benchmark keeps queued:
// about what a 16-core run has in flight between two pops.
const benchPending = 64

// benchDelay spreads re-scheduled events over the next few cycles, the
// message and pipeline latencies that dominate a run's pushes.
func benchDelay(i int) Cycle { return Cycle(1 + i*7%16) }

// primedRing returns a bucket ring holding benchPending events.
func primedRing() *bucketQueue {
	q := &bucketQueue{}
	q.init()
	r := &testRunner{}
	for i := 0; i < benchPending; i++ {
		q.push(item{at: benchDelay(i), seq: uint64(i), r: r})
	}
	return q
}

// BenchmarkRingPushPop pops the earliest event and re-schedules it a
// few cycles later. Almost every push lands in the 512-cycle ring; only
// the pushes that cross the window's end detour through the far heap
// until the window moves.
func BenchmarkRingPushPop(b *testing.B) {
	b.ReportAllocs()
	q := primedRing()
	seq := uint64(benchPending)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, _ := q.pop()
		seq++
		it.at += benchDelay(i)
		it.seq = seq
		q.push(it)
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
		h.push(item{at: Cycle(i * 61 % 4096), seq: uint64(i), r: r})
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
// a same-cycle chain that lives entirely on the micro FIFO.
type rescheduler struct{ e *Engine }

func (r *rescheduler) Run() { r.e.ScheduleRunner(0, r) }

// BenchmarkMicroFIFO runs one event of a zero-delay chain per op: a
// micro-FIFO push, the probe of the ring for same-cycle events, and the
// micro-FIFO pop.
func BenchmarkMicroFIFO(b *testing.B) {
	b.ReportAllocs()
	e := NewBucketed()
	r := &rescheduler{e: e}
	e.ScheduleRunner(0, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkPopBefore is the PDES window loop's pair of calls: one
// popBefore refused at the earliest queued cycle, then one that takes
// the event and re-schedules it.
func BenchmarkPopBefore(b *testing.B) {
	b.ReportAllocs()
	q := primedRing()
	seq := uint64(benchPending)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, next, _ := q.popBefore(q.cursor)
		if ok {
			b.Fatal("popBefore took an event at or past its limit")
		}
		it, ok, _, _ := q.popBefore(next + 1)
		if !ok {
			b.Fatal("popBefore refused the earliest event")
		}
		seq++
		it.at += benchDelay(i)
		it.seq = seq
		q.push(it)
	}
}
