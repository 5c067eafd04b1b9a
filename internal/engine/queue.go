package engine

import (
	"math/bits"

	"protozoa/internal/recycle"
)

// This file holds the engine's two-level queue.
//
// bucketQueue is a ring of numBuckets per-cycle FIFO buckets covering
// the window [start, start+numBuckets), plus a heapQueue for events
// beyond the window. Almost every event in the simulator lands within a
// few hundred cycles of now (the largest Table 4 latency is the
// 300-cycle memory access), so pushes and pops are O(1) appends/reads
// of reused slices at steady state. When the window empties, the queue
// jumps to the earliest far-future event and drains the heap into the
// new window.

// farItem is one far-future event. Unlike a ring slot it must carry its
// cycle and schedule sequence: the heap orders by exactly that pair.
type farItem struct {
	at  Cycle
	seq uint64
	r   Runner
}

// before is the engine's total order: cycle first, then schedule
// sequence, so same-cycle events run in scheduling order.
func (it farItem) before(other farItem) bool {
	if it.at != other.at {
		return it.at < other.at
	}
	return it.seq < other.seq
}

// heapQueue is a typed binary min-heap ordered by farItem.before, with
// direct sift-up/sift-down (no container/heap, no interface{} boxing).
type heapQueue struct {
	items []farItem
}

func (h *heapQueue) push(it farItem) {
	h.items = append(h.items, it)
	h.siftUp(len(h.items) - 1)
}

func (h *heapQueue) pop() (farItem, bool) {
	n := len(h.items)
	if n == 0 {
		return farItem{}, false
	}
	top := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = farItem{} // release the runner reference
	h.items = h.items[:n-1]
	if len(h.items) > 1 {
		h.siftDown(0)
	}
	return top, true
}

func (h *heapQueue) peekAt() (Cycle, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].at, true
}

func (h *heapQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].before(h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *heapQueue) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.items[l].before(h.items[min]) {
			min = l
		}
		if r < n && h.items[r].before(h.items[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

// bucketBits sizes the near-future window: 512 cycles covers every
// latency the machine model schedules (the longest, a memory access, is
// 300), so only the stall watchdog and deep memory queues spill into
// the far heap; a wider ring would only add slab to every engine.
const (
	bucketBits = 9
	numBuckets = 1 << bucketBits
	bucketMask = numBuckets - 1
)

// bucket holds the events of exactly one cycle within the current
// window, in push order (which is seq order, preserving determinism).
// head is the next unpopped index; the slice is reset and reused once
// the cycle has been fully drained.
type bucket struct {
	items []Runner
	head  int
}

type bucketQueue struct {
	buckets []bucket
	occ     []uint64      // occupancy bitmap: bit b set ⇔ buckets[b] has unpopped items
	store   *queueStorage // pooled backing for buckets; nil after release
	start   Cycle         // inclusive lower bound of the window
	cursor  Cycle         // cycle of the last pop; every queued item is at >= cursor
	inWin   int           // unpopped items currently in buckets
	far     heapQueue
	farSeq  uint64 // schedule sequence of far-future pushes
	size    int    // queued events, ring and far heap together
	prof    *Prof  // queue-introspection shard (Engine.SetProf); nil when disabled
}

// queueStorage is the poolable part of a bucketQueue: the ring itself
// plus every per-bucket items slice its buckets have grown, plus the
// occupancy bitmap. Recycling the storage across runs saves each
// engine re-growing its buckets. The pool starts empty and a run that
// fails keeps its ring, so a fresh ring must be cheap too: its buckets
// start with bucketSlots of capacity carved from one slab, which keeps
// a run's allocation count nearly independent of how many rings the
// pool happened to keep.
type queueStorage struct {
	buckets []bucket
	occ     []uint64
}

// bucketSlots is each bucket's initial capacity, carved from one slab
// per ring, so a fresh ring costs three allocations rather than one per
// distinct active cycle; only a cycle with more events than that grows
// its own slice. Zero-delay events join the current cycle's bucket, so
// busy cycles often exceed 4: at 8 (a 64 KiB slab) a sequential
// barnes/MW run makes 949 allocations, against 1095 at 4.
const bucketSlots = 8

// storagePool holds the rings of engines that drained cleanly.
var storagePool recycle.Pool[*queueStorage]

// newQueueStorage builds a fresh ring.
func newQueueStorage() *queueStorage {
	st := &queueStorage{
		buckets: make([]bucket, numBuckets),
		occ:     make([]uint64, numBuckets/64),
	}
	slab := make([]Runner, numBuckets*bucketSlots)
	for i := range st.buckets {
		st.buckets[i].items = slab[i*bucketSlots : i*bucketSlots : (i+1)*bucketSlots]
	}
	return st
}

func (q *bucketQueue) init() {
	st, ok := storagePool.Get()
	if !ok {
		st = newQueueStorage()
	}
	q.store = st
	q.buckets = q.store.buckets
	q.occ = q.store.occ
}

// release returns the ring to the shared pool. Callers guarantee the
// queue is empty; every occupied slot was already zeroed when its item
// popped, so resetting lengths and heads is enough to hand the storage
// to the next engine without leaking event references.
func (q *bucketQueue) release() {
	if q.store == nil {
		return
	}
	for i := range q.buckets {
		b := &q.buckets[i]
		b.items = b.items[:0]
		b.head = 0
	}
	for i := range q.occ {
		q.occ[i] = 0
	}
	storagePool.Put(q.store)
	q.store = nil
	q.buckets = nil
	q.occ = nil
}

// pushRing appends r to cycle at's bucket. Callers guarantee at lies in
// the window (q.cursor <= at < q.start+numBuckets) and count the event
// in size.
func (q *bucketQueue) pushRing(at Cycle, r Runner) {
	slot := uint64(at) & bucketMask
	b := &q.buckets[slot]
	old := b.items
	b.items = append(old, r)
	if len(old) == cap(old) {
		// The bucket moved off old, which the pooled ring's slab keeps
		// reachable: clear it, or it pins this run's events and machine.
		clear(old)
	}
	q.occ[slot>>6] |= 1 << (slot & 63)
	q.inWin++
}

// pushFar files r, due at a cycle beyond the window, into the
// far-future heap. Callers count the event in size.
func (q *bucketQueue) pushFar(at Cycle, r Runner) {
	q.farSeq++
	q.far.push(farItem{at: at, seq: q.farSeq, r: r})
}

// takeAt pops the front of cycle c's bucket, clearing the occupancy
// bit and recycling the slice when the cycle drains. Callers guarantee
// the bucket is non-empty. Nothing can arrive behind a drained cycle
// (pushes land at >= the last popped cycle), so the reset is final
// until the ring wraps back around.
func (q *bucketQueue) takeAt(c Cycle) Runner {
	slot := uint64(c) & bucketMask
	b := &q.buckets[slot]
	r := b.items[b.head]
	b.items[b.head] = nil // release the runner reference
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
		q.occ[slot>>6] &^= 1 << (slot & 63)
	}
	q.inWin--
	q.size--
	return r
}

// nextOccupied reports the earliest non-empty bucket cycle in
// [from, start+numBuckets), skipping empty buckets a 64-cycle word at
// a time via the occupancy bitmap instead of probing them one by one.
func (q *bucketQueue) nextOccupied(from Cycle) (Cycle, bool) {
	span := uint64(q.start + numBuckets - from) // window cycles left to scan
	slot := uint64(from) & bucketMask
	if word := q.occ[slot>>6] >> (slot & 63); word != 0 {
		if d := uint64(bits.TrailingZeros64(word)); d < span {
			return from + Cycle(d), true
		}
		return 0, false
	}
	for covered := 64 - (slot & 63); covered < span; covered += 64 {
		if word := q.occ[((slot+covered)&bucketMask)>>6]; word != 0 {
			if d := covered + uint64(bits.TrailingZeros64(word)); d < span {
				return from + Cycle(d), true
			}
			return 0, false
		}
	}
	return 0, false
}

// pop removes the globally earliest event in (cycle, seq) order and
// reports its cycle.
func (q *bucketQueue) pop() (Cycle, Runner, bool) {
	if q.inWin == 0 {
		// Window empty: jump to the earliest far-future event and drain
		// the heap into the new window.
		at, ok := q.far.peekAt()
		if !ok {
			return 0, nil, false
		}
		q.start = at
		q.cursor = at
		q.refill()
	}
	// inWin > 0 guarantees an occupied bucket in the window.
	c, _ := q.nextOccupied(q.cursor)
	q.cursor = c
	return c, q.takeAt(c), true
}

// refill drains far-future events landing in the (just repositioned)
// window into their buckets. Heap pops come out in (cycle, seq) order,
// so each bucket receives its items in seq order, ahead of any later
// push to the same cycle. Migrated events were already counted as
// FarPushes when first filed, so only the ring high-water mark is
// refreshed here — never the push counters.
func (q *bucketQueue) refill() {
	for {
		nextAt, ok := q.far.peekAt()
		if !ok || nextAt >= q.start+numBuckets {
			break
		}
		it, _ := q.far.pop()
		q.pushRing(it.at, it.r)
	}
	if q.prof != nil && q.inWin > q.prof.RingHigh {
		q.prof.RingHigh = q.inWin
	}
}
