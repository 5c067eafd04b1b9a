package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// testRunner records its firing order; the minimal Runner for queue
// tests.
type testRunner struct {
	id  int
	out *[]int
}

func (r *testRunner) Run() { *r.out = append(*r.out, r.id) }

func TestScheduleRunnerOrdering(t *testing.T) {
	e := New()
	var got []int
	e.ScheduleRunner(30, &testRunner{3, &got})
	e.Schedule(10, func() { got = append(got, 1) })
	e.ScheduleRunner(20, &testRunner{2, &got})
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

func TestRunnerAndClosureInterleaveBySeq(t *testing.T) {
	// Runners and closures scheduled for the same cycle must fire in
	// schedule order regardless of which API queued them.
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			e.ScheduleRunner(5, &testRunner{i, &got})
		} else {
			i := i
			e.Schedule(5, func() { got = append(got, i) })
		}
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed same-cycle order broken: %v", got)
		}
	}
}

func TestBucketQueueFarFuture(t *testing.T) {
	// Delays beyond the bucket window land in the overflow heap and
	// must still fire in exact (cycle, seq) order, including events
	// scheduled into a far window from within it.
	e := New()
	var got []Cycle
	note := func() { got = append(got, e.Now()) }
	e.Schedule(numBuckets*3+7, note) // far future
	e.Schedule(1, func() {
		note()
		e.Schedule(numBuckets*2, note) // far from cycle 1
		e.Schedule(5, note)            // near
	})
	e.Run(0)
	want := []Cycle{1, 6, numBuckets*2 + 1, numBuckets*3 + 7}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

// TestQueueDifferential drives the bucketed queue and the reference
// heap with an identical random schedule — including nested scheduling
// and far-future delays straddling the window boundary — and requires
// the exact same execution order from both.
func TestQueueDifferential(t *testing.T) {
	run := func(e scheduler, seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		var got []int
		n := 0
		var kick func()
		kick = func() {
			id := n
			n++
			got = append(got, id)
			for i := 0; i < rng.Intn(4); i++ {
				delay := Cycle(rng.Intn(10))
				switch rng.Intn(3) {
				case 0: // straddle the window boundary
					delay = numBuckets - 2 + Cycle(rng.Intn(5))
				case 1: // deep overflow
					delay = numBuckets*2 + Cycle(rng.Intn(100))
				}
				if n < 3000 {
					e.Schedule(delay, kick)
				}
			}
		}
		for i := 0; i < 50; i++ {
			e.Schedule(Cycle(rng.Intn(int(numBuckets)*3)), kick)
		}
		e.Run(0)
		return got
	}
	for seed := int64(0); seed < 5; seed++ {
		runBoth(t, fmt.Sprintf("seed %d", seed), func(e scheduler) []int { return run(e, seed) })
	}
}

func TestBucketQueueWindowReuse(t *testing.T) {
	// Cycle through many windows to exercise bucket reset and window
	// jumps; Pending must track exactly.
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.Schedule(numBuckets/2+3, tick)
		}
	}
	e.Schedule(0, tick)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run(0)
	if count != 100 {
		t.Fatalf("ran %d ticks, want 100", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

// TestZeroDelayDifferential stresses zero-delay scheduling against the
// reference heap. A zero-delay event appends to the current cycle's
// bucket, so it must run after everything already queued for this
// cycle, in schedule order among its peers. Random cascades mix
// Schedule(0, …) chains with 1-cycle and far-future delays; a
// structured schedule then pins the bucket states the append meets: a
// bucket that is partly drained, one holding more than bucketSlots
// events, and one just refilled from the far heap after a window jump.
func TestZeroDelayDifferential(t *testing.T) {
	run := func(e scheduler, seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		var got []int
		n := 0
		var kick func()
		kick = func() {
			id := n
			n++
			got = append(got, id)
			if n >= 4000 {
				return
			}
			for i := 0; i < rng.Intn(4); i++ {
				var delay Cycle
				switch rng.Intn(5) {
				case 0, 1: // zero-delay chain into the current bucket
					delay = 0
				case 2: // next cycle
					delay = 1
				case 3: // in-window
					delay = Cycle(1 + rng.Intn(20))
				default: // far future, straddling the ring boundary
					delay = numBuckets - 2 + Cycle(rng.Intn(5))
				}
				if rng.Intn(2) == 0 {
					e.Schedule(delay, kick)
				} else {
					e.ScheduleRunner(delay, &kickRunner{kick})
				}
			}
		}
		for i := 0; i < 30; i++ {
			e.Schedule(Cycle(rng.Intn(int(numBuckets))), kick)
		}
		e.Run(0)
		return got
	}
	for seed := int64(0); seed < 5; seed++ {
		runBoth(t, fmt.Sprintf("seed %d", seed), func(e scheduler) []int { return run(e, seed) })
	}

	seen := map[string]bool{}
	runBoth(t, "structured", func(e scheduler) []int { return zeroDelayCorners(e, seen) })
	for _, state := range []string{"partly drained", "overfull", "refilled"} {
		if !seen[state] {
			t.Errorf("structured schedule never pushed zero-delay events into a %s bucket", state)
		}
	}
}

// zeroDelayCorners runs a fixed schedule whose handlers push zero-delay
// chains into the current cycle's bucket while it is partly drained,
// while it holds more than bucketSlots events, and right after a window
// jump refilled it from the far heap. On the production engine it
// records in seen which of those states each handler found.
func zeroDelayCorners(e scheduler, seen map[string]bool) []int {
	var got []int
	probe := func() {
		eng, ok := e.(*Engine)
		if !ok {
			return
		}
		b := &eng.q.buckets[uint64(eng.now)&bucketMask]
		if b.head > 0 && b.head < len(b.items) {
			seen["partly drained"] = true
		}
		if len(b.items) > bucketSlots {
			seen["overfull"] = true
		}
		if eng.now > 0 && eng.q.start == eng.now && b.head < len(b.items) {
			seen["refilled"] = true
		}
	}
	next := 100
	// fire records id and, when depth > 0, schedules three zero-delay
	// children (closures and runners alternating) that recurse.
	var fire func(id, depth int) Event
	fire = func(id, depth int) Event {
		return func() {
			got = append(got, id)
			probe()
			for k := 0; depth > 0 && k < 3; k++ {
				next++
				child := fire(next, depth-1)
				if k%2 == 0 {
					e.Schedule(0, child)
				} else {
					e.ScheduleRunner(0, &kickRunner{child})
				}
			}
		}
	}
	// Two events more than bucketSlots in one cycle; the second spawns
	// chains while the rest of its peers are still queued.
	for i := 0; i < bucketSlots+2; i++ {
		depth := 0
		if i == 1 {
			depth = 2
		}
		e.ScheduleAt(10, fire(i, depth))
	}
	// Six events on one far cycle, filed into the far heap from two
	// points in time. Once everything earlier drains, the window jumps
	// to that cycle and refills; the first refilled event spawns chains
	// behind its five refilled peers.
	far := Cycle(numBuckets*3 + 17)
	for i := 0; i < 3; i++ {
		depth := 0
		if i == 0 {
			depth = 2
		}
		e.ScheduleAt(far, fire(20+i, depth))
	}
	e.ScheduleAt(40, func() {
		got = append(got, 30)
		for i := 0; i < 3; i++ {
			e.ScheduleAt(far, fire(31+i, 0))
		}
	})
	e.ScheduleAt(far+1, fire(40, 1))
	e.Run(0)
	return got
}

// kickRunner adapts a closure to the Runner interface so differential
// tests can exercise both scheduling APIs.
type kickRunner struct{ fn func() }

func (r *kickRunner) Run() { r.fn() }

// TestSameCycleTieBreakAcrossRingWrap pins the (cycle, seq) tie-break
// for same-cycle events whose target lies beyond the bucket ring: they
// detour through the far-future overflow heap and are refilled into a
// ring window that has wrapped around modulo numBuckets. The refill
// must hand each bucket its items in seq order — interleaved closures
// and runners, scheduled from different points in time, all landing on
// one far cycle — and a neighbour event one full ring period earlier
// (same slot index, different window) must not perturb them.
func TestSameCycleTieBreakAcrossRingWrap(t *testing.T) {
	for _, mk := range engines {
		t.Run(mk.name, func(t *testing.T) {
			e := mk.newE()
			const target = Cycle(numBuckets*3 + 5) // well past two wraps
			var got []int
			// Same slot index as target, two ring periods earlier: drains
			// first and forces the window to jump (wrap) before target.
			e.ScheduleAt(target-numBuckets*2, func() {
				got = append(got, -1)
				// Late joiners scheduled mid-run, after some peers are
				// already in the far heap: seq order must still win.
				e.ScheduleAt(target, func() { got = append(got, 2) })
				e.ScheduleRunnerAt(target, &testRunner{3, &got})
			})
			e.ScheduleAt(target, func() { got = append(got, 0) })
			e.ScheduleRunnerAt(target, &testRunner{1, &got})
			e.ScheduleAt(target+1, func() { got = append(got, 4) })
			e.Run(0)
			want := []int{-1, 0, 1, 2, 3, 4}
			if len(got) != len(want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fired %v, want %v", got, want)
				}
			}
			if e.Now() != target+1 {
				t.Fatalf("ended at cycle %d, want %d", e.Now(), target+1)
			}
		})
	}
}

// TestFreshRingFillsWithoutGrowing pins the slab-backed bucket
// capacity: a ring built from scratch (as when the storage pool is
// empty) costs only its own storage — the
// ring, the bitmap, the slab and their holder — and then takes up to
// bucketSlots events in every cycle of its window without allocating.
func TestFreshRingFillsWithoutGrowing(t *testing.T) {
	r := &testRunner{}
	n := testing.AllocsPerRun(5, func() {
		q := &bucketQueue{store: newQueueStorage()}
		q.buckets, q.occ = q.store.buckets, q.store.occ
		for c := Cycle(0); c < numBuckets; c++ {
			for k := uint64(0); k < bucketSlots; k++ {
				q.pushRing(c, r)
			}
		}
		for q.inWin > 0 {
			q.pop()
		}
	})
	if n > 4 {
		t.Errorf("building and filling a fresh ring allocated %v times, want at most 4", n)
	}
}

// TestGrownBucketReleasesSlab pins that a bucket outgrowing its slab
// segment leaves no event behind in it. The ring is pooled across
// engines, and a grown bucket never writes its slab segment again, so
// a stale Runner there pinned a finished run's whole machine for as
// long as later engines reused the ring: with 8 slots per bucket, a
// cold reproduction's peak live heap rose from 153 MB to 270 MB.
func TestGrownBucketReleasesSlab(t *testing.T) {
	q := &bucketQueue{store: newQueueStorage()}
	q.buckets, q.occ = q.store.buckets, q.store.occ
	const c = 7
	seg := q.buckets[c].items[:bucketSlots]
	r := &testRunner{}
	for k := 0; k <= bucketSlots; k++ {
		q.pushRing(c, r)
	}
	for q.inWin > 0 {
		q.pop()
	}
	for k, slot := range seg {
		if slot != nil {
			t.Fatalf("slab slot %d of a grown bucket still holds %v", k, slot)
		}
	}
}
