package engine

import "testing"

// TestProfCountsReconcile pins the queue-introspection accounting: every
// scheduled event is exactly one of a ring push, a far-future push, or
// a zero-delay hit (which also lands in the ring, in the current
// cycle's bucket, but counts only as a zero-delay hit), so the three
// counters must sum to the schedule count — and the high-water marks
// bound the final totals.
func TestProfCountsReconcile(t *testing.T) {
	e := New()
	var prof Prof
	e.SetProf(&prof)

	const nearEvents = 50
	const farEvents = 7
	scheduled := 0
	ran := 0

	// Near-future events inside the 512-cycle ring window.
	for i := 0; i < nearEvents; i++ {
		e.Schedule(Cycle(1+i%100), func() { ran++ })
		scheduled++
	}
	// Far-future events beyond the ring.
	for i := 0; i < farEvents; i++ {
		e.Schedule(Cycle(numBuckets+10+i), func() { ran++ })
		scheduled++
	}
	// Zero-delay chains: each event schedules a same-cycle follower.
	for i := 0; i < 5; i++ {
		e.Schedule(Cycle(3+i), func() {
			e.Schedule(0, func() { ran++ })
			scheduled++
			ran++
		})
		scheduled++
	}

	if !e.Run(0) {
		t.Fatal("queue did not drain")
	}
	if ran != scheduled {
		t.Fatalf("ran %d of %d scheduled events", ran, scheduled)
	}

	total := prof.RingPushes + prof.FarPushes + e.MicroHits()
	if total != uint64(scheduled) {
		t.Errorf("ring %d + far %d + zero-delay %d = %d, want %d scheduled",
			prof.RingPushes, prof.FarPushes, e.MicroHits(), total, scheduled)
	}
	if prof.FarPushes != farEvents {
		t.Errorf("FarPushes = %d, want %d", prof.FarPushes, farEvents)
	}
	if e.MicroHits() != 5 {
		t.Errorf("MicroHits = %d, want 5", e.MicroHits())
	}
	if prof.RingHigh < 1 || prof.RingHigh > scheduled {
		t.Errorf("RingHigh = %d out of range [1, %d]", prof.RingHigh, scheduled)
	}
	if prof.FarHigh != farEvents {
		t.Errorf("FarHigh = %d, want %d", prof.FarHigh, farEvents)
	}
}
