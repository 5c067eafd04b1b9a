package engine

import (
	"math/rand"
	"testing"
)

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %d, want 30", e.Now())
	}
}

func TestSameCycleEventsRunInScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle order broken: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var trace []string
	e.Schedule(1, func() {
		trace = append(trace, "a")
		e.Schedule(2, func() { trace = append(trace, "c") })
		e.Schedule(1, func() { trace = append(trace, "b") })
	})
	e.Run(0)
	if len(trace) != 3 || trace[0] != "a" || trace[1] != "b" || trace[2] != "c" {
		t.Fatalf("trace = %v", trace)
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %d, want 3", e.Now())
	}
}

func TestScheduleAtClampsPast(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(10, func() {
		e.ScheduleAt(5, func() { ran = true }) // in the past: clamp to now
	})
	e.Run(0)
	if !ran {
		t.Fatal("clamped event never ran")
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %d, want 10", e.Now())
	}
}

func TestRunWatchdogStops(t *testing.T) {
	e := New()
	var tick func()
	tick = func() { e.Schedule(1, tick) } // infinite self-rescheduling
	e.Schedule(1, tick)
	drained := e.Run(100)
	if drained {
		t.Fatal("Run reported drained on an infinite event chain")
	}
	if e.Processed() != 100 {
		t.Errorf("Processed() = %d, want 100", e.Processed())
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := New()
		rng := rand.New(rand.NewSource(seed))
		var got []int
		for i := 0; i < 200; i++ {
			i := i
			e.Schedule(Cycle(rng.Intn(50)), func() { got = append(got, i) })
		}
		e.Run(0)
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPendingCount(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
}

// tick is a self-rescheduling observer event, the shape of the
// timeline sampler.
type tick struct {
	e     *Engine
	every Cycle
	at    []Cycle
	stop  Cycle
}

func (k *tick) Run() {
	k.at = append(k.at, k.e.Now())
	if k.e.Now()+k.every <= k.stop {
		k.e.ScheduleObserver(k.every, k)
	}
}

// TestObserverEventLeavesSimHighWater: an observer event runs in
// schedule order with the rest, counts in HighWater, and leaves
// SimHighWater where the simulation alone puts it.
func TestObserverEventLeavesSimHighWater(t *testing.T) {
	run := func(observe bool) (*Engine, []int, *tick) {
		e := New()
		var got []int
		for i := 0; i < 3; i++ {
			i := i
			e.Schedule(10, func() { got = append(got, i) })
		}
		k := &tick{e: e, every: 10, stop: 20}
		if observe {
			e.ScheduleObserver(10, k)
		}
		e.Schedule(10, func() { got = append(got, 3) })
		e.Run(0)
		return e, got, k
	}
	plain, want, _ := run(false)
	e, got, k := run(true)
	if len(got) != len(want) || got[3] != want[3] {
		t.Errorf("observer changed the event order: %v, want %v", got, want)
	}
	if len(k.at) != 2 || k.at[0] != 10 || k.at[1] != 20 {
		t.Errorf("observer ran at %v, want [10 20]", k.at)
	}
	if e.SimHighWater() != plain.SimHighWater() || e.SimHighWater() != 4 {
		t.Errorf("SimHighWater = %d with the observer, %d without; want 4", e.SimHighWater(), plain.SimHighWater())
	}
	if e.HighWater() != 5 {
		t.Errorf("HighWater = %d, want 5 (the observer counts)", e.HighWater())
	}
}
