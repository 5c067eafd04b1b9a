package workloads

import (
	"testing"

	"protozoa/internal/trace"
)

func TestMicroRegistry(t *testing.T) {
	names := MicroNames()
	if len(names) != 4 {
		t.Fatalf("micros = %v, want 4", names)
	}
	for _, n := range names {
		s, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Suite != "micro" {
			t.Errorf("%s suite = %q", n, s.Suite)
		}
	}
	if len(Micros()) != len(names) {
		t.Error("Micros()/MicroNames() mismatch")
	}
}

func TestMicrosExcludedFromPaperSuite(t *testing.T) {
	for _, n := range Names() {
		if _, micro := microRegistry[n]; micro {
			t.Errorf("micro %s leaked into the paper suite", n)
		}
	}
	if len(Names()) != 28 {
		t.Errorf("paper suite = %d workloads, want 28", len(Names()))
	}
}

func TestAtomicCounterIsAllRMW(t *testing.T) {
	perCore := MustGet("micro-atomic-counter").Records(4, 1, 0)
	for c, s := range perCore {
		for _, a := range s {
			if a.Kind != trace.RMW {
				t.Fatalf("core %d: non-RMW record %+v", c, a)
			}
			if a.Addr != 0x0010_0000 {
				t.Fatalf("core %d: counter at %#x", c, a.Addr)
			}
		}
	}
}

func TestTicketLockShape(t *testing.T) {
	perCore := MustGet("micro-ticket-lock").Records(2, 1, 0)
	recs := perCore[0]
	rmws, loads, stores := 0, 0, 0
	for _, a := range recs {
		switch a.Kind {
		case trace.RMW:
			rmws++
		case trace.Load:
			loads++
		case trace.Store:
			stores++
		}
	}
	// Per iteration: 2 RMWs (ticket + release), 3 spins + 4 CS loads,
	// 4 CS stores.
	if rmws != 2*60 || loads != 7*60 || stores != 4*60 {
		t.Errorf("shape = %d RMW / %d loads / %d stores", rmws, loads, stores)
	}
}

func TestBarrierSkewShape(t *testing.T) {
	recs := MustGet("micro-barrier-skew").Records(4, 1, 0)
	// Every core sees the same number of barriers (one per phase).
	barriers := 0
	for _, a := range recs[0] {
		if a.Kind == trace.Barrier {
			barriers++
		}
	}
	if barriers != 40 {
		t.Fatalf("core 0 barriers = %d, want 40", barriers)
	}
	for c := 1; c < len(recs); c++ {
		n := 0
		for _, a := range recs[c] {
			if a.Kind == trace.Barrier {
				n++
			}
		}
		if n != barriers {
			t.Fatalf("core %d barriers = %d, core 0 = %d", c, n, barriers)
		}
	}
	// The straggler rotates, so over 40 phases on 4 cores every core is
	// the straggler 10 times: per-core totals are equal, but any single
	// phase is lopsided. Check phase 0: core 0 runs 64+1 accesses
	// before its first barrier, everyone else 2+1.
	firstPhase := func(c int) int {
		n := 0
		for _, a := range recs[c] {
			if a.Kind == trace.Barrier {
				break
			}
			n++
		}
		return n
	}
	if got := firstPhase(0); got != 65 {
		t.Errorf("straggler phase-0 accesses = %d, want 65", got)
	}
	for c := 1; c < 4; c++ {
		if got := firstPhase(c); got != 3 {
			t.Errorf("idle core %d phase-0 accesses = %d, want 3", c, got)
		}
	}
}

func TestProducerConsumerPairsDisjoint(t *testing.T) {
	perCore := MustGet("micro-producer-consumer").Records(4, 1, 0)
	// Pair 0 (cores 0,1) and pair 1 (cores 2,3) must not share regions.
	r0 := regionsOf(perCore[0])
	r2 := regionsOf(perCore[2])
	for r := range r0 {
		if r2[r] {
			t.Fatalf("pairs share region %d", r)
		}
	}
}
