package core

import (
	"protozoa/internal/engine"
	"protozoa/internal/obs/flight"
	"protozoa/internal/trace"
)

// cpu is one in-order core (Table 4: 16-way, in-order). It retires one
// think-instruction per cycle and blocks on L1 misses, so execution
// time differences between protocols come from miss behaviour — the
// same first-order model the paper's in-order configuration yields.
//
// Because the core is in-order it has at most one reference in flight,
// so its scheduling state lives in two reusable event structs (think
// delay, barrier resume) and a pending-access slot instead of
// per-access closures — the hot path allocates nothing per reference.
type cpu struct {
	id  int
	sys *System
	// recs is the core's records, shared read-only with every other
	// machine built from the same input; next is the index of the
	// record step replays next.
	recs     []trace.Access
	next     int
	storeSeq uint64
	done     bool

	// pend is the access currently in flight (filled by step, consumed
	// by issueAccess/complete).
	pend trace.Access

	accessEv cpuAccess // fused think-delay + L1-lookup event
	stepEv   cpuStep   // resumes the records (kickoff and barrier release)
}

// cpuAccess is the fused per-access event. step schedules it at
// +Think+L1HitLat for memory references — the cycle the old
// thinkEv→resolveEv pair resolved the L1 lookup — and at +Think for
// barrier arrivals. Issue accounting and the lookup both happen at
// fire time, so each reference costs one queue round trip instead of
// two; lookup/complete/miss-issue cycles are unchanged (the lookup
// always happened at resolve time), only same-cycle seq tie-breaks
// shift.
type cpuAccess struct {
	s *System
	c *cpu
}

func (ev *cpuAccess) Run() {
	if ev.c.pend.Kind == trace.Barrier {
		ev.s.arriveBarrier(ev.c)
	} else {
		ev.s.issueAccess(ev.c)
	}
}

// cpuStep resumes a core's records.
type cpuStep struct {
	s *System
	c *cpu
}

func (ev *cpuStep) Run() { ev.s.step(ev.c) }

// storeToken produces the unique value a store writes; the random
// tester uses it to validate coherence end to end.
func (c *cpu) storeToken() uint64 {
	c.storeSeq++
	return uint64(c.id+1)<<40 | c.storeSeq
}

// complete finishes the in-flight reference: emit the bound value to
// the views that read values and advance to the next record. It
// implements the completer interface the L1 invokes when an access
// resolves.
func (c *cpu) complete(val uint64) {
	s := c.sys
	if s.on(kindValue) {
		s.emit(&flight.Record{Cycle: s.eng.Now(), Kind: kindValue, Sub: uint8(c.pend.Kind),
			Src: int16(c.id), Region: uint64(c.pend.Addr), Txn: val})
	}
	s.step(c)
}

// step advances a core to its next trace record.
func (s *System) step(c *cpu) {
	if c.next == len(c.recs) {
		c.done = true
		s.coresDone++
		if s.coresDone == s.cfg.Cores {
			// Execution time is the last core's retirement; the queue
			// may still drain trailing unblocks/writebacks afterwards.
			s.lastRetire = s.eng.Now()
		}
		s.releaseBarrierIfReady()
		return
	}
	a := c.recs[c.next]
	c.next++
	c.pend = a
	var delay engine.Cycle
	switch a.Kind {
	case trace.Barrier:
		s.st.Instructions += uint64(a.Think)
		delay = engine.Cycle(a.Think)
	case trace.Load, trace.Store, trace.RMW:
		s.st.Instructions += uint64(a.Think) + 1
		delay = engine.Cycle(a.Think) + s.cfg.L1HitLat
	default:
		panic("core: unknown trace record kind")
	}
	s.eng.ScheduleRunner(delay, &c.accessEv)
}

func (s *System) issueAccess(c *cpu) {
	a := c.pend
	s.st.Accesses++
	cs := &s.st.PerCore[c.id]
	cs.Accesses++
	switch a.Kind {
	case trace.Store:
		s.st.Stores++
		cs.Stores++
		s.l1s[c.id].resolve(a.Addr, accWrite, uint64(a.PC), c.storeToken(), c)
	case trace.RMW:
		// Atomic fetch-and-increment: counted as a store (it acquires
		// write permission) and observed as both a load of the old
		// value and a store of old+1.
		s.st.Stores++
		s.st.RMWs++
		cs.Stores++
		s.l1s[c.id].resolve(a.Addr, accRMW, uint64(a.PC), 0, c)
	default:
		s.st.Loads++
		cs.Loads++
		s.l1s[c.id].resolve(a.Addr, accRead, uint64(a.PC), 0, c)
	}
}

// arriveBarrier parks the core until every live core reaches the
// barrier. Cores whose records already ran out count as arrived, so a
// workload may give cores unequal record counts after their last
// common barrier.
func (s *System) arriveBarrier(c *cpu) {
	s.barrierArrived++
	s.barrierWait = append(s.barrierWait, c)
	s.releaseBarrierIfReady()
}

func (s *System) releaseBarrierIfReady() {
	if s.barrierArrived == 0 || s.barrierArrived+s.coresDone < s.cfg.Cores {
		return
	}
	waiters := s.barrierWait
	s.barrierWait = s.barrierWait[:0]
	s.barrierArrived = 0
	for _, c := range waiters {
		s.eng.ScheduleRunner(1, &c.stepEv)
	}
}
