package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"protozoa/internal/engine"
	"protozoa/internal/obs/selfprof"
	"protozoa/internal/stats"
)

// This file is the conservative parallel-discrete-event (PDES) driver
// behind Config.Workers. The machine is partitioned by tile (core + L1
// + co-located L2/directory slice + router accounting), each tile owns
// a private event queue, and the partitions execute concurrently inside
// bounded time windows.
//
// The lookahead contract makes this safe: every cross-tile interaction
// is a coherence message, and the mesh charges at least
// Lookahead() = RouterLat + HopLatency cycles between send and
// delivery. Each round, tile i runs events strictly below its own
// bound: with p_j the earliest queued cycle on tile j at the round
// edge, no tile can send before its own p_j, so nothing can ARRIVE at
// i before min over other tiles of p_j, plus W = Lookahead(). Tiles
// whose next events lie at or past their bound skip the round
// entirely (their worker slot is never claimed), and a tile running
// alone gets an extended window that self-caps when it actually sends
// (Engine.LimitTo in tile.send): a message parked with arrival a can
// have causal consequences for the sender no earlier than a+W.
// Cross-tile sends park in the sender's outbox and the coordinator
// moves them to the destination queue at the round barrier, so within
// a round every tile runs on purely local state, and an injected
// arrival is never in the receiver's past (a >= sender's p + W >=
// receiver's bound > receiver's clock).
//
// Determinism does not depend on the worker count. Tiles are mutually
// independent inside a round, so which worker runs which tile (and in
// what order) cannot change any tile's event sequence; every
// cross-round interaction funnels through the single-threaded
// coordinator, which iterates tiles in index order. The bounds are
// functions of the tiles' queue states and the tiles' own sends, both
// of which are schedule-independent, so Workers=1 and Workers=N
// produce byte-identical stats, traces, timelines and attribution for
// every N, under either queue implementation.

// soloSlice caps how far a tile may run past the rest of the machine
// in one round, so the MaxEvents watchdog (checked between rounds)
// keeps its teeth even when a lone tile drains a long private queue.
const soloSlice = engine.Cycle(1) << 16

// runPDES executes the machine to completion with the window loop.
// System.Run dispatches here when Config.Workers > 0.
func (s *System) runPDES() error {
	if err := s.pdesCheck(); err != nil {
		return err
	}
	for _, c := range s.cpus {
		c.tl.eng.ScheduleRunner(0, &c.stepEv)
	}
	workers := s.cfg.Workers
	if workers > len(s.tiles) {
		workers = len(s.tiles)
	}
	pool := newPDESPool(workers, s.selfProf)
	defer pool.stop()

	if s.timelineInterval > 0 {
		s.nextSample = s.timelineInterval
	}

	// The coordinator loop runs under a pprof label so -cpuprofile
	// splits window-loop bookkeeping (and worker-0 simulation work)
	// from the labelled crew goroutines; see docs/OBSERVABILITY.md.
	var runErr error
	pprof.Do(context.Background(), pprof.Labels("pdes", "coordinator"), func(context.Context) {
		runErr = s.windowLoop(pool)
	})
	if runErr != nil {
		return runErr
	}

	s.coresDone, s.barrierArrived = 0, 0
	for _, t := range s.tiles {
		if t.coreDone {
			s.coresDone++
		}
		if t.barrierArrived {
			s.barrierArrived++
		}
	}
	if s.coresDone != s.cfg.Cores {
		return fmt.Errorf("core: deadlock: %d/%d cores finished, %d at barrier\n%s",
			s.coresDone, s.cfg.Cores, s.barrierArrived, s.diagnose())
	}
	var last engine.Cycle
	for _, t := range s.tiles {
		if t.retire > last {
			last = t.retire
		}
	}
	s.lastRetire = last
	s.flushResidual()
	var mergeStart time.Time
	if s.selfProf != nil {
		mergeStart = time.Now()
	}
	s.mergePDES()
	if s.selfProf != nil {
		s.selfProf.MergeNs += int64(time.Since(mergeStart))
	}
	s.st.ExecCycles = uint64(last)
	// Self-observability counters are set after the shard merge (which
	// rebuilds s.st from zero) and regardless of self-prof, so the
	// stats are byte-identical with the profiler on or off.
	s.st.EventQueueHighWater = uint64(s.queueHighWater())
	s.st.ZeroDelayHits = s.queueZeroDelayHits()
	s.finishSelfProf()
	// Clean finish: every tile queue is drained (the window loop broke
	// on "no queued event anywhere"), so hand the bucket rings back to
	// the engine's storage pool for the next run. Error paths skip this
	// because diagnose() wants to inspect the queues.
	for _, t := range s.tiles {
		t.eng.Recycle()
	}
	return nil
}

// windowLoop is the coordinator: release barriers, compute per-tile
// bounds, run the active tiles, inject the messages they parked,
// repeat until no tile has work. It returns only the watchdog error.
//
// The loop is round-heavy — tightly coupled tiles advance only about
// one lookahead per round — so its bookkeeping is incremental: tile
// peeks live in a cached array (only tiles that ran or received an
// injection can change), barrier and completion counts are maintained
// as flags flip rather than recounted, and each round's scans touch
// the active tiles plus one pass over the compact peek array.
func (s *System) windowLoop(pool *pdesPool) error {
	W := s.mesh.Lookahead()
	active := make([]*tile, 0, len(s.tiles))
	peeks := make([]engine.Cycle, len(s.tiles))
	const noWork = ^engine.Cycle(0) // sentinel: tile's queue is empty
	for i, t := range s.tiles {
		peeks[i] = noWork
		if at, ok := t.eng.PeekCycle(); ok {
			peeks[i] = at
		}
	}
	arrived, done := 0, 0

	// Self-profiling (EnableSelfProf). Every telemetry site below
	// guards on this one pointer, so the disabled loop pays a handful
	// of predictable branches per round and zero clock reads.
	prof := s.selfProf
	var loopStart, roundStart time.Time
	var lastEvents uint64
	if prof != nil {
		loopStart = time.Now()
	}

	// simNow is the deterministic high-water mark of executed cycles:
	// the max of every tile's clock across all completed rounds. It is
	// a function of the tiles' event histories only (bounds derive from
	// queue states, self-caps from the tiles' own sends), so it is
	// identical across worker counts and queue implementations.
	var simNow engine.Cycle

	for {
		// Global barrier release. Arrival is recorded per tile as the
		// arrival events run and counted at the round edge below; the
		// count-and-release that the sequential mode performs inline
		// happens here, the earliest globally-consistent point. The
		// resume cycle simNow is past every tile's clock, so the
		// released cores schedule cleanly, and any requests they then
		// issue arrive at other tiles at simNow+W or later — past
		// every bound computed from their resume events.
		if arrived > 0 && arrived+done == s.cfg.Cores {
			for i, t := range s.tiles {
				if t.barrierArrived {
					t.barrierArrived = false
					t.barrierCounted = false
					t.eng.ScheduleRunnerAt(simNow, &s.cpus[t.id].stepEv)
					if simNow < peeks[i] {
						peeks[i] = simNow
					}
				}
			}
			arrived = 0
			if prof != nil {
				prof.BarrierReleases++
			}
		}

		// One pass over the peek array finds the earliest queued cycle
		// (min1, at minIdx) and the earliest elsewhere (min2). A tie
		// leaves min2 == min1, which is exactly right: a same-cycle
		// peer bounds the minimum tile like any other tile does.
		min1, min2 := noWork, noWork
		minIdx := -1
		for i, p := range peeks {
			if p < min1 {
				min2 = min1
				min1, minIdx = p, i
			} else if p < min2 {
				min2 = p
			}
		}
		if minIdx < 0 {
			break // every queue drained: the machine is done
		}
		if prof != nil {
			prof.Rounds++
			roundStart = time.Now()
		}

		// Per-tile bounds. Ordinary tiles may run below min1+W (nothing
		// can reach them earlier). The minimum tile is bounded by the
		// REST of the machine, min2+W — when the rest is idle or far in
		// the future this is the window-skipping/coalescing case: one
		// extended run (capped at soloSlice so the watchdog keeps its
		// teeth) replaces what used to be a train of W-cycle windows
		// with a full scan-and-barrier round each. Extended runs
		// self-cap on their own sends via Engine.LimitTo. Tiles whose
		// bound doesn't clear their peek skip the round without
		// claiming a worker slot.
		boundOthers := min1 + W
		for i, p := range peeks {
			if p >= boundOthers {
				if prof != nil {
					ts := &prof.Tiles[i]
					ts.IdleRounds++
					if p != noWork {
						ts.SkippedWithWork++
					}
				}
				continue
			}
			t := s.tiles[i]
			if i != minIdx {
				t.bound = boundOthers
			} else {
				t.bound = min1 + soloSlice
				if min2 != noWork && min2+W < t.bound {
					t.bound = min2 + W
				}
				if prof != nil {
					prof.Width.Observe(uint64(t.bound - min1))
					if t.bound > boundOthers {
						prof.SoloExtendedRounds++
					}
				}
			}
			if prof != nil {
				ts := &prof.Tiles[i]
				ts.BusyRounds++
				// The round number rides the epoch release into the
				// worker that stamps this tile's span.
				ts.CurRound = prof.Rounds
			}
			active = append(active, t)
		}

		var runStart time.Time
		if prof != nil {
			runStart = time.Now()
		}
		if pool == nil || len(active) == 1 {
			if prof != nil {
				prof.InlineRounds++
			}
			for _, t := range active {
				t.runWindow()
			}
		} else {
			pool.run(active)
		}
		if prof != nil {
			prof.RunNs += int64(time.Since(runStart))
		}

		// Post-round pass over the tiles that ran (only they can have
		// moved their clock, parked messages, or flipped flags):
		// advance simNow, inject parked cross-tile messages — an
		// arrival is never in the receiver's past: it is at least the
		// sender's round-start peek plus W, which bounded the
		// receiver's round — and refresh the peek cache. An injection
		// lowers the destination's cached peek directly; the sender's
		// own queue is re-peeked after its run.
		for _, t := range active {
			if now := t.eng.Now(); now > simNow {
				simNow = now
			}
			for _, om := range t.outbox {
				s.tiles[om.m.Dst].eng.ScheduleRunnerAt(om.at, om.m)
				if om.at < peeks[om.m.Dst] {
					peeks[om.m.Dst] = om.at
				}
			}
			if prof != nil {
				prof.InjectedMsgs += uint64(len(t.outbox))
			}
			t.outbox = t.outbox[:0]
			peeks[t.id] = noWork
			if at, ok := t.eng.PeekCycle(); ok {
				peeks[t.id] = at
			}
			if t.coreDone && !t.doneCounted {
				t.doneCounted = true
				done++
			}
			if t.barrierArrived && !t.barrierCounted {
				t.barrierCounted = true
				arrived++
			}
		}
		active = active[:0]
		s.pdesNow = simNow

		if prof != nil {
			cur := s.EventsProcessed()
			prof.RecordRound(selfprof.Span{
				Round:   prof.Rounds,
				StartNs: int64(roundStart.Sub(prof.Start)),
				DurNs:   int64(time.Since(roundStart)),
				Clock:   uint64(simNow),
				Events:  cur - lastEvents,
			})
			lastEvents = cur
		}

		if s.cfg.MaxEvents > 0 && s.EventsProcessed() >= s.cfg.MaxEvents && s.pdesPending() > 0 {
			return fmt.Errorf("core: watchdog fired after %d events (livelock?)\n%s",
				s.EventsProcessed(), s.diagnose())
		}

		// Timeline ticks are nominal: a sample labelled cycle C is
		// taken at the first round edge at or past C. The round
		// sequence depends only on event timings, so samples are
		// worker-count independent.
		if s.timelineInterval > 0 {
			for s.nextSample <= simNow {
				s.samplePDES(s.nextSample)
				s.nextSample += s.timelineInterval
			}
		}
	}
	if prof != nil {
		prof.LoopNs = int64(time.Since(loopStart))
	}
	return nil
}

// pdesCheck rejects configurations whose hooks assume a single global
// event order. These remain available in the sequential mode.
func (s *System) pdesCheck() error {
	if W := s.mesh.Lookahead(); W < 1 {
		return fmt.Errorf("core: parallel run needs positive NoC lookahead, got %d", W)
	}
	if s.obs != nil {
		return fmt.Errorf("core: workers > 0 is incompatible with a correctness observer (its invariant checks need one global event order); run with workers 0")
	}
	if s.cfg.Noc.ModelContention {
		return fmt.Errorf("core: workers > 0 is incompatible with NoC contention modelling (links are shared state across tiles); run with workers 0")
	}
	return nil
}

// pdesPending counts work anywhere in the machine: queued events plus
// parked outbox messages.
func (s *System) pdesPending() int {
	n := 0
	for _, t := range s.tiles {
		n += t.eng.Pending() + len(t.outbox)
	}
	return n
}

// samplePDES takes one nominal timeline tick: rebuild the merged stats
// view, append the sample, and feed the metrics registry and live hook.
func (s *System) samplePDES(cycle engine.Cycle) {
	s.mergeShardStats()
	s.checkStalls(cycle)
	s.timeline = append(s.timeline, TimelineSample{
		Cycle:    cycle,
		Accesses: s.st.Accesses,
		Misses:   s.st.L1Misses,
		Traffic:  s.st.TrafficTotal(),
		FlitHops: s.st.FlitHops,
	})
	if s.metrics != nil {
		s.metrics.Sample(uint64(cycle))
	}
	if s.onSample != nil {
		s.onSample(uint64(cycle))
	}
}

// mergeShardStats rebuilds s.st from the per-tile shards. The shards
// stay authoritative for the whole run and the rebuild starts from
// zero, so mid-run samples and the final merge use the same path.
func (s *System) mergeShardStats() {
	per := s.st.PerCore
	*s.st = stats.Stats{PerCore: per}
	for i := range per {
		per[i] = stats.CoreStats{}
	}
	for _, t := range s.tiles {
		s.st.Merge(t.st)
	}
}

// mergePDES folds every per-tile/per-core observability shard into the
// targets handed out by the Enable* methods before the run.
func (s *System) mergePDES() {
	s.mergeShardStats()
	if s.lat != nil {
		s.lat.Settle()
	}
	if s.attrib != nil {
		for _, t := range s.tiles {
			s.attrib.Merge(t.attrib)
		}
		s.attrib.Trim()
	}
	if s.transitions != nil {
		for _, t := range s.tiles {
			for k, v := range t.transitions {
				s.transitions[k] += v
			}
		}
	}
}

// runWindow executes this tile's window for the current round. It is
// the single call shape every execution path uses — the inline
// coordinator path and the crew's stride loops — so busy wall-clock,
// per-round event deltas, and round spans have exactly one accounting
// point. With self-prof disabled it degrades to one nil check in front
// of RunUntil.
func (t *tile) runWindow() {
	ts := t.prof
	if ts == nil {
		t.eng.RunUntil(t.bound)
		return
	}
	start := time.Now()
	before := t.eng.Processed()
	t.eng.RunUntil(t.bound)
	dur := time.Since(start)
	ev := t.eng.Processed() - before
	ts.Events += ev
	ts.WallNs += int64(dur)
	ts.RecordSpan(selfprof.Span{
		Round:   ts.CurRound,
		StartNs: int64(start.Sub(ts.Epoch)),
		DurNs:   int64(dur),
		Bound:   uint64(t.bound),
		Clock:   uint64(t.eng.Now()),
		Events:  ev,
	})
}

// pdesPool is the persistent worker crew behind the window loop. The
// window-loop goroutine doubles as worker 0; workers 1..n-1 spin on an
// epoch counter, so handing off a window costs two atomic operations
// rather than a park/unpark round trip — a window is typically a few
// microseconds of work, and futex wakeups would dominate it.
type pdesPool struct {
	workers int
	active  []*tile
	epoch   atomic.Uint64
	done    []padUint64
	quit    atomic.Bool

	// prof, when non-nil, receives per-worker spin/busy wall-clock and
	// the coordinator's barrier wait. Set before the crew launches.
	prof *selfprof.Profile
}

// padUint64 keeps each worker's completion counter on its own cache
// line so the coordinator's polling doesn't bounce lines between
// workers.
type padUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

func newPDESPool(workers int, prof *selfprof.Profile) *pdesPool {
	if workers <= 1 {
		return nil
	}
	p := &pdesPool{workers: workers, done: make([]padUint64, workers), prof: prof}
	for w := 1; w < workers; w++ {
		go func(w int) {
			// Label the crew goroutines so -cpuprofile attributes
			// simulation work per worker; see docs/OBSERVABILITY.md.
			pprof.Do(context.Background(),
				pprof.Labels("pdes", "worker-"+strconv.Itoa(w)),
				func(context.Context) { p.work(w) })
		}(w)
	}
	return p
}

// work is worker w's loop: wait for a new epoch, run the tiles dealt to
// this worker by static stride, post completion. The epoch increment
// happens-after the coordinator writes active, and the done store
// happens-after the tile runs, so no other synchronization is needed.
func (p *pdesPool) work(w int) {
	var seen uint64
	// Self-prof: bracket the spin and busy stretches with clock reads.
	// The shard writes are ordered against the coordinator's reads by
	// the done-counter store below (and the epoch load above), so plain
	// fields suffice; with prof disabled no clock is ever read.
	var ws *selfprof.WorkerShard
	var waitStart time.Time
	if p.prof != nil {
		ws = &p.prof.WorkerWait[w]
		waitStart = time.Now()
	}
	for {
		e := p.epoch.Load()
		if e == seen {
			if p.quit.Load() {
				return
			}
			runtime.Gosched()
			continue
		}
		seen = e
		var busyStart time.Time
		if ws != nil {
			busyStart = time.Now()
			ws.SpinNs += int64(busyStart.Sub(waitStart))
			ws.Rounds++
		}
		for i := w; i < len(p.active); i += p.workers {
			p.active[i].runWindow()
		}
		if ws != nil {
			waitStart = time.Now()
			ws.BusyNs += int64(waitStart.Sub(busyStart))
		}
		p.done[w].v.Store(e)
	}
}

// run executes one round across the crew. The active list holds only
// tiles with runnable work (idle tiles never claim a slot), each tagged
// with its own bound. Tiles are independent inside a round, so the
// round-robin deal cannot affect results — only load balance.
func (p *pdesPool) run(active []*tile) {
	p.active = active
	e := p.epoch.Add(1)
	for i := 0; i < len(active); i += p.workers {
		active[i].runWindow()
	}
	var waitStart time.Time
	if p.prof != nil {
		waitStart = time.Now()
	}
	for w := 1; w < p.workers; w++ {
		for p.done[w].v.Load() != e {
			runtime.Gosched()
		}
	}
	if p.prof != nil {
		p.prof.CoordWaitNs += int64(time.Since(waitStart))
	}
}

// stop retires the crew; nil-safe so the single-worker path can defer
// it unconditionally.
func (p *pdesPool) stop() {
	if p == nil {
		return
	}
	p.quit.Store(true)
}
