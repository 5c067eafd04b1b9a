package core

import (
	"fmt"
	"io"
	"time"

	"protozoa/internal/obs"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/obs/flight"
	"protozoa/internal/obs/selfprof"
)

// This file wires the internal/obs observability layer into the
// machine. Nothing here runs unless the corresponding Enable* method
// was called before Run; the hot-path emit sites in system.go, l1.go
// and dir.go all guard on a single nil check.

// traceRecordsPerEvent sizes the flight ring behind the Chrome trace in
// records per trace event: the ring also keeps frees, directory phase
// edges and state changes the trace does not show. Across every
// workload and micro-benchmark at 4 and 16 cores, all protocols, with
// and without NoC contention, a run keeps at most 2.0 flight records
// per trace event; 4 leaves headroom.
const traceRecordsPerEvent = 4

// defaultTraceCap is the flight-ring capacity, in records, the Chrome
// trace asks for when the caller passes capacity <= 0: 1 Mi trace
// events' worth.
const defaultTraceCap = traceRecordsPerEvent << 20

// EnableEventTrace turns on the Chrome trace view: the flight recorder,
// grown to keep at least capacity records (<= 0 selects
// defaultTraceCap). Call before Run; export with WriteChromeTrace.
func (s *System) EnableEventTrace(capacity int) *flight.Recorder {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return s.EnableFlightRecorder(capacity)
}

// EnableLatencyBreakdown attaches per-transaction phase timing: every
// miss's life is folded, online, from the flight spine's issue,
// directory accept, activation, L2 access, last probe ack and
// completion records. It keeps no ring of its own. Call before Run; the
// returned breakdown is complete once Run returns.
func (s *System) EnableLatencyBreakdown() *obs.LatencyBreakdown {
	if s.lat == nil {
		s.lat = obs.NewLatencyBreakdown(s.cfg.Cores)
	}
	return s.lat
}

// LatencyBreakdown returns the attached breakdown, nil when disabled.
func (s *System) LatencyBreakdown() *obs.LatencyBreakdown { return s.lat }

// EnableAttribution attaches the coherence-traffic attribution
// tracker: per-region reader/writer word footprints, fetched-vs-used
// word accounting, sharing-pattern classification, and
// invalidation/upgrade attribution to offending regions and cores.
// Call before Run.
// Under PDES the returned tracker is the merge target for the per-tile
// trackers folded in when Run completes.
func (s *System) EnableAttribution() *attrib.Tracker {
	if s.attrib == nil {
		s.attrib = attrib.New(s.cfg.Cores)
		for _, t := range s.tiles {
			if s.pdes {
				t.attrib = attrib.New(s.cfg.Cores)
			} else {
				t.attrib = s.attrib
			}
		}
	}
	return s.attrib
}

// Attribution returns the attached tracker, nil when disabled.
func (s *System) Attribution() *attrib.Tracker { return s.attrib }

// EnableSelfProf attaches the simulator self-profiling layer
// (internal/obs/selfprof): PDES round/window telemetry, per-tile
// busy/idle accounting, wall-clock round spans, barrier-wait timing,
// and engine queue introspection. Call before Run; read the returned
// profile only after Run. Results are unaffected — the layer observes
// the simulator, never the simulated machine, so stats, traces, and
// CSV output are byte-identical with it on or off.
// In sequential mode (Workers == 0) the round telemetry is empty and
// the profile carries the shared engine's queue counters only.
func (s *System) EnableSelfProf() *selfprof.Profile {
	if s.selfProf != nil {
		return s.selfProf
	}
	if s.pdes {
		workers := s.cfg.Workers
		if workers > len(s.tiles) {
			workers = len(s.tiles)
		}
		p := selfprof.New(len(s.tiles), workers, 0)
		p.Mode = "pdes"
		p.LookaheadW = uint64(s.mesh.Lookahead())
		for i, t := range s.tiles {
			t.prof = &p.Tiles[i]
			t.eng.SetProf(&p.Tiles[i].Queue)
		}
		s.selfProf = p
	} else {
		p := selfprof.New(1, 0, 0)
		p.Mode = "sequential"
		s.eng.SetProf(&p.Tiles[0].Queue)
		s.selfProf = p
	}
	return s.selfProf
}

// SelfProf returns the attached self-profile, nil when disabled.
func (s *System) SelfProf() *selfprof.Profile { return s.selfProf }

// finishSelfProf stamps the end-of-run fields readers expect: per-tile
// zero-delay hit counts (kept in the engine, not the shard), the
// machine-wide event total, and total wall-clock. Called from both
// run modes after the final merge; no-op when self-prof is disabled.
func (s *System) finishSelfProf() {
	p := s.selfProf
	if p == nil {
		return
	}
	if s.pdes {
		for i, t := range s.tiles {
			p.Tiles[i].MicroHits = t.eng.MicroHits()
		}
	} else {
		p.Tiles[0].MicroHits = s.eng.MicroHits()
		p.Tiles[0].Events = s.eng.Processed()
	}
	p.TotalEvents = s.EventsProcessed()
	p.TotalNs = int64(time.Since(p.Start))
}

// SetSampleHook installs a callback invoked after every timeline
// tick's metrics sample — the live-metrics publish point. Timeline
// sampling is armed at its default interval if not yet configured.
// Call before Run; pass nil to remove.
func (s *System) SetSampleHook(fn func(cycle uint64)) {
	s.onSample = fn
	if fn != nil && s.timelineInterval == 0 {
		s.EnableTimeline(0)
	}
}

// EnableMetrics attaches the metrics registry and registers the
// machine's standard gauges. The registry is sampled on the timeline
// tick, so timeline sampling is switched on (at its default interval)
// if the caller has not configured it. Call before Run.
func (s *System) EnableMetrics() *obs.Registry {
	if s.metrics != nil {
		return s.metrics
	}
	r := &obs.Registry{}
	r.Register("event_queue_depth", "events pending in the engine queue",
		func() float64 { return float64(s.queuePending()) })
	r.Register("event_queue_high_water", "deepest the engine queue has been",
		func() float64 { return float64(s.queueHighWater()) })
	r.Register("event_queue_zero_delay_hits", "events scheduled with zero delay",
		func() float64 { return float64(s.queueZeroDelayHits()) })
	r.Register("msg_pool_hit_rate", "fraction of messages served from the free list",
		func() float64 {
			hits, allocs := s.poolCounts()
			total := hits + allocs
			if total == 0 {
				return 0
			}
			return float64(hits) / float64(total)
		})
	r.Register("dir_busy_txns", "regions with an active directory transaction",
		func() float64 {
			busy := 0
			for _, d := range s.dirs {
				busy += d.busyTxns
			}
			return float64(busy)
		})
	r.Register("mshr_live", "misses outstanding across all cores",
		func() float64 {
			live := 0
			for _, t := range s.tiles {
				live += t.mshrLive
			}
			return float64(live)
		})
	r.Register("mshr_stall_cycles", "cumulative core cycles stalled on L1 misses",
		func() float64 { return float64(s.st.MissLatencySum) })
	r.Register("noc_link_utilization", "flit-hops per link-cycle across the interconnect",
		func() float64 {
			cycles := float64(s.simNow()) * float64(s.mesh.LinkCount())
			if cycles == 0 {
				return 0
			}
			return float64(s.st.FlitHops) / cycles
		})
	r.Register("noc_link_stall_cycles", "cumulative cycles messages queued behind busy links",
		func() float64 { return float64(s.st.LinkStallCycles) })
	r.Register("l1_resident_words", "data words resident across all L1s",
		func() float64 {
			resident := 0
			for _, l1 := range s.l1s {
				r, _ := l1.cache.Usage()
				resident += r
			}
			return float64(resident)
		})
	r.Register("l1_resident_used_pct", "percent of resident L1 words touched since fill",
		func() float64 {
			resident, touched := 0, 0
			for _, l1 := range s.l1s {
				r, t := l1.cache.Usage()
				resident += r
				touched += t
			}
			if resident == 0 {
				return 100
			}
			return 100 * float64(touched) / float64(resident)
		})
	// Attribution gauges read 0 until EnableAttribution runs; the
	// nil-checks keep metrics-only runs paying nothing for them.
	attribGauge := func(name, help string, fn func(*attrib.Tracker) uint64) {
		r.Register(name, help, func() float64 {
			if s.attrib == nil {
				return 0
			}
			return float64(fn(s.attrib))
		})
	}
	attribGauge("attrib_fetched_words", "words fetched into L1s (attribution tracker)",
		func(t *attrib.Tracker) uint64 { return t.FetchedWords })
	attribGauge("attrib_used_words", "fetched words touched before block death",
		func(t *attrib.Tracker) uint64 { return t.UsedWords })
	attribGauge("attrib_wasted_bytes", "bytes fetched over the NoC but never used",
		(*attrib.Tracker).WastedBytes)
	attribGauge("attrib_invalidations", "invalidation events attributed to regions",
		func(t *attrib.Tracker) uint64 { return t.Invalidations })
	attribGauge("attrib_false_shared_regions", "regions currently classified false-shared",
		func(t *attrib.Tracker) uint64 {
			s.foldAttribution()
			return t.FalseSharedRegions()
		})
	// Self-profiling gauges read 0 until EnableSelfProf runs. They are
	// sampled at round edges (the PDES timeline tick), inside the
	// window loop's happens-before chain, so the shard reads are safe.
	profGauge := func(name, help string, fn func(*selfprof.Profile) uint64) {
		r.Register(name, help, func() float64 {
			if s.selfProf == nil {
				return 0
			}
			return float64(fn(s.selfProf))
		})
	}
	profGauge("selfprof_rounds", "PDES window-loop rounds completed (self-prof)",
		func(p *selfprof.Profile) uint64 { return p.Rounds })
	profGauge("selfprof_inline_rounds", "rounds run without dispatching the worker crew (self-prof)",
		func(p *selfprof.Profile) uint64 { return p.InlineRounds })
	profGauge("selfprof_solo_extended_rounds", "rounds whose minimum tile ran an extended window (self-prof)",
		func(p *selfprof.Profile) uint64 { return p.SoloExtendedRounds })
	profGauge("selfprof_injected_msgs", "cross-tile messages injected at round barriers (self-prof)",
		func(p *selfprof.Profile) uint64 { return p.InjectedMsgs })
	profGauge("selfprof_limit_cuts", "engine window self-caps via LimitTo across tiles (self-prof)",
		func(p *selfprof.Profile) (n uint64) {
			for i := range p.Tiles {
				n += p.Tiles[i].Queue.LimitCuts
			}
			return n
		})
	profGauge("selfprof_refusals", "bounded runs stopped by the window edge with work queued (self-prof)",
		func(p *selfprof.Profile) (n uint64) {
			for i := range p.Tiles {
				n += p.Tiles[i].Queue.Refusals
			}
			return n
		})
	// Flight-recorder gauges read 0 until EnableFlightRecorder (or the
	// stall watchdog) runs, same nil-guard discipline as above.
	r.Register("flight_dropped", "flight records evicted by ring wrap",
		func() float64 {
			if s.flight == nil {
				return 0
			}
			return float64(s.flight.Dropped())
		})
	r.Register("flight_stalled_txns", "transactions the stall watchdog has flagged",
		func() float64 { return float64(len(s.stalls)) })
	s.metrics = r
	if s.timelineInterval == 0 {
		s.EnableTimeline(0)
	}
	return r
}

// Metrics returns the attached registry, nil when disabled.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// WriteChromeTrace exports the flight records as Chrome trace-event
// JSON (load in Perfetto / chrome://tracing). EnableEventTrace (or any
// other ring-keeping view) must have been called.
func (s *System) WriteChromeTrace(w io.Writer) error {
	if s.flight == nil {
		return fmt.Errorf("core: event tracing not enabled")
	}
	return obs.WriteChromeTrace(w, s.flight.Records(), s.flight.Dropped(), obs.TraceOptions{
		Process: fmt.Sprintf("protozoa %s", s.cfg.Protocol),
		Names:   flightNames(),
	})
}
