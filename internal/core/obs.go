package core

import (
	"fmt"
	"io"
	"time"

	"protozoa/internal/mem"
	"protozoa/internal/obs"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/obs/flight"
	"protozoa/internal/obs/selfprof"
)

// This file wires the internal/obs observability layer into the
// machine. Nothing here runs unless the corresponding Enable* method
// was called before Run; the latency fold and the attribution tracker
// subscribe to the machine's one emit (flight.go), and the metrics
// registry is sampled on timeline ticks.

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
		lat := obs.NewLatencyBreakdown(s.cfg.Cores)
		s.lat = lat
		s.subscribe(view{kinds: phaseKinds, see: lat.Fold})
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
func (s *System) EnableAttribution() *attrib.Tracker {
	if s.attrib == nil {
		t := attrib.New(s.cfg.Cores)
		s.attrib = t
		s.subscribe(view{kinds: attribKinds, end: t.Trim, see: func(r *flight.Record) {
			core, region := int(r.Src), mem.RegionID(r.Region)
			switch r.Kind {
			case kindFill:
				t.Fill(core, region, r.R.Words())
			case kindDeath:
				t.Death(core, region, attrib.Footprint{Read: r.Valid, Wrote: r.Dirty, Refs: r.Txn}, int(r.From), r.R.Words())
			case kindInval:
				t.Invalidation(region, int(r.Req), core, int(r.Txn))
			case kindUpgrade:
				t.Upgrade(core, region)
			case kindFanout:
				t.Fanout(region, int(r.Txn))
			}
		}})
	}
	return s.attrib
}

// Attribution returns the attached tracker, nil when disabled.
func (s *System) Attribution() *attrib.Tracker { return s.attrib }

// EnableSelfProf attaches the simulator self-profiling layer
// (internal/obs/selfprof): engine queue introspection, the event total
// and the run's wall time. Call before Run; read the returned profile
// only after Run. Results are unaffected — the layer observes the
// simulator, never the simulated machine, so stats, traces, and CSV
// output are byte-identical with it on or off. Besides -self-prof,
// perfbench's traced runs read it; the Report fields that only
// perfbench reads always read zero.
func (s *System) EnableSelfProf() *selfprof.Profile {
	if s.selfProf == nil {
		s.selfProf = selfprof.New()
		s.eng.SetProf(&s.selfProf.Queue)
	}
	return s.selfProf
}

// SelfProf returns the attached self-profile, nil when disabled.
func (s *System) SelfProf() *selfprof.Profile { return s.selfProf }

// finishSelfProf stamps the end-of-run fields: the zero-delay hit count
// (kept in the engine, not the profile), the event total and the
// wall-clock. No-op when self-prof is disabled.
func (s *System) finishSelfProf() {
	p := s.selfProf
	if p == nil {
		return
	}
	p.MicroHits = s.eng.MicroHits()
	p.TotalEvents = s.eng.Processed()
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
		func() float64 { return float64(s.eng.Pending()) })
	r.Register("event_queue_high_water", "deepest the engine queue has been",
		func() float64 { return float64(s.eng.HighWater()) })
	r.Register("event_queue_zero_delay_hits", "events scheduled with zero delay",
		func() float64 { return float64(s.eng.MicroHits()) })
	r.Register("msg_pool_hit_rate", "fraction of messages served from the free list",
		func() float64 {
			total := s.pool.hits + s.pool.allocs
			if total == 0 {
				return 0
			}
			return float64(s.pool.hits) / float64(total)
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
		func() float64 { return float64(s.mshrLive) })
	r.Register("mshr_stall_cycles", "cumulative core cycles stalled on L1 misses",
		func() float64 { return float64(s.st.MissLatencySum) })
	r.Register("noc_link_utilization", "flit-hops per link-cycle across the interconnect",
		func() float64 {
			cycles := float64(s.eng.Now()) * float64(s.mesh.LinkCount())
			if cycles == 0 {
				return 0
			}
			return float64(s.st.FlitHops) / cycles
		})
	r.Register("noc_link_stall_cycles", "cumulative cycles messages queued behind busy links",
		func() float64 { return float64(s.st.LinkStallCycles) })
	usage := func() (resident, touched int) {
		for _, l1 := range s.l1s {
			r, t := l1.cache.Usage()
			resident += r
			touched += t
		}
		return resident, touched
	}
	r.Register("l1_resident_words", "data words resident across all L1s",
		func() float64 {
			resident, _ := usage()
			return float64(resident)
		})
	r.Register("l1_resident_used_pct", "percent of resident L1 words touched since fill",
		func() float64 {
			resident, touched := usage()
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
