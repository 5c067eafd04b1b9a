package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"protozoa/internal/engine"
	"protozoa/internal/mem"
	"protozoa/internal/obs"
	"protozoa/internal/obs/flight"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// TestFlightRecordsOutlivePooledMsg proves flight records (and the
// message-log view over them) survive message recycling: every field a
// record keeps is copied out at record time, so pool-zeroing the
// message and scribbling fresh fields over the same backing struct must
// not change the transcript.
func TestFlightRecordsOutlivePooledMsg(t *testing.T) {
	cfg := testConfig(MESI, 1)
	sys, err := NewSystem(cfg, [][]trace.Access{nil})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMessageLog(16)
	onLoads(sys, nil) // arm values, so messages carry words

	m := sys.newMsg()
	m.Type = MsgGetX
	m.Src = 0
	m.Dst = 0
	m.Region = 7
	m.R = mem.Range{Start: 1, End: 3}
	m.TxnID = 55
	m.StillOwner = true
	m.Valid = 0xe
	m.Words[3] = 0xdead
	sys.Engine().Schedule(42, func() { sys.flightMsg(flight.KindMsgSend, 0, m) })
	sys.Engine().Run(0)

	// The message dies: the pool zeroes it for reuse, and the next
	// taker scribbles fresh fields over the same backing struct.
	sys.freeMsg(0, m)
	reused := sys.newMsg()
	if reused != m {
		t.Fatalf("free list did not hand back the same message")
	}
	reused.Type = MsgAck
	reused.Region = 99
	reused.R = mem.Range{Start: 7, End: 7}
	reused.TxnID = 1
	reused.Valid = 0x1
	reused.Words[3] = 0xbeef

	got := sys.MessageLog()
	if len(got) != 1 {
		t.Fatalf("%d logged events, want 1 (the free record is not a send)", len(got))
	}
	e := got[0]
	if e.Cycle != 42 || e.Msg.Type != MsgGetX || e.Msg.Region != 7 ||
		e.Msg.R != (mem.Range{Start: 1, End: 3}) || e.Msg.TxnID != 55 ||
		!e.Msg.StillOwner || e.Msg.Valid != 0xe {
		t.Errorf("logged copy mutated by pool recycling: %+v", e)
	}
	// Records keep the Valid/Dirty masks, not the word values —
	// reconstruction never aliases (or even sees) the recycled payload.
	if e.Msg.Words != nil {
		t.Errorf("reconstructed event carries payload words: %#x", e.Msg.Words[3])
	}
	// The raw transcript saw both lifecycle steps with pre-free fields.
	recs := sys.FlightRecords()
	if len(recs) != 2 || recs[0].Kind != flight.KindMsgSend || recs[1].Kind != flight.KindMsgFree {
		t.Fatalf("flight transcript = %+v, want send+free", recs)
	}
	if recs[1].Region != 7 || MsgType(recs[1].Sub) != MsgGetX {
		t.Errorf("free record aliased the recycled message: %+v", recs[1])
	}
}

// TestTimelineDefaultInterval covers EnableTimeline(0): the documented
// 1000-cycle default must apply and produce evenly spaced samples.
func TestTimelineDefaultInterval(t *testing.T) {
	cfg := testConfig(MESI, 1)
	var recs []trace.Access
	for pass := 0; pass < 40; pass++ {
		for r := 0; r < 8; r++ {
			recs = append(recs, ld(regAddr(r)))
		}
	}
	sys, err := NewSystem(cfg, [][]trace.Access{recs})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTimeline(0)
	if sys.timelineInterval != 1000 {
		t.Fatalf("interval %d after EnableTimeline(0), want 1000", sys.timelineInterval)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	tl := sys.Timeline()
	if len(tl) == 0 {
		t.Fatal("no samples with the default interval")
	}
	for i, s := range tl {
		if want := engine.Cycle((i + 1) * 1000); s.Cycle != want {
			t.Fatalf("sample %d at cycle %d, want %d", i, s.Cycle, want)
		}
	}
}

// TestTimelineStopsAfterCompletion asserts the sampler does not keep
// rescheduling once every core has finished: at most one sample lands
// at or after the last retirement, and the run's final cycle stays
// within one interval of the last sample.
func TestTimelineStopsAfterCompletion(t *testing.T) {
	cfg := testConfig(MESI, 2)
	sys, err := NewSystem(cfg, workloads.RandomRecords(2, 400, 8, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	const interval = 200
	sys.EnableTimeline(interval)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	tl := sys.Timeline()
	if len(tl) < 2 {
		t.Skipf("run too short: %d samples", len(tl))
	}
	end := sys.Stats().ExecCycles
	past := 0
	for _, s := range tl {
		if uint64(s.Cycle) >= end {
			past++
		}
	}
	if past > 1 {
		t.Errorf("%d samples at/after the last retirement (cycle %d) — sampler did not stop", past, end)
	}
	// Monotonic cumulative counters under the Runner-based scheduler.
	for i := 1; i < len(tl); i++ {
		if tl[i].Cycle != tl[i-1].Cycle+interval {
			t.Fatalf("sample spacing broken at %d: %d -> %d", i, tl[i-1].Cycle, tl[i].Cycle)
		}
		if tl[i].Accesses < tl[i-1].Accesses || tl[i].Misses < tl[i-1].Misses ||
			tl[i].Traffic < tl[i-1].Traffic || tl[i].FlitHops < tl[i-1].FlitHops {
			t.Fatalf("cumulative counters decreased at sample %d", i)
		}
	}
}

// TestLatencyBreakdownReconciles is the acceptance invariant: with the
// breakdown enabled, every L1 miss completes exactly one stamped
// transaction, the phase sums tile each miss's interval, and the
// aggregate equals stats.MissLatencySum — so the report's per-phase
// averages sum to AvgMissLatency exactly.
func TestLatencyBreakdownReconciles(t *testing.T) {
	type variant struct {
		name string
		cfg  func() Config
	}
	variants := []variant{}
	for _, p := range AllProtocols {
		p := p
		variants = append(variants, variant{p.String(), func() Config { return testConfig(p, 4) }})
	}
	// Recalls (Src=0 transactions) and 3-hop forwarded fills are the
	// paths where stale stamps can arise; the clamped chain must still
	// tile exactly.
	variants = append(variants, variant{"mw-recall-3hop", func() Config {
		cfg := testConfig(ProtozoaMW, 4)
		cfg.ThreeHop = true
		cfg.L2RegionsPerTile = 4
		return cfg
	}})
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg()
			perCore := workloads.RandomRecords(4, 800, 10, 40, 13)
			sys, err := NewSystem(cfg, perCore)
			if err != nil {
				t.Fatal(err)
			}
			lat := sys.EnableLatencyBreakdown()
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			st := sys.Stats()
			if lat.Count != st.L1Misses {
				t.Errorf("breakdown completed %d misses, stats counted %d", lat.Count, st.L1Misses)
			}
			if lat.TotalSum != st.MissLatencySum {
				t.Errorf("breakdown total %d cycles, stats %d", lat.TotalSum, st.MissLatencySum)
			}
			var phases uint64
			for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
				phases += lat.PhaseSum[ph]
			}
			if phases != lat.TotalSum {
				t.Errorf("phases sum to %d, total %d", phases, lat.TotalSum)
			}
			if st.L1Misses > 0 && lat.PhaseSum[obs.PhaseL2Access] == 0 {
				t.Error("no L2-access time recorded across an entire run")
			}
		})
	}
}

// TestEventTraceExports runs a sharing-heavy workload with tracing on
// and round-trips the exported Chrome trace through a JSON parser.
func TestEventTraceExports(t *testing.T) {
	cfg := testConfig(ProtozoaMW, 4)
	perCore := workloads.RandomRecords(4, 300, 6, 40, 21)
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	rec := sys.EnableEventTrace(1 << 16)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
	var buf bytes.Buffer
	if err := sys.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed obs.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	var slices, metas int
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
		case "M":
			metas++
		}
	}
	if slices == 0 || metas == 0 {
		t.Errorf("trace has %d slices and %d metadata records, want both > 0", slices, metas)
	}
}

// TestMetricsRegistryOnSystem covers EnableMetrics end to end: the
// gauges sample on the timeline tick, the dump parses, and the final
// occupancy gauges read zero on a drained machine.
func TestMetricsRegistryOnSystem(t *testing.T) {
	cfg := testConfig(MESI, 2)
	sys, err := NewSystem(cfg, workloads.RandomRecords(2, 500, 8, 30, 5))
	if err != nil {
		t.Fatal(err)
	}
	reg := sys.EnableMetrics()
	if sys.timelineInterval == 0 {
		t.Fatal("EnableMetrics did not arm timeline sampling")
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(reg.Samples()) == 0 {
		t.Fatal("registry collected no samples")
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc obs.MetricsDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	if doc.Final["dir_busy_txns"] != 0 || doc.Final["mshr_live"] != 0 {
		t.Errorf("occupancy gauges nonzero on a drained machine: %+v", doc.Final)
	}
	if hr := doc.Final["msg_pool_hit_rate"]; hr <= 0 || hr > 1 {
		t.Errorf("pool hit rate %f out of range", hr)
	}
	if doc.Final["event_queue_high_water"] < 1 {
		t.Errorf("queue high-water %f, want >= 1", doc.Final["event_queue_high_water"])
	}
}
