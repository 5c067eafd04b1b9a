package core

import (
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/noc"
	"protozoa/internal/predictor"
	"protozoa/internal/trace"
)

// --- test scaffolding ---------------------------------------------------

// testConfig builds a small machine: n cores on a minimal mesh, the
// default Table 4 latencies, and a watchdog.
func testConfig(p Protocol, n int) Config {
	cfg := DefaultConfig(p)
	cfg.Cores = n
	switch n {
	case 1:
		cfg.Noc = noc.Config{DimX: 1, DimY: 1, FlitBytes: 16, HopLatency: 4, RouterLat: 2, SerialLat: 2, LocalLat: 1}
	case 2:
		cfg.Noc = noc.Config{DimX: 2, DimY: 1, FlitBytes: 16, HopLatency: 4, RouterLat: 2, SerialLat: 2, LocalLat: 1}
	case 4:
		cfg.Noc = noc.Config{DimX: 2, DimY: 2, FlitBytes: 16, HopLatency: 4, RouterLat: 2, SerialLat: 2, LocalLat: 1}
	case 16:
		// default 4x4
	default:
		panic("testConfig: unsupported core count")
	}
	cfg.MaxEvents = 5_000_000
	return cfg
}

// oneWordPred always fetches exactly the missing word: the limiting
// fine-granularity case, used to exercise adaptive coherence paths
// deterministically.
type oneWordPred struct{}

func (oneWordPred) Predict(_ uint64, _ mem.RegionID, w uint8) mem.Range      { return mem.OneWord(w) }
func (oneWordPred) Train(uint64, mem.RegionID, uint8, mem.Bitmap, mem.Range) {}

func oneWordOverride(int) predictor.Predictor { return oneWordPred{} }

// ld and st build trace records; addresses are word-aligned bytes.
func ld(addr mem.Addr) trace.Access { return trace.Access{Kind: trace.Load, Addr: addr, PC: 0x400} }
func st(addr mem.Addr) trace.Access { return trace.Access{Kind: trace.Store, Addr: addr, PC: 0x500} }

func ldPC(addr mem.Addr, pc uint32) trace.Access {
	return trace.Access{Kind: trace.Load, Addr: addr, PC: pc}
}

func runSys(t *testing.T, cfg Config, perCore [][]trace.Access) *System {
	t.Helper()
	input := make([][]trace.Access, cfg.Cores)
	copy(input, perCore) // cores past len(perCore) get no records
	sys, err := NewSystem(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// loadRecorder captures every completed load for value checks.
type loadRecorder struct {
	loads []loadEvent
}

type loadEvent struct {
	core int
	addr mem.Addr
	val  uint64
}

func (r *loadRecorder) onLoad(core int, a mem.Addr, v uint64) {
	r.loads = append(r.loads, loadEvent{core, a, v})
}

// --- basic single-core behaviour ----------------------------------------

func TestSingleCoreColdMissThenHit(t *testing.T) {
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			sys := runSys(t, testConfig(p, 1), [][]trace.Access{{
				ld(0x1000), ld(0x1008), // same region; cold predictor fetches full region
			}})
			st := sys.Stats()
			if st.L1Misses != 1 || st.L1Hits != 1 {
				t.Errorf("misses/hits = %d/%d, want 1/1", st.L1Misses, st.L1Hits)
			}
			if st.Accesses != 2 || st.Loads != 2 {
				t.Errorf("accesses/loads = %d/%d, want 2/2", st.Accesses, st.Loads)
			}
		})
	}
}

func TestSingleCoreSilentEtoM(t *testing.T) {
	// Load then store the same word: the load fills Exclusive (no other
	// sharers) and the store upgrades silently with no second miss.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			sys := runSys(t, testConfig(p, 1), [][]trace.Access{{
				ld(0x2000), st(0x2000),
			}})
			if m := sys.Stats().L1Misses; m != 1 {
				t.Errorf("misses = %d, want 1 (silent E->M)", m)
			}
			if u := sys.Stats().UpgradeMisses; u != 0 {
				t.Errorf("upgrade misses = %d, want 0", u)
			}
		})
	}
}

func TestSingleCoreStoreThenLoadValue(t *testing.T) {
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 1)
			input := [][]trace.Access{{
				st(0x3000), ld(0x3000),
			}}
			sys, err := NewSystem(cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			rec := &loadRecorder{}
			onLoads(sys, rec.onLoad)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if len(rec.loads) != 1 {
				t.Fatalf("recorded %d loads, want 1", len(rec.loads))
			}
			if rec.loads[0].val == 0 {
				t.Error("load did not observe the store's value")
			}
		})
	}
}

func TestUntouchedWordsCountedUnused(t *testing.T) {
	// MESI fetches the full 64-byte region but the core touches one
	// word: 8 used bytes, 56 unused.
	sys := runSys(t, testConfig(MESI, 1), [][]trace.Access{{ld(0x4000)}})
	st := sys.Stats()
	if st.UsedDataBytes != 8 || st.UnusedDataBytes != 56 {
		t.Errorf("used/unused = %d/%d, want 8/56", st.UsedDataBytes, st.UnusedDataBytes)
	}
}

func TestDataAccountingBalances(t *testing.T) {
	// Every data word that crossed the network must be classified
	// exactly once: used+unused == 8*(wordsIn + wordsOut).
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			var accs [][]trace.Access
			for c := 0; c < 4; c++ {
				var recs []trace.Access
				for i := 0; i < 50; i++ {
					a := mem.Addr(0x1000 + (i*56+c*8)%1024)
					if i%3 == 0 {
						recs = append(recs, st(a))
					} else {
						recs = append(recs, ld(a))
					}
				}
				accs = append(accs, recs)
			}
			sys := runSys(t, testConfig(p, 4), accs)
			s := sys.Stats()
			want := 8 * (s.DataWordsIn + s.DataWordsOut)
			if got := s.DataTotal(); got != want {
				t.Errorf("used+unused = %d, want %d (in=%d out=%d)", got, want, s.DataWordsIn, s.DataWordsOut)
			}
		})
	}
}

// --- two-core sharing behaviour ------------------------------------------

func TestSharedReadThenUpgrade(t *testing.T) {
	// Both cores read a word; core 0 then writes it: an UPGRADE miss
	// that invalidates core 1.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			sys := runSys(t, testConfig(p, 2), [][]trace.Access{
				{ld(0x1000), {Kind: trace.Barrier}, {Kind: trace.Barrier}, st(0x1000)},
				{ld(0x1000), {Kind: trace.Barrier}, {Kind: trace.Barrier}},
			})
			s := sys.Stats()
			if s.UpgradeMisses != 1 {
				t.Errorf("upgrade misses = %d, want 1", s.UpgradeMisses)
			}
			if s.Invalidations < 1 {
				t.Errorf("invalidations = %d, want >= 1", s.Invalidations)
			}
		})
	}
}

func TestWriteMissForwardsToOwner(t *testing.T) {
	// Figure 4: core 1 dirties the region; core 0 then writes to it.
	// The directory forwards to the owner, which writes back.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			sys := runSys(t, testConfig(p, 2), [][]trace.Access{
				{{Kind: trace.Barrier}, st(0x1000)},
				{st(0x1008), {Kind: trace.Barrier}},
			})
			s := sys.Stats()
			if s.Writebacks < 1 {
				t.Errorf("writebacks = %d, want >= 1 (owner supplies dirty data)", s.Writebacks)
			}
			if s.L1Misses != 2 {
				t.Errorf("misses = %d, want 2", s.L1Misses)
			}
		})
	}
}

func TestReaderSeesRemoteWrite(t *testing.T) {
	// Core 1 writes, barrier, core 0 reads: the read must observe the
	// written token (dirty data forwarded through the L2).
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 2)
			input := [][]trace.Access{
				{{Kind: trace.Barrier}, ld(0x1000)},
				{st(0x1000), {Kind: trace.Barrier}},
			}
			sys, err := NewSystem(cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			rec := &loadRecorder{}
			onLoads(sys, rec.onLoad)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if len(rec.loads) != 1 {
				t.Fatalf("loads = %d, want 1", len(rec.loads))
			}
			// Core 1's first store token is (1+1)<<40 | 1.
			want := uint64(2)<<40 | 1
			if rec.loads[0].val != want {
				t.Errorf("load value = %#x, want %#x", rec.loads[0].val, want)
			}
		})
	}
}

// --- the Figure 1 false-sharing example ----------------------------------

// falseSharingRecords builds the OpenMP counter example: each core
// increments its own word of one shared region, iters times.
func falseSharingRecords(iters int) [][]trace.Access {
	var out [][]trace.Access
	for c := 0; c < 2; c++ {
		var recs []trace.Access
		addr := mem.Addr(0x8000 + c*8)
		for i := 0; i < iters; i++ {
			recs = append(recs, trace.Access{Kind: trace.Load, Addr: addr, PC: 0x400})
			recs = append(recs, trace.Access{Kind: trace.Store, Addr: addr, PC: 0x500})
		}
		out = append(out, recs)
	}
	return out
}

func TestMWEliminatesFalseSharing(t *testing.T) {
	// With a one-word predictor (the trained steady state), Protozoa-MW
	// lets both writers cache their disjoint words: exactly one miss
	// per core and zero invalidations after warm-up.
	cfg := testConfig(ProtozoaMW, 2)
	cfg.PredictorOverride = oneWordOverride
	sys := runSys(t, cfg, falseSharingRecords(200))
	s := sys.Stats()
	// Three cold misses total: core 0 loads (E) and silently upgrades;
	// core 1 loads (S) and needs one UPGRADE. After that, zero misses
	// and zero invalidations across 200 iterations.
	if s.L1Misses != 3 {
		t.Errorf("MW misses = %d, want 3 (cold only)", s.L1Misses)
	}
	if s.Invalidations != 0 {
		t.Errorf("MW invalidations = %d, want 0", s.Invalidations)
	}
}

func TestMESIPingPongsOnFalseSharing(t *testing.T) {
	// Misses alternate at miss-latency granularity (each stalled core
	// lets the other run hits), so the ping-pong count is dozens, not
	// one per iteration — but far above the 3 cold misses MW needs.
	sys := runSys(t, testConfig(MESI, 2), falseSharingRecords(200))
	if m := sys.Stats().L1Misses; m < 40 {
		t.Errorf("MESI misses = %d, want ping-pong (>= 40)", m)
	}
}

func TestSWStillPingPongsButMovesLessData(t *testing.T) {
	// Protozoa-SW keeps region-granularity coherence: the writers still
	// invalidate each other, but each miss moves one word, not 64 bytes.
	cfgSW := testConfig(ProtozoaSW, 2)
	cfgSW.PredictorOverride = oneWordOverride
	sysSW := runSys(t, cfgSW, falseSharingRecords(200))
	sysMESI := runSys(t, testConfig(MESI, 2), falseSharingRecords(200))

	if m := sysSW.Stats().L1Misses; m < 40 {
		t.Errorf("SW misses = %d, want ping-pong (>= 40)", m)
	}
	swData := sysSW.Stats().DataTotal()
	mesiData := sysMESI.Stats().DataTotal()
	if swData*3 > mesiData {
		t.Errorf("SW data %d not well below MESI data %d", swData, mesiData)
	}
}

func TestSWMRAllowsReadersWithOneWriter(t *testing.T) {
	// Core 0 writes word 0; core 1 only reads word 1. Under SW+MR the
	// reader's non-overlapping block survives the writer's misses.
	mk := func() [][]trace.Access {
		var w, r []trace.Access
		for i := 0; i < 200; i++ {
			w = append(w, st(0x8000))
			r = append(r, ld(0x8008))
		}
		return [][]trace.Access{w, r}
	}
	cfg := testConfig(ProtozoaSWMR, 2)
	cfg.PredictorOverride = oneWordOverride
	sys := runSys(t, cfg, mk())
	s := sys.Stats()
	if s.L1Misses > 4 {
		t.Errorf("SW+MR misses = %d, want <= 4 (reader coexists with writer)", s.L1Misses)
	}

	// Protozoa-SW, by contrast, ping-pongs reader and writer.
	cfgSW := testConfig(ProtozoaSW, 2)
	cfgSW.PredictorOverride = oneWordOverride
	sysSW := runSys(t, cfgSW, mk())
	if m := sysSW.Stats().L1Misses; m < 20 {
		t.Errorf("SW misses = %d, want read-write ping-pong (>= 20)", m)
	}
}

func TestSWMRRevokesConcurrentWriters(t *testing.T) {
	// Two disjoint writers: MW lets both keep writing; SW+MR allows only
	// one writer at a time, so it keeps missing.
	cfg := testConfig(ProtozoaSWMR, 2)
	cfg.PredictorOverride = oneWordOverride
	sys := runSys(t, cfg, falseSharingRecords(200))
	if m := sys.Stats().L1Misses; m < 20 {
		t.Errorf("SW+MR misses = %d, want single-writer ping-pong (>= 20)", m)
	}
}

// --- Section 3.3 add-ons --------------------------------------------------

func TestSecondaryGetXFromOwner(t *testing.T) {
	// An owner holding words 0 issues another write miss for word 4 of
	// the same region. The directory must answer directly instead of
	// forwarding the request back to the owner (Figure 5, top).
	for _, p := range []Protocol{ProtozoaSW, ProtozoaSWMR, ProtozoaMW} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 2)
			cfg.PredictorOverride = oneWordOverride
			sys := runSys(t, cfg, [][]trace.Access{
				{st(0x9000), st(0x9020)},
				nil,
			})
			s := sys.Stats()
			if s.L1Misses != 2 {
				t.Errorf("misses = %d, want 2", s.L1Misses)
			}
			if s.ControlBytes[1] != 0 { // ClassFWD: nothing should be forwarded
				t.Errorf("forward bytes = %d, want 0 (no forward to self)", s.ControlBytes[1])
			}
		})
	}
}

func TestMultipleBlocksFromRegionCoexistInL1(t *testing.T) {
	// Protozoa keeps several distinct sub-blocks of a region in the L1
	// at once (Figure 5): two one-word writes, then hits on both.
	cfg := testConfig(ProtozoaSW, 1)
	cfg.PredictorOverride = oneWordOverride
	sys := runSys(t, cfg, [][]trace.Access{
		{st(0x9000), st(0x9020), ld(0x9000), ld(0x9020)},
	})
	s := sys.Stats()
	if s.L1Misses != 2 || s.L1Hits != 2 {
		t.Errorf("misses/hits = %d/%d, want 2/2", s.L1Misses, s.L1Hits)
	}
}

func TestNackFromStaleSharer(t *testing.T) {
	// Core 0 reads region A, then silently evicts it by reading many
	// conflicting regions (clean drop). When core 1 writes A the
	// directory still probes core 0, which NACKs.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 2)
			cfg.L1Sets = 1
			cfg.L1SetBudget = 288
			var c0 []trace.Access
			c0 = append(c0, ld(0x0))
			for i := 1; i <= 8; i++ {
				c0 = append(c0, ld(mem.Addr(i*64))) // evict region 0
			}
			c0 = append(c0, trace.Access{Kind: trace.Barrier})
			sys := runSys(t, cfg, [][]trace.Access{
				c0,
				{{Kind: trace.Barrier}, st(0x0)},
			})
			s := sys.Stats()
			if s.ControlBytes[4] == 0 { // ClassNACK
				t.Error("expected a NACK from the stale sharer")
			}
		})
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// A dirty block evicted by capacity pressure must write back, and a
	// later read must observe the value from the L2.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 1)
			cfg.L1Sets = 1
			var recs []trace.Access
			recs = append(recs, st(0x0))
			for i := 1; i <= 8; i++ {
				recs = append(recs, ld(mem.Addr(i*64)))
			}
			recs = append(recs, ld(0x0))
			input := [][]trace.Access{recs}
			sys, err := NewSystem(cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			rec := &loadRecorder{}
			onLoads(sys, rec.onLoad)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if sys.Stats().Writebacks < 1 {
				t.Error("no writeback on dirty eviction")
			}
			last := rec.loads[len(rec.loads)-1]
			want := uint64(1)<<40 | 1
			if last.addr == 0 && last.val != want {
				t.Errorf("reloaded value = %#x, want %#x", last.val, want)
			}
		})
	}
}

func TestMESIMatchesSWWithFixedPredictor(t *testing.T) {
	// Correctness invariant (i) from Section 3.6: with a fixed
	// full-region prediction, Protozoa transitions exactly like MESI.
	mk := func() [][]trace.Access {
		var a, b []trace.Access
		for i := 0; i < 120; i++ {
			addr := mem.Addr(0x1000 + (i%6)*64 + (i%8)*8)
			if i%4 == 0 {
				a = append(a, st(addr))
				b = append(b, ld(addr+512))
			} else {
				a = append(a, ld(addr))
				b = append(b, st(addr+512))
			}
		}
		return [][]trace.Access{a, b}
	}
	mesi := runSys(t, testConfig(MESI, 2), mk())

	cfgSW := testConfig(ProtozoaSW, 2)
	cfgSW.SpatialPredictor = false
	sw := runSys(t, cfgSW, mk())

	sm, ss := mesi.Stats(), sw.Stats()
	if sm.L1Misses != ss.L1Misses || sm.L1Hits != ss.L1Hits {
		t.Errorf("MESI misses/hits %d/%d != SW-fixed %d/%d", sm.L1Misses, sm.L1Hits, ss.L1Misses, ss.L1Hits)
	}
	if sm.TrafficTotal() != ss.TrafficTotal() {
		t.Errorf("MESI traffic %d != SW-fixed traffic %d", sm.TrafficTotal(), ss.TrafficTotal())
	}
	if sm.ExecCycles != ss.ExecCycles {
		t.Errorf("MESI cycles %d != SW-fixed cycles %d", sm.ExecCycles, ss.ExecCycles)
	}
}

// --- configuration validation ---------------------------------------------

func TestNewSystemValidation(t *testing.T) {
	mk := func(n int) [][]trace.Access { return make([][]trace.Access, n) }
	cfg := testConfig(MESI, 2)
	if _, err := NewSystem(cfg, mk(3)); err == nil {
		t.Error("stream/core mismatch accepted")
	}
	bad := cfg
	bad.Cores = 3 // mesh is 2x1
	if _, err := NewSystem(bad, mk(3)); err == nil {
		t.Error("mesh/core mismatch accepted")
	}
	bad = cfg
	bad.RegionBytes = 48
	if _, err := NewSystem(bad, mk(2)); err == nil {
		t.Error("bad region size accepted")
	}
	bad = cfg
	bad.Cores = 64
	if _, err := NewSystem(bad, mk(64)); err == nil {
		t.Error("64 cores accepted (NodeSet holds 32)")
	}
}

func TestRunTwiceFails(t *testing.T) {
	cfg := testConfig(MESI, 1)
	sys, err := NewSystem(cfg, [][]trace.Access{nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Without the barrier core 0's store could race ahead; with it the
	// load must observe the store.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 4)
			input := [][]trace.Access{
				{st(0x7000), {Kind: trace.Barrier}},
				{{Kind: trace.Barrier}, ld(0x7000)},
				{{Kind: trace.Barrier}},
				{{Kind: trace.Barrier}},
			}
			sys, err := NewSystem(cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			rec := &loadRecorder{}
			onLoads(sys, rec.onLoad)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			want := uint64(1)<<40 | 1
			if len(rec.loads) != 1 || rec.loads[0].val != want {
				t.Errorf("loads = %+v, want one load of %#x", rec.loads, want)
			}
		})
	}
}

// --- block size distribution ----------------------------------------------

func TestBlockSizeHistogramReflectsPredictor(t *testing.T) {
	cfg := testConfig(ProtozoaMW, 1)
	cfg.PredictorOverride = oneWordOverride
	sys := runSys(t, cfg, [][]trace.Access{{st(0x1000), st(0x2000), st(0x3000)}})
	h := sys.Stats().BlockSizeHist
	if h[0] != 3 {
		t.Errorf("1-word fills = %d, want 3", h[0])
	}
	mesi := runSys(t, testConfig(MESI, 1), [][]trace.Access{{st(0x1000), st(0x2000)}})
	if mesi.Stats().BlockSizeHist[7] != 2 {
		t.Errorf("MESI 8-word fills = %d, want 2", mesi.Stats().BlockSizeHist[7])
	}
}

func TestSpatialPredictorShrinksTraffic(t *testing.T) {
	// A sparse strided workload (one word per region) under the real
	// spatial predictor: after warm-up, fills shrink and unused data
	// drops well below MESI's.
	mk := func() [][]trace.Access {
		var recs []trace.Access
		for i := 0; i < 400; i++ {
			recs = append(recs, ldPC(mem.Addr(0x10000+i*64), 0x777))
		}
		return [][]trace.Access{recs}
	}
	cfg := testConfig(ProtozoaSW, 1)
	cfg.L1Sets = 8 // force evictions so the predictor trains
	sw := runSys(t, cfg, mk())
	cfgM := testConfig(MESI, 1)
	cfgM.L1Sets = 8
	mesi := runSys(t, cfgM, mk())
	if swU, mU := sw.Stats().UnusedDataBytes, mesi.Stats().UnusedDataBytes; swU*2 > mU {
		t.Errorf("SW unused %d not well below MESI unused %d", swU, mU)
	}
}
