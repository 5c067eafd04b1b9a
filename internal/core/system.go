package core

import (
	"fmt"
	"io"

	"protozoa/internal/cache"
	"protozoa/internal/engine"
	"protozoa/internal/mem"
	"protozoa/internal/noc"
	"protozoa/internal/obs"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/obs/flight"
	"protozoa/internal/obs/selfprof"
	"protozoa/internal/predictor"
	"protozoa/internal/recycle"
	"protozoa/internal/stats"
	"protozoa/internal/trace"
)

// Config assembles a simulated machine. DefaultConfig reproduces the
// paper's Table 4 system.
type Config struct {
	Protocol Protocol
	Cores    int // one L1 + one L2/directory tile per core

	// Geometry: RegionBytes is the coherence/directory granularity and
	// the maximum block size (RMAX). The MESI baseline uses it as the
	// fixed block size, which is how the Table 1 sweep varies 16-128 B.
	RegionBytes int

	// L1 sizing (per-set byte budget, tag overhead charged per block).
	L1Sets, L1SetBudget, L1TagBytes int

	// MergeL1Blocks enables Amoeba block coalescing: adjacent
	// same-state fragments of a region re-join on fill.
	MergeL1Blocks bool

	// ThreeHop enables owner-to-requester direct data forwarding when a
	// transaction has a single owner target whose blocks fully cover
	// the request (Section 6); all other cases fall back to 4-hop.
	ThreeHop bool

	// Directory selects precise sharer vectors (the paper's default) or
	// the Section 6 TL-style counting bloom filter. Bloom mode disables
	// silent clean evictions (the L1 notifies the directory when the
	// last block of a region leaves).
	Directory    DirectoryKind
	BloomHashes  int // 0 = DefaultBloomHashes
	BloomBuckets int // 0 = DefaultBloomBuckets

	// L2RegionsPerTile bounds each tile's L2 slice (0 = unbounded, the
	// evaluation default — Table 4's 2 MB/tile is effectively infinite
	// for the simulated working sets). A full slice evicts its
	// least-recently-used region, recalling L1 copies first to keep the
	// L2 inclusive, and writes dirty data back to memory.
	L2RegionsPerTile int

	// NonInclusiveL2 models the Section 6 "Non-Inclusive Shared Cache"
	// design issue: the L2 drops its copy of words granted exclusively
	// to an L1, so a later response may have to combine a remote
	// owner's writeback with words re-fetched from memory — the
	// multi-source assembly the paper describes. Off by default (the
	// paper's protocols use the inclusive L2 to simplify this case).
	NonInclusiveL2 bool

	// SpatialPredictor selects the PC predictor; MESI always uses the
	// fixed full-region predictor regardless of this setting.
	SpatialPredictor bool
	PredictorTable   int

	// PredictorOverride, when non-nil, supplies each L1's predictor and
	// overrides SpatialPredictor — used by directed tests and the
	// predictor ablation study (e.g. an oracle or one-word predictor).
	PredictorOverride func(core int) predictor.Predictor

	// Latencies in core cycles (Table 4: 2-cycle L1, 14-cycle L2,
	// 300-cycle memory).
	L1HitLat, L2Lat, MemLat engine.Cycle

	Noc noc.Config

	// MaxEvents bounds the event count as a livelock watchdog;
	// 0 disables the bound.
	MaxEvents uint64

	// Workers is inert: NewSystem ignores it and every machine runs on
	// the one sequential engine. It exists only because perfbench sets
	// it for its unlisted run-pdes workload.
	Workers int
}

// DefaultConfig is the Table 4 16-core system for the given protocol.
func DefaultConfig(p Protocol) Config {
	return Config{
		Protocol:         p,
		Cores:            16,
		RegionBytes:      64,
		L1Sets:           256,
		L1SetBudget:      288,
		L1TagBytes:       8,
		SpatialPredictor: p.Adaptive(),
		PredictorTable:   predictor.DefaultTableSize,
		L1HitLat:         2,
		L2Lat:            14,
		MemLat:           300,
		Noc:              noc.DefaultConfig(),
		MaxEvents:        0,
	}
}

// Observer receives correctness-checking hooks; see the random tester.
type Observer interface {
	// OnStore fires when a store retires with write permission held.
	OnStore(core int, addr mem.Addr, val uint64)
	// OnLoad fires when a load's value is returned to the core.
	OnLoad(core int, addr mem.Addr, val uint64)
	// OnTxnEnd fires when the directory completes a transaction for the
	// region — a quiescent point for invariant checks.
	OnTxnEnd(region mem.RegionID)
}

// System is one assembled machine: cores, private L1s, the mesh, and
// the tiled shared L2 with its in-cache directory.
type System struct {
	cfg  Config
	geom mem.Geometry
	eng  *engine.Engine
	mesh *noc.Mesh
	st   *stats.Stats

	l1s  []*l1Ctrl
	dirs []*dirSlice
	cpus []*cpu

	obs Observer

	// Observability hooks (internal/obs). All nil/zero unless the
	// corresponding Enable* method ran; every use site guards with a
	// single nil check so the disabled path costs one branch. lat is the
	// online latency fold over the flight spine's phase records.
	lat     *obs.LatencyBreakdown
	metrics *obs.Registry
	attrib  *attrib.Tracker

	// flight is the flight recorder (EnableFlightRecorder): one record
	// ring in execution order, sized to the largest capacity any view
	// asked for. msgCap, when nonzero, bounds the MessageLog view
	// reconstructed from the flight transcript. The stall* fields
	// belong to the watchdog (EnableStallWatchdog), checked on timeline
	// ticks.
	flight         *flight.Recorder
	msgCap         int
	stallThreshold engine.Cycle
	stallOut       io.Writer
	stallSeen      map[stallKey]bool
	stalls         []StallReport

	// selfProf observes the simulator itself (EnableSelfProf): engine
	// queue introspection. nil = disabled.
	selfProf *selfprof.Profile

	// onSample, when non-nil, runs after every timeline tick's metrics
	// sample — the live-endpoint publish hook (SetSampleHook).
	onSample func(cycle uint64)

	// pool is the message free list.
	pool msgPool

	// transitions counts the observed state edges by flight code when
	// EnableTransitionAudit was called (nil otherwise).
	transitions map[edgeKey]uint64

	// mshrLive counts misses outstanding across all cores.
	mshrLive int

	// Timeline sampling (EnableTimeline). timelineEv is the pre-bound
	// engine.Runner the sampler reschedules itself through.
	timelineInterval engine.Cycle
	timeline         []TimelineSample
	timelineEv       timelineEvent

	// lastRetire is the cycle the final core retired its last record.
	lastRetire engine.Cycle

	barrierWait    []*cpu
	barrierArrived int
	coresDone      int
	ran            bool
	released       bool
}

// msgPool is the free list behind newMsg/freeMsg. The machine runs on
// one goroutine, so recycling needs no synchronization. At steady state
// every coherence message comes from the pool.
type msgPool struct {
	free   []*Msg
	hits   uint64 // newMsg served from the free list
	allocs uint64 // newMsg had to allocate
}

// msgLists holds released machines' message free lists for NewSystem
// to adopt.
var msgLists recycle.Pool[[]*Msg]

// adopt takes over a released machine's free list, zeroing every
// message in it.
func (p *msgPool) adopt(s *System) {
	free, ok := msgLists.Get()
	if !ok {
		return
	}
	for _, m := range free {
		*m = Msg{sys: s}
	}
	p.free = free
}

// release hands the free list to msgLists.
func (p *msgPool) release() {
	free := p.free
	*p = msgPool{}
	if len(free) == 0 {
		return
	}
	poison := recycle.Poison.Load()
	for _, m := range free {
		if poison {
			*m = Msg{Type: MsgInv, Src: -1, Dst: -1, Region: ^mem.RegionID(0), Valid: ^mem.Bitmap(0),
				Requester: -1, TxnID: ^uint64(0), StillSharer: true, Direct: true, phase: phaseSend}
		} else {
			m.sys = nil // pin no released machine
		}
	}
	msgLists.Put(free)
}

// newMsg takes a zeroed message from the free list (or allocates one).
func (s *System) newMsg() *Msg {
	p := &s.pool
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		p.hits++
		return m
	}
	p.allocs++
	return &Msg{sys: s}
}

// freeMsg recycles a message whose lifecycle has ended at tile: delivered
// and fully handled, with no controller retaining a reference.
func (s *System) freeMsg(tile int, m *Msg) {
	// The free record is taken before the message is zeroed — it copies
	// every field it keeps, so no record ever aliases a recycled Msg.
	if s.flight != nil {
		s.flightMsg(flight.KindMsgFree, tile, m)
	}
	*m = Msg{sys: s}
	s.pool.free = append(s.pool.free, m)
}

// NewSystem builds a machine replaying the given per-core records:
// core c executes recs[c] in order. The machine only reads recs, so
// machines may share one input. len(recs) must equal cfg.Cores, and
// the mesh must have exactly one node per core.
func NewSystem(cfg Config, recs [][]trace.Access) (*System, error) {
	if cfg.Cores <= 0 || cfg.Cores > 32 {
		return nil, fmt.Errorf("core: bad core count %d (directory vectors hold up to 32)", cfg.Cores)
	}
	if len(recs) != cfg.Cores {
		return nil, fmt.Errorf("core: %d record slices for %d cores", len(recs), cfg.Cores)
	}
	if cfg.Noc.DimX*cfg.Noc.DimY != cfg.Cores {
		return nil, fmt.Errorf("core: mesh %dx%d does not match %d cores", cfg.Noc.DimX, cfg.Noc.DimY, cfg.Cores)
	}
	geom, err := mem.NewGeometry(cfg.RegionBytes)
	if err != nil {
		return nil, err
	}
	st := &stats.Stats{PerCore: make([]stats.CoreStats, cfg.Cores)}
	eng := engine.New()
	mesh, err := noc.New(cfg.Noc, eng, st)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, geom: geom, eng: eng, mesh: mesh, st: st}
	s.pool.adopt(s)
	for i := 0; i < cfg.Cores; i++ {
		l1cache, err := cache.New(cache.Config{
			Sets:           cfg.L1Sets,
			SetBudgetBytes: cfg.L1SetBudget,
			TagBytes:       cfg.L1TagBytes,
			Geom:           geom,
			MergeBlocks:    cfg.MergeL1Blocks,
		})
		if err != nil {
			return nil, err
		}
		var pred predictor.Predictor
		switch {
		case cfg.PredictorOverride != nil:
			pred = cfg.PredictorOverride(i)
		case cfg.SpatialPredictor && cfg.Protocol.Adaptive():
			pred = predictor.NewSpatial(geom, cfg.PredictorTable)
		default:
			pred = predictor.Fixed{Geom: geom}
		}
		s.l1s = append(s.l1s, newL1(s, i, l1cache, pred))
		s.dirs = append(s.dirs, newDirSlice(s, i))
		c := &cpu{id: i, sys: s, recs: recs[i]}
		c.accessEv = cpuAccess{s: s, c: c}
		c.stepEv = cpuStep{s: s, c: c}
		s.cpus = append(s.cpus, c)
	}
	return s, nil
}

// Release hands the machine's storage to process-wide pools that later
// NewSystem calls draw from and clear: the L1 set storage and spatial
// predictor tables, the directory's entry arena, L2 word store and
// index, the miss classifier's tables and the message free list. Only
// the code that built the machine may release it, once, after its last
// read of the machine: Stats, Attribution and the latency breakdown
// stay valid (they are not pooled), but any other use of a released
// System panics.
func (s *System) Release() {
	s.mustLive()
	s.released = true
	// Last core first: the pools hand out the most recent release
	// first, so the next machine's core i gets core i's storage, grown
	// for the same access pattern when the next cell replays the same
	// workload.
	for i := len(s.l1s) - 1; i >= 0; i-- {
		s.l1s[i].cache.Release()
		s.l1s[i].causes.Release()
		// A predictor from PredictorOverride is the caller's to keep.
		if sp, ok := s.l1s[i].pred.(*predictor.Spatial); ok && s.cfg.PredictorOverride == nil {
			sp.Release()
		}
		s.dirs[i].release()
	}
	s.pool.release()
	s.l1s, s.dirs, s.cpus = nil, nil, nil
}

// mustLive panics when the machine was released.
func (s *System) mustLive() {
	if s.released {
		panic("core: System used after Release")
	}
}

// SetObserver installs correctness hooks; pass nil to remove.
func (s *System) SetObserver(o Observer) { s.obs = o }

// Stats exposes the run's counters.
func (s *System) Stats() *stats.Stats { return s.st }

// Engine exposes the event engine (tests and the random tester).
func (s *System) Engine() *engine.Engine { return s.eng }

// EventsProcessed reports how many events the machine has run.
func (s *System) EventsProcessed() uint64 { return s.eng.Processed() }

// Protocol reports the configured protocol.
func (s *System) Protocol() Protocol { return s.cfg.Protocol }

// Geometry reports the region geometry.
func (s *System) Geometry() mem.Geometry { return s.geom }

// home returns the tile whose L2 slice and directory own the region
// (low-order interleaving across tiles, as in tiled CMPs).
func (s *System) home(r mem.RegionID) int {
	return int(uint64(r) % uint64(s.cfg.Cores))
}

// send puts a message on the mesh and accounts its control bytes. Data
// payload bytes are classified used/unused at block-death and writeback
// time by the L1s, so they are not accounted here. Every sender stamps
// Src first, so Src names the sending tile.
func (s *System) send(m *Msg) {
	s.st.AddControl(m.Class(), CtrlBytes)
	if s.flight != nil {
		s.flightMsg(flight.KindMsgSend, m.Src, m)
	}
	m.sys = s
	m.phase = phaseDeliver
	at, stall := s.mesh.Arrival(s.eng.Now(), m.Src, m.Dst, m.VNet(), m.Bytes())
	if stall > 0 && s.flight != nil {
		s.flight.Record(flight.Record{
			Cycle: s.eng.Now(), Tile: int16(m.Src), Kind: flight.KindLinkStall,
			Sub: uint8(m.Type), Src: int16(m.Src), Dst: int16(m.Dst), Req: -1,
			Txn: uint64(stall),
		})
	}
	s.eng.ScheduleRunnerAt(at, m)
}

// deliver hands an arriving message to its destination controller.
// Requests are retained by the directory (queued or held by the active
// transaction) and recycled when their transaction finishes; every
// other message is dead once its handler returns and goes back to the
// pool here.
func (s *System) deliver(m *Msg) {
	if s.flight != nil {
		s.flightMsg(flight.KindMsgDeliver, m.Dst, m)
	}
	switch m.Type {
	case MsgGetS, MsgGetX, MsgUpgrade:
		s.dirs[m.Dst].recvRequest(m)
	case MsgAck, MsgAckS, MsgNack, MsgWback, MsgWbackLast, MsgUnblock:
		s.dirs[m.Dst].recvResponse(m)
		s.freeMsg(m.Dst, m)
	default:
		s.l1s[m.Dst].recv(m)
		s.freeMsg(m.Dst, m)
	}
}

// Run executes the machine to completion. It returns an error when
// the event queue drains with stalled cores (a protocol deadlock) or
// the watchdog fires.
func (s *System) Run() error {
	s.mustLive()
	if s.ran {
		return fmt.Errorf("core: system already ran")
	}
	s.ran = true
	for _, c := range s.cpus {
		s.eng.ScheduleRunner(0, &c.stepEv)
	}
	if s.timelineInterval > 0 {
		s.timelineEv.s = s
		s.eng.ScheduleRunner(s.timelineInterval, &s.timelineEv)
	}
	drained := s.eng.Run(s.cfg.MaxEvents)
	if !drained {
		return fmt.Errorf("core: watchdog fired after %d events (livelock?)\n%s",
			s.eng.Processed(), s.diagnose())
	}
	if s.coresDone != s.cfg.Cores {
		return fmt.Errorf("core: deadlock: %d/%d cores finished, %d at barrier\n%s",
			s.coresDone, s.cfg.Cores, s.barrierArrived, s.diagnose())
	}
	s.st.ExecCycles = uint64(s.lastRetire)
	s.flushResidual()
	if s.attrib != nil {
		s.attrib.Trim()
	}
	// Engine self-observability counters land in the stats at the very
	// end of the run (they describe the whole run) — always set, so the
	// stats JSON is byte-identical whether or not self-prof is enabled.
	s.st.EventQueueHighWater = uint64(s.eng.HighWater())
	s.st.ZeroDelayHits = s.eng.MicroHits()
	s.finishSelfProf()
	// Clean drain: return the bucket ring to the engine's storage pool
	// so the next cell in this process reuses it instead of paying the
	// fixed ring allocation again. Error paths keep the queue intact
	// for diagnose().
	s.eng.Recycle()
	return nil
}

// flushResidual classifies data still resident at the end of the run so
// every fetched word is counted exactly once as used or unused.
func (s *System) flushResidual() {
	for _, l1 := range s.l1s {
		l1.cache.Blocks(func(b *cache.Block) {
			l1.classifyDeath(b)
		})
	}
}

// foldAttribution brings the attribution tracker up to date with every
// reference resolved so far; each mid-run classification read calls it.
func (s *System) foldAttribution() {
	for _, l1 := range s.l1s {
		l1.foldPending()
	}
}

// ForEachCachedWord walks every word resident in any L1 — the hook the
// SWMR invariant checker uses.
func (s *System) ForEachCachedWord(fn func(core int, region mem.RegionID, w uint8, st cache.State, val uint64)) {
	s.mustLive()
	for _, l1 := range s.l1s {
		core := l1.id
		l1.cache.Blocks(func(b *cache.Block) {
			for w := b.R.Start; ; w++ {
				fn(core, b.Region, w, b.State, b.Word(w))
				if w == b.R.End {
					break
				}
			}
		})
	}
}

// L2Word returns the shared L2's value for a word, and whether the
// region has been allocated at the L2 at all.
func (s *System) L2Word(region mem.RegionID, w uint8) (uint64, bool) {
	s.mustLive()
	d := s.dirs[s.home(region)]
	e := d.lookup(region)
	if e == nil {
		return 0, false
	}
	if data := d.block(e); int(w) < len(data) {
		return data[w], true
	}
	return 0, true
}

// DirBusy reports whether the region has an active directory
// transaction (checker support: invariants are only guaranteed at
// quiescent points).
func (s *System) DirBusy(region mem.RegionID) bool {
	s.mustLive()
	e := s.dirs[s.home(region)].lookup(region)
	return e != nil && e.busy
}
