package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"protozoa"
	"protozoa/internal/stats"
	"protozoa/internal/workloads"
)

// repRecord is what one repetition (one child process) reports back to
// the parent as a single JSON line on its standard output.
type repRecord struct {
	// Correctness: simulated runs (or grid cells) attempted and failed,
	// and the output checks made on them.
	Runs       int      `json:"runs"`
	FailedRuns int      `json:"failed_runs"`
	Checks     int      `json:"checks"`
	CheckErrs  []string `json:"check_errs,omitempty"`

	// Wall-clock stamps (Unix ns): process entry, ready to run the
	// first event (or submit the grid), job done.
	StartNs int64 `json:"start_ns"`
	ReadyNs int64 `json:"ready_ns"`
	DoneNs  int64 `json:"done_ns"`

	Accesses  uint64    `json:"accesses"`   // simulated accesses
	SimCycles uint64    `json:"sim_cycles"` // simulated execution cycles
	RunNs     int64     `json:"run_ns"`     // System.Run (single run) or grid + render (repro)
	CellMs    []float64 `json:"cell_ms"`    // per-cell wall times
	Digest    string    `json:"digest"`     // sha256 of the simulated outputs
	PeakRSSKB int64     `json:"peak_rss_kb"`

	Layer map[string]float64 `json:"layer"` // per-layer raw values
	Extra map[string]float64 `json:"extra"` // workload-specific values printed beside the metrics
}

func (r *repRecord) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.CheckErrs = append(r.CheckErrs, fmt.Sprintf(format, args...))
	}
}

// childMain runs one repetition of a workload and prints its record.
// The CPU profile, when asked for, covers the whole job.
func childMain(args []string) int {
	start := time.Now()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	var (
		profFile *os.File
		profErr  error
	)
	if o.profile != "" {
		if profFile, err = os.Create(o.profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(profFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 2
		}
	}
	// stopProfile ends the profile once; repro stops it before its
	// checks, a single run at the end.
	stopProfile := func() {
		if profFile != nil {
			pprof.StopCPUProfile()
			profErr = profFile.Close()
			profFile = nil
		}
	}
	rec := &repRecord{StartNs: start.UnixNano(), Layer: map[string]float64{}, Extra: map[string]float64{}}
	if w.repro {
		runRepro(w, o, rec, stopProfile)
	} else {
		runSingle(w, o, rec)
	}
	stopProfile()
	rec.check(profErr == nil, "CPU profile: %v", profErr)

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if rec.Accesses > 0 {
		rec.Layer["runtime.allocs_per_access"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(rec.Accesses)
	}
	rec.Layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	rec.PeakRSSKB, err = peakRSSKB()
	rec.check(err == nil, "peak RSS: %v", err)
	if w.repro && o.profile != "" {
		gen, err := reproGenSeconds(w, o)
		rec.check(err == nil, "%v", err)
		rec.Layer["workloads.gen_s"] = gen
	}

	out, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	fmt.Println(string(out))
	return 0
}

// runSingle is one single-run repetition: generate the inputs, build
// the machine, run it, and check its stats.
func runSingle(w workload, o options, rec *repRecord) {
	cores, scale := w.size(o.smoke)
	rec.Runs = 1
	spec, err := workloads.Get(w.app)
	if err != nil {
		rec.FailedRuns = 1
		rec.check(false, "%v", err)
		return
	}
	t0 := time.Now()
	streams := spec.StreamsSeeded(cores, scale, o.seed)
	t1 := time.Now()
	cfg := protozoa.DefaultSystemConfig(w.protocol)
	if w.pdes {
		cfg.Workers = parallelism()
	}
	sys, err := protozoa.NewSystem(cfg, streams)
	t2 := time.Now()
	rec.Layer["workloads.gen_s"] = t1.Sub(t0).Seconds()
	rec.Layer["core.build_s"] = t2.Sub(t1).Seconds()
	if err != nil {
		rec.FailedRuns = 1
		rec.check(false, "NewSystem: %v", err)
		return
	}
	if o.profile != "" {
		// The engine queue and PDES round counters the traced run
		// reports; they observe the simulator, never the simulation.
		sys.EnableSelfProf()
	}
	rec.ReadyNs = time.Now().UnixNano()
	runErr := sys.Run()
	t3 := time.Now()
	rec.DoneNs = t3.UnixNano()
	rec.RunNs = int64(t3.Sub(t2))
	rec.Layer["core.run_s"] = t3.Sub(t2).Seconds()
	rec.CellMs = []float64{float64(t3.Sub(t0)) / 1e6}
	rec.check(runErr == nil, "Run: %v", runErr)
	if runErr != nil {
		rec.FailedRuns = 1
		return
	}
	st := sys.Stats()
	checkIdentities(rec, w.app, st)
	rec.Accesses = st.Accesses
	rec.SimCycles = st.ExecCycles
	rec.Digest = digestJSON(rec, st)
	events := sys.EventsProcessed()
	addCounts(rec.Layer, []*protozoa.Stats{st}, events, st.EventQueueHighWater)
	if p := sys.SelfProf(); p != nil {
		r := p.Report()
		rec.Layer["engine.far_pushes"] = float64(r.Queue.FarPushes)
		rec.Layer["engine.pop_refusals"] = float64(r.Queue.Refusals)
		rec.Layer["core.pdes.rounds"] = float64(r.Rounds)
		if r.Rounds > 0 {
			rec.Layer["core.pdes.events_per_round"] = float64(r.TotalEvents) / float64(r.Rounds)
		}
		wait := r.CoordWaitNs
		for _, ww := range r.WorkerWait {
			wait += ww.SpinNs
		}
		rec.Layer["core.pdes.barrier_wait_s"] = float64(wait) / 1e9
		rec.Layer["core.pdes.bookkeeping_s"] = float64(r.BookkeepingNs) / 1e9
	}
}

// runRepro is one cold reproduction: the Figures 9-16 grid and the
// Table 1 sweep with the result cache off, then the rendering.
func runRepro(w workload, o options, rec *repRecord, stopProfile func()) {
	cores, scale := w.size(o.smoke)
	var progress lockedBuffer
	opts := protozoa.Options{Cores: cores, Scale: scale, TraceSeed: o.seed, Jobs: parallelism(), Progress: &progress}
	apps := protozoa.WorkloadNames()
	if o.smoke {
		apps = reproSmokeApps
		opts.Workloads = apps
	}
	protocols := protozoa.Protocols()
	cellsPerApp := len(protocols) + len(table1Blocks)
	rec.Runs = len(apps) * cellsPerApp

	rec.ReadyNs = time.Now().UnixNano()
	t0 := time.Now()
	m, errFigs := protozoa.Collect(opts)
	t1, errT1 := protozoa.CollectTable1(opts)
	t2 := time.Now()
	var text strings.Builder
	if errFigs == nil && errT1 == nil {
		// Figures 9-16 in the order protozoa-figs prints them.
		for _, fig := range []func() string{
			m.Fig9Traffic, m.Fig10Control, m.Fig11Owners, m.Fig12BlockDist,
			m.Fig13MPKI, m.Fig14Exec, m.Fig15FlitHops, m.FigMissClass,
		} {
			text.WriteString(fig())
		}
		text.WriteString(t1.Render())
	}
	t3 := time.Now()
	rec.DoneNs = t3.UnixNano()
	rec.RunNs = int64(t3.Sub(t0))
	rec.Layer["harness.render_s"] = t3.Sub(t2).Seconds()
	stopProfile()

	rec.check(errFigs == nil, "Collect: %v", errFigs)
	rec.check(errT1 == nil, "CollectTable1: %v", errT1)
	grids, perr := parseProgress(progress.String())
	rec.check(perr == nil, "%v", perr)
	if perr == nil {
		rec.check(len(grids) == 2, "progress: %d grids, want 2", len(grids))
	}
	var busy, capacity time.Duration
	var figEvents, simCycles uint64
	cells := 0
	for i, g := range grids {
		if i == 0 {
			figEvents = g.events
		}
		for _, c := range g.cells {
			rec.CellMs = append(rec.CellMs, float64(c.wall)/1e6)
			busy += c.wall
			if c.failed {
				rec.FailedRuns++
			}
			rec.check(!c.cached, "cell %s answered from a cache", c.label)
		}
		cells += g.total
		capacity += time.Duration(g.jobs) * g.wall
		simCycles += g.simCycles
	}
	rec.check(cells == rec.Runs, "progress reports %d cells, want %d", cells, rec.Runs)
	if errFigs != nil || errT1 != nil {
		if rec.FailedRuns == 0 {
			rec.FailedRuns = rec.Runs
		}
		return
	}

	var all []*protozoa.Stats
	var highWater uint64
	for _, app := range apps {
		for _, p := range protocols {
			st := m.Get(app, p)
			checkIdentities(rec, app+"/"+p.String(), st)
			all = append(all, st)
			rec.Accesses += st.Accesses
			highWater = max(highWater, st.EventQueueHighWater)
		}
		// Table 1 cells replay the MESI cell's inputs at other block
		// sizes: the same accesses.
		rec.Accesses += uint64(len(table1Blocks)) * m.Get(app, protozoa.MESI).Accesses
	}
	rec.SimCycles = simCycles
	sum := sha256.Sum256([]byte(text.String()))
	rec.Digest = hex.EncodeToString(sum[:])
	addCounts(rec.Layer, all, figEvents, highWater)
	rec.Layer["runner.cell_busy_s"] = busy.Seconds()
	if capacity > 0 {
		rec.Layer["runner.idle_frac"] = 1 - float64(busy)/float64(capacity)
	}

	// The pinned paper shapes (Figures 9, 13 and 14).
	traffic := m.GeoMeanRatio(protozoa.ProtozoaMW, func(s *protozoa.Stats) float64 { return float64(s.TrafficTotal()) })
	exec := m.GeoMeanRatio(protozoa.ProtozoaMW, func(s *protozoa.Stats) float64 { return float64(s.ExecCycles) })
	rec.Extra["mw_traffic_ratio"] = traffic
	rec.Extra["mw_exec_ratio"] = exec
	rec.check(traffic < 1, "paper shape: MW/MESI traffic ratio %.4f, want < 1", traffic)
	rec.check(exec < 1, "paper shape: MW/MESI execution-time ratio %.4f, want < 1", exec)
	// Every grid (smoke too) includes linear-regression.
	mesi := m.Get("linear-regression", protozoa.MESI)
	mw := m.Get("linear-regression", protozoa.ProtozoaMW)
	rec.Extra["linreg_mw_miss_reduction"] = 1 - float64(mw.L1Misses)/float64(mesi.L1Misses)
	rec.check(mw.L1Misses*3 <= mesi.L1Misses,
		"paper shape: linear-regression MW misses %d not at most a third of MESI's %d", mw.L1Misses, mesi.L1Misses)
}

// reproGenSeconds re-times the repro grid's input generation, which
// happens inside each cell: once per workload, outside the grid and
// the profile, times the cells that build those inputs.
func reproGenSeconds(w workload, o options) (float64, error) {
	cores, scale := w.size(o.smoke)
	apps := protozoa.WorkloadNames()
	if o.smoke {
		apps = reproSmokeApps
	}
	var gen time.Duration
	for _, app := range apps {
		spec, err := workloads.Get(app)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		spec.StreamsSeeded(cores, scale, o.seed)
		gen += time.Since(t0) * time.Duration(len(protozoa.Protocols())+len(table1Blocks))
	}
	return gen.Seconds(), nil
}

// table1Blocks is the Table 1 block-size sweep (MESI at each size).
var table1Blocks = []int{16, 32, 64, 128}

// checkIdentities asserts the stats identities the repo's own tests
// pin: hits and misses partition the accesses, the four miss classes
// partition the misses, and the per-core rows sum to the totals.
func checkIdentities(rec *repRecord, label string, s *protozoa.Stats) {
	if s == nil {
		rec.check(false, "%s: no stats", label)
		return
	}
	rec.check(s.Accesses > 0, "%s: no accesses", label)
	rec.check(s.L1Hits+s.L1Misses == s.Accesses, "%s: hits %d + misses %d != accesses %d", label, s.L1Hits, s.L1Misses, s.Accesses)
	classes := s.MissesCold + s.MissesCapacity + s.MissesCoherence + s.MissesGranularity
	rec.check(classes == s.L1Misses, "%s: miss classes sum to %d, misses %d", label, classes, s.L1Misses)
	var acc, loads, stores, hits, misses, invals uint64
	for _, c := range s.PerCore {
		acc += c.Accesses
		loads += c.Loads
		stores += c.Stores
		hits += c.Hits
		misses += c.Misses
		invals += c.Invalidations
	}
	rec.check(acc == s.Accesses && loads == s.Loads && stores == s.Stores &&
		hits == s.L1Hits && misses == s.L1Misses && invals == s.Invalidations,
		"%s: per-core rows do not sum to the totals", label)
}

// digestJSON hashes a run's full stats JSON.
func digestJSON(rec *repRecord, s *protozoa.Stats) string {
	b, err := json.Marshal(s)
	rec.check(err == nil, "stats JSON: %v", err)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// addCounts fills the simulated-machine counters of the per-layer
// report, summed over the given runs.
func addCounts(layer map[string]float64, runs []*protozoa.Stats, events, highWater uint64) {
	var t protozoa.Stats
	for _, s := range runs {
		t.Accesses += s.Accesses
		t.L1Misses += s.L1Misses
		t.UpgradeMisses += s.UpgradeMisses
		t.MissLatencySum += s.MissLatencySum
		t.Invalidations += s.Invalidations
		t.ControlBytes[stats.ClassNACK] += s.ControlBytes[stats.ClassNACK]
		t.Messages += s.Messages
		t.Flits += s.Flits
		t.FlitHops += s.FlitHops
		t.Evictions += s.Evictions
		t.UsedDataBytes += s.UsedDataBytes
		t.UnusedDataBytes += s.UnusedDataBytes
		t.ZeroDelayHits += s.ZeroDelayHits
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	layer["core.l1.miss_rate"] = ratio(t.L1Misses, t.Accesses)
	layer["core.l1.upgrade_misses"] = float64(t.UpgradeMisses)
	layer["core.l1.miss_latency_cycles"] = ratio(t.MissLatencySum, t.L1Misses)
	layer["core.dir.invalidations"] = float64(t.Invalidations)
	layer["core.dir.nack_bytes"] = float64(t.ControlBytes[stats.ClassNACK])
	layer["engine.events"] = float64(events)
	layer["engine.events_per_access"] = ratio(events, t.Accesses)
	layer["engine.zero_delay_frac"] = ratio(t.ZeroDelayHits, events)
	layer["engine.queue_high_water"] = float64(highWater)
	layer["noc.messages_per_access"] = ratio(t.Messages, t.Accesses)
	layer["noc.flits_per_message"] = ratio(t.Flits, t.Messages)
	layer["noc.flit_hops"] = float64(t.FlitHops)
	layer["cache.evictions"] = float64(t.Evictions)
	layer["predictor.used_frac"] = ratio(t.UsedDataBytes, t.UsedDataBytes+t.UnusedDataBytes)
}

// peakRSSKB reads the process's peak resident set (VmHWM, in kB).
func peakRSSKB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
