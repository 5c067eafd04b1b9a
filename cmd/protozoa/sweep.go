package main

import (
	"fmt"
	"os"
	"strings"

	"protozoa/internal/core"
	"protozoa/internal/obs"
	"protozoa/internal/obs/selfprof"
	"protozoa/internal/resultcache"
	"protozoa/internal/runner"
)

// sweep runs a grid of configurations — protocols x workloads x design
// knobs x region sizes — and emits one CSV row per cell: the generic
// engine behind the ablation studies. The grid fans out over
// internal/runner's worker pool; output is byte-identical at any -jobs
// setting, and a failing cell is reported on stderr while every
// completed cell's row is still written.
//
//	protozoa sweep -workloads histogram,barnes -protocols mesi,mw
//	protozoa sweep -knobs threehop,bloom -protocols mw -workloads barnes
//	protozoa sweep -regions 32,64,128 -protocols mw -jobs 8 -progress
func sweep(args []string) (err error) {
	f := newFlags("sweep").matrix(1, "linear-regression,histogram").profiles()
	protos := f.String("protocols", "all", "comma-separated protocols (mesi, sw, swmr, mw, all)")
	knobs := f.String("knobs", "baseline", "comma-separated design knobs: "+strings.Join(runner.KnobNames(), ", "))
	regions := f.String("regions", "64", "comma-separated RMAX region sizes")
	serve := f.String("serve", "", "serve live sweep-progress metrics at this address (e.g. 127.0.0.1:8080) for the grid's duration")
	selfProf := f.Bool("self-prof", false, "profile the simulator across the grid; aggregate summary to stderr, CSV unchanged (cached cells contribute nothing)")
	if err := f.parse(args); err != nil {
		return err
	}
	stop, err := f.startProfiles()
	if err != nil {
		return err
	}
	defer stop(&err)

	ps, err := runner.ParseProtocols(*protos)
	if err != nil {
		return err
	}
	regionSizes, err := runner.ParseRegions(*regions)
	if err != nil {
		return err
	}
	knobList, err := runner.ParseKnobs(*knobs)
	if err != nil {
		return err
	}
	cells, err := runner.Grid{
		Workloads: f.workloadList(),
		Protocols: ps,
		Knobs:     knobList,
		Regions:   regionSizes,
		Cores:     *f.cores,
		Scale:     *f.scale,
		TraceSeed: *f.seed,
	}.Cells()
	if err != nil {
		return err
	}

	var profc *selfprof.Collector
	if *selfProf {
		// Self-profiling is invisible to the result cache: cached cells
		// never run AfterRun, so the rollup covers simulated work only
		// and the CSV stays byte-identical either way.
		profc = &selfprof.Collector{}
		for i := range cells {
			cells[i].Observe = func(sys *core.System) { sys.EnableSelfProf() }
			cells[i].AfterRun = func(sys *core.System) { profc.Add(sys.SelfProf().Report()) }
		}
	}

	pool, err := f.pool()
	if err != nil {
		return err
	}
	if *serve != "" {
		live, err := newSweepLive(*serve, len(cells), pool.Cache)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "protozoa sweep: serving live metrics at http://%s/metrics\n", live.srv.Addr())
		pool.OnResult = live.observe
		defer func() {
			if err := live.srv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "protozoa sweep: metrics server:", err)
			}
		}()
	}
	results, sum := pool.Run(cells)

	// Completed rows always reach stdout, even when other cells failed.
	if err := runner.WriteCSV(os.Stdout, results); err != nil {
		return err
	}
	if profc != nil {
		profc.WriteSummary(os.Stderr)
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, "protozoa sweep:", r.Err)
		}
	}
	if sum.Failed > 0 {
		return fmt.Errorf("%d of %d cells failed; completed rows were still written", sum.Failed, sum.Cells)
	}
	return nil
}

// sweepLive aggregates completed cells into a live endpoint. observe
// runs under the pool's result mutex, so the plain counters need no
// extra locking; every update publishes a fresh snapshot.
type sweepLive struct {
	srv   *obs.LiveServer
	total uint64
	cache *resultcache.Cache // nil when the pool runs uncached

	done, failed, cached, events, simCycles    uint64
	fetched, used, wasted, invals, falseShared uint64
}

var sweepLiveDescs = []obs.MetricDesc{
	{Name: "sweep_cells_total", Help: "cells in the grid"},
	{Name: "sweep_cells_done", Help: "cells completed (ok or failed)"},
	{Name: "sweep_cells_failed", Help: "cells that returned an error"},
	{Name: "sweep_cells_cached", Help: "cells answered from the result cache without simulating"},
	{Name: "sweep_events_total", Help: "engine events across completed cells"},
	{Name: "sweep_sim_cycles_total", Help: "simulated cycles across completed cells"},
	{Name: "cache_hits", Help: "result-cache lookup hits"},
	{Name: "cache_misses", Help: "result-cache lookup misses"},
	{Name: "cache_bytes_read", Help: "payload bytes read from the result-cache directory"},
	{Name: "cache_bytes_written", Help: "payload bytes written to the result-cache directory"},
	{Name: "attrib_fetched_words", Help: "words fetched into L1s across completed cells"},
	{Name: "attrib_used_words", Help: "fetched words used across completed cells"},
	{Name: "attrib_wasted_bytes", Help: "bytes fetched but never used across completed cells"},
	{Name: "attrib_invalidations", Help: "invalidation events across completed cells"},
	{Name: "attrib_false_shared_regions", Help: "regions classified false-shared across completed cells"},
}

func newSweepLive(addr string, total int, cache *resultcache.Cache) (*sweepLive, error) {
	srv, err := obs.NewLiveServer(addr, sweepLiveDescs)
	if err != nil {
		return nil, err
	}
	l := &sweepLive{srv: srv, total: uint64(total), cache: cache}
	l.publish()
	return l, nil
}

func (l *sweepLive) observe(r runner.Result) {
	l.done++
	if r.Err != nil {
		l.failed++
	}
	if r.Cached {
		l.cached++
	}
	l.events += r.Events
	if r.Stats != nil {
		l.simCycles += r.Stats.ExecCycles
	}
	if tr := r.Attrib; tr != nil {
		l.fetched += tr.FetchedWords
		l.used += tr.UsedWords
		l.wasted += tr.WastedBytes()
		l.invals += tr.Invalidations
		l.falseShared += tr.FalseSharedRegions()
	}
	l.publish()
}

func (l *sweepLive) publish() {
	var cc resultcache.Counters
	if l.cache != nil {
		cc = l.cache.Counters()
	}
	l.srv.Publish(l.simCycles, []float64{
		float64(l.total), float64(l.done), float64(l.failed), float64(l.cached),
		float64(l.events), float64(l.simCycles),
		float64(cc.Hits), float64(cc.Misses),
		float64(cc.BytesRead), float64(cc.BytesWritten),
		float64(l.fetched), float64(l.used), float64(l.wasted),
		float64(l.invals), float64(l.falseShared),
	})
}
