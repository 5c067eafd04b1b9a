// protozoa-sim runs one workload of the built-in suite under one
// coherence protocol and prints the full measurement report.
//
// Usage:
//
//	protozoa-sim [-workload linear-regression] [-protocol mw] [-cores 16] [-scale 2]
//	protozoa-sim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"protozoa"
	"protozoa/internal/core"
	"protozoa/internal/engine"
	"protozoa/internal/harness"
	"protozoa/internal/obs"
	"protozoa/internal/runner"
	"protozoa/internal/workloads"
)

func parseProtocol(s string) (protozoa.Protocol, error) {
	switch strings.ToLower(s) {
	case "mesi":
		return protozoa.MESI, nil
	case "sw", "protozoa-sw":
		return protozoa.ProtozoaSW, nil
	case "swmr", "sw+mr", "protozoa-sw+mr":
		return protozoa.ProtozoaSWMR, nil
	case "mw", "protozoa-mw":
		return protozoa.ProtozoaMW, nil
	}
	return 0, fmt.Errorf("unknown protocol %q (mesi, sw, swmr, mw)", s)
}

func main() {
	workload := flag.String("workload", "linear-regression", "workload name (-list to enumerate)")
	proto := flag.String("protocol", "mw", "coherence protocol: mesi, sw, swmr, mw")
	cores := flag.Int("cores", 16, "number of cores (1, 2, 4, or 16)")
	scale := flag.Int("scale", 2, "workload iteration multiplier")
	workers := flag.Int("workers", 0, "parallel window-loop goroutines (0 = sequential engine; results are byte-identical for any value >= 1)")
	list := flag.Bool("list", false, "list the workload suite and exit")
	msglog := flag.Int("msglog", 0, "dump the last N coherence messages after the run")
	flightOut := flag.String("flight", "", "record a protocol flight log (every message, state transition, and directory step) and write it to this file for protozoa-inspect")
	flightCap := flag.Int("flight-cap", 0, "flight recorder capacity in records (0 = default 32Ki; oldest records drop on wrap)")
	stallCycles := flag.Int("stall-cycles", 0, "arm the stall watchdog: dump any transaction outstanding longer than N cycles to stderr")
	jsonOut := flag.Bool("json", false, "emit the raw stats as JSON instead of the report")
	timeline := flag.Int("timeline", 0, "sample the run every N cycles and print per-window rates")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	traceCap := flag.Int("trace-cap", 0, "flight records kept for the Chrome trace; the ring is shared with -flight and -msglog and sized for the largest request (0 = default 4Mi)")
	metricsOut := flag.String("metrics-out", "", "write the sampled metrics registry as JSON to this file")
	attribOut := flag.Bool("attrib", false, "print the traffic-attribution report (utilization, sharing patterns, top offenders)")
	serve := flag.String("serve", "", "serve live Prometheus metrics at this address (e.g. 127.0.0.1:8080) for the run's duration")
	selfProf := flag.Bool("self-prof", false, "profile the simulator itself (PDES rounds, queue introspection); summary to stderr, results unchanged")
	selfProfOut := flag.String("self-prof-out", "", "write the self-profile report as JSON to this file (implies -self-prof)")
	selfProfTrace := flag.String("self-prof-trace", "", "write the self-profile's wall-clock round spans as Chrome trace JSON to this file (implies -self-prof)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	version := flag.Bool("version", false, "print build provenance (result-cache schema and code stamp) and exit")
	flag.Parse()

	if *version {
		fmt.Println(runner.VersionString())
		return
	}
	if *list {
		fmt.Printf("%-24s %-18s %-11s %s\n", "name", "models", "suite", "signature")
		for _, w := range protozoa.Workloads() {
			fmt.Printf("%-24s %-18s %-11s %s\n", w.Name, w.Models, w.Suite, w.About)
		}
		for _, w := range workloads.Micros() {
			fmt.Printf("%-24s %-18s %-11s %s\n", w.Name, w.Models, w.Suite, w.About)
		}
		return
	}

	p, err := parseProtocol(*proto)
	if err != nil {
		fmt.Fprintln(os.Stderr, "protozoa-sim:", err)
		os.Exit(1)
	}
	stopProfiles, err := runner.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "protozoa-sim:", err)
		os.Exit(1)
	}
	doSelfProf := *selfProf || *selfProfOut != "" || *selfProfTrace != ""
	if *msglog > 0 || *timeline > 0 || *traceOut != "" || *metricsOut != "" || *attribOut || *serve != "" || doSelfProf || *flightOut != "" || *stallCycles > 0 {
		err := runInstrumented(*workload, p, *cores, *scale, *workers, *msglog, *timeline, instrumentOut{
			traceOut: *traceOut, traceCap: *traceCap, metricsOut: *metricsOut,
			attrib: *attribOut, serve: *serve,
			selfProf: doSelfProf, selfProfOut: *selfProfOut, selfProfTrace: *selfProfTrace,
			flightOut: *flightOut, flightCap: *flightCap, stallCycles: *stallCycles,
		})
		if perr := stopProfiles(); err == nil {
			err = perr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "protozoa-sim:", err)
			os.Exit(1)
		}
		return
	}
	st, err := protozoa.Run(*workload, p, protozoa.Options{Cores: *cores, Scale: *scale, Workers: *workers})
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "protozoa-sim:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fmt.Fprintln(os.Stderr, "protozoa-sim:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(harness.RenderStats(*workload, core.Protocol(p), st))
}

// instrumentOut carries the observability output destinations.
type instrumentOut struct {
	traceOut      string
	traceCap      int
	metricsOut    string
	attrib        bool
	serve         string
	selfProf      bool
	selfProfOut   string
	selfProfTrace string
	flightOut     string
	flightCap     int
	stallCycles   int
}

// runInstrumented builds the system directly so protocol transcripts,
// timelines, event traces, and metrics can be captured and dumped.
func runInstrumented(workload string, p protozoa.Protocol, cores, scale, workers, msglog, timeline int, out instrumentOut) error {
	spec, err := workloads.Get(workload)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(core.Protocol(p))
	cfg.Workers = workers
	if err := runner.ConfigureCores(&cfg, cores); err != nil {
		return err
	}
	sys, err := core.NewSystem(cfg, spec.Streams(cores, scale))
	if err != nil {
		return err
	}
	if msglog > 0 {
		sys.EnableMessageLog(msglog)
	}
	if timeline > 0 {
		sys.EnableTimeline(engine.Cycle(timeline))
	}
	if out.traceOut != "" {
		sys.EnableEventTrace(out.traceCap)
	}
	if out.metricsOut != "" {
		sys.EnableMetrics()
	}
	if out.attrib {
		sys.EnableAttribution()
	}
	if out.selfProf {
		sys.EnableSelfProf()
	}
	if out.flightOut != "" {
		sys.EnableFlightRecorder(out.flightCap)
	}
	if out.stallCycles > 0 {
		// Watchdog dumps stream to stderr so stdout stays byte-identical
		// across worker counts (and with the flag off).
		sys.EnableStallWatchdog(engine.Cycle(out.stallCycles), os.Stderr)
	}
	if out.serve != "" {
		// The endpoint exposes the attribution gauges, so arm the
		// tracker alongside the registry.
		sys.EnableAttribution()
		reg := sys.EnableMetrics()
		live, err := obs.NewLiveServer(out.serve, reg.Descs())
		if err != nil {
			return err
		}
		// Announce before Run so a watcher can connect while the
		// simulation is still going.
		fmt.Fprintf(os.Stderr, "protozoa-sim: serving live metrics at http://%s/metrics\n", live.Addr())
		sys.SetSampleHook(func(cycle uint64) { live.Publish(cycle, reg.Eval()) })
		defer func() {
			if cerr := live.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "protozoa-sim: metrics server:", cerr)
			}
		}()
		defer func() {
			// Final snapshot so late scrapes see the completed run.
			live.Publish(sys.Stats().ExecCycles, reg.Eval())
		}()
	}
	if err := sys.Run(); err != nil {
		return err
	}
	if out.traceOut != "" {
		if err := writeTo(out.traceOut, sys.WriteChromeTrace); err != nil {
			return err
		}
	}
	if out.metricsOut != "" {
		if err := writeTo(out.metricsOut, sys.Metrics().WriteJSON); err != nil {
			return err
		}
	}
	if out.selfProf {
		report := sys.SelfProf().Report()
		// The summary goes to stderr so the measurement report on
		// stdout stays byte-identical with the flag off.
		report.WriteSummary(os.Stderr)
		if out.selfProfOut != "" {
			if err := writeTo(out.selfProfOut, report.WriteJSON); err != nil {
				return err
			}
		}
		if out.selfProfTrace != "" {
			// The meta-trace is wall-clock simulator time; it never mixes
			// into the simulated machine's -trace-out file.
			if err := writeTo(out.selfProfTrace, sys.SelfProf().WriteChromeTrace); err != nil {
				return err
			}
		}
	}
	fmt.Print(harness.RenderStats(workload, core.Protocol(p), sys.Stats()))
	if timeline > 0 {
		fmt.Printf("\ntimeline (%d-cycle windows):\n", timeline)
		fmt.Printf("  %10s %10s %10s %12s\n", "cycle", "accesses", "misses", "traffic(B)")
		var prev core.TimelineSample
		for _, s := range sys.Timeline() {
			fmt.Printf("  %10d %10d %10d %12d\n",
				s.Cycle, s.Accesses-prev.Accesses, s.Misses-prev.Misses, s.Traffic-prev.Traffic)
			prev = s
		}
	}
	if msglog > 0 {
		fmt.Printf("\nlast %d coherence messages:\n", msglog)
		for _, e := range sys.MessageLog() {
			fmt.Println(" ", e)
		}
	}
	if out.attrib {
		fmt.Printf("\n%s", harness.RenderAttribution(sys.Attribution(), 10))
	}
	if out.flightOut != "" {
		if err := writeTo(out.flightOut, sys.WriteFlightLog); err != nil {
			return err
		}
		fmt.Printf("\nflight recorder: %d records kept, %d dropped -> %s\n",
			sys.FlightRecorder().Len(), sys.FlightDropped(), out.flightOut)
	}
	if out.stallCycles > 0 {
		fmt.Printf("\nstall watchdog: %d transaction(s) exceeded %d cycles\n",
			len(sys.Stalls()), out.stallCycles)
	}
	return nil
}

// writeTo streams a dump function into a freshly created file.
func writeTo(path string, dump func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
