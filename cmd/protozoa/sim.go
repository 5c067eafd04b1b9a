package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"protozoa/internal/core"
	"protozoa/internal/engine"
	"protozoa/internal/harness"
	"protozoa/internal/obs"
	"protozoa/internal/runner"
	"protozoa/internal/workloads"
)

// simOpts holds sim's own flags.
type simOpts struct {
	workload, flightOut, traceOut, metricsOut, serve string
	selfProfOut                                      string
	msglog, flightCap, stallCycles, timeline         int
	traceCap                                         int
	attrib, selfProf, json                           bool
}

// sim runs one workload of the built-in suite under one coherence
// protocol and prints the full measurement report, or with -json the
// raw stats alone.
//
//	protozoa sim [-workload linear-regression] [-protocol mw] [-cores 16] [-scale 2]
//	protozoa sim -list
func sim(args []string) (err error) {
	f := newFlags("sim").machine(2).profiles()
	var o simOpts
	f.StringVar(&o.workload, "workload", "linear-regression", "workload name (-list to enumerate)")
	proto := f.String("protocol", "mw", "coherence protocol: mesi, sw, swmr, mw")
	list := f.Bool("list", false, "list the workload suite and exit")
	f.IntVar(&o.msglog, "msglog", 0, "dump the last N coherence messages after the run")
	f.StringVar(&o.flightOut, "flight", "", "record a protocol flight log (every message, state transition, and directory step) and write it to this file for protozoa inspect")
	f.IntVar(&o.flightCap, "flight-cap", 0, "flight recorder capacity in records (0 = default 32Ki; oldest records drop on wrap)")
	f.IntVar(&o.stallCycles, "stall-cycles", 0, "arm the stall watchdog: dump any transaction outstanding longer than N cycles to stderr")
	f.BoolVar(&o.json, "json", false, "emit the raw stats as JSON instead of the report; stdout holds nothing else")
	f.IntVar(&o.timeline, "timeline", 0, "sample the run every N cycles and print per-window rates")
	f.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	f.IntVar(&o.traceCap, "trace-cap", 0, "flight records kept for the Chrome trace; the ring is shared with -flight and -msglog and sized for the largest request (0 = default 4Mi)")
	f.StringVar(&o.metricsOut, "metrics-out", "", "write the sampled metrics registry as JSON to this file")
	f.BoolVar(&o.attrib, "attrib", false, "print the traffic-attribution report (utilization, sharing patterns, top offenders)")
	f.StringVar(&o.serve, "serve", "", "serve live Prometheus metrics at this address (e.g. 127.0.0.1:8080) for the run's duration")
	f.BoolVar(&o.selfProf, "self-prof", false, "profile the simulator itself (event total, wall time, queue introspection); summary to stderr, results unchanged")
	f.StringVar(&o.selfProfOut, "self-prof-out", "", "write the self-profile report as JSON to this file (implies -self-prof)")
	if err := f.parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Printf("%-24s %-18s %-11s %s\n", "name", "models", "suite", "signature")
		for _, w := range append(workloads.All(), workloads.Micros()...) {
			fmt.Printf("%-24s %-18s %-11s %s\n", w.Name, w.Models, w.Suite, w.About)
		}
		return nil
	}
	if o.json {
		// These views append text to the report on stdout.
		for _, v := range []struct {
			flag string
			set  bool
		}{
			{"timeline", o.timeline > 0}, {"msglog", o.msglog > 0}, {"attrib", o.attrib},
			{"flight", o.flightOut != ""}, {"stall-cycles", o.stallCycles > 0},
		} {
			if v.set {
				return fmt.Errorf("-%s appends text to stdout, which -json keeps for the stats alone", v.flag)
			}
		}
	}
	p, err := runner.ParseProtocol(*proto)
	if err != nil {
		return err
	}
	stop, err := f.startProfiles()
	if err != nil {
		return err
	}
	defer stop(&err)
	o.selfProf = o.selfProf || o.selfProfOut != ""
	return runSim(p, f, o)
}

// runSim builds the machine protozoa.Run simulates, enables the views
// o asks for, runs it and writes every requested output.
func runSim(p core.Protocol, f *flags, o simOpts) error {
	sys, err := harness.NewSystem(o.workload, p, harness.Options{Cores: *f.cores, Scale: *f.scale})
	if err != nil {
		return err
	}
	if o.msglog > 0 {
		sys.EnableMessageLog(o.msglog)
	}
	if o.timeline > 0 {
		sys.EnableTimeline(engine.Cycle(o.timeline))
	}
	if o.traceOut != "" {
		sys.EnableEventTrace(o.traceCap)
	}
	if o.metricsOut != "" {
		sys.EnableMetrics()
	}
	if o.attrib {
		sys.EnableAttribution()
	}
	if o.selfProf {
		sys.EnableSelfProf()
	}
	if o.flightOut != "" {
		sys.EnableFlightRecorder(o.flightCap)
	}
	if o.stallCycles > 0 {
		// Watchdog dumps stream to stderr so stdout stays byte-identical
		// with the flag off.
		sys.EnableStallWatchdog(engine.Cycle(o.stallCycles), os.Stderr)
	}
	if o.serve != "" {
		// The endpoint exposes the attribution gauges, so arm the
		// tracker alongside the registry.
		sys.EnableAttribution()
		reg := sys.EnableMetrics()
		live, err := obs.NewLiveServer(o.serve, reg.Descs())
		if err != nil {
			return err
		}
		// Announce before Run so a watcher can connect while the
		// simulation is still going.
		fmt.Fprintf(os.Stderr, "protozoa sim: serving live metrics at http://%s/metrics\n", live.Addr())
		sys.SetSampleHook(func(cycle uint64) { live.Publish(cycle, reg.Eval()) })
		defer func() {
			if cerr := live.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "protozoa sim: metrics server:", cerr)
			}
		}()
		defer func() {
			// Final snapshot so late scrapes see the completed run.
			live.Publish(sys.Stats().ExecCycles, reg.Eval())
		}()
	}
	if err := sys.Run(); err != nil {
		return fmt.Errorf("%s/%s: %w", o.workload, p, err)
	}
	if o.traceOut != "" {
		if err := writeTo(o.traceOut, sys.WriteChromeTrace); err != nil {
			return err
		}
	}
	if o.metricsOut != "" {
		if err := writeTo(o.metricsOut, sys.Metrics().WriteJSON); err != nil {
			return err
		}
	}
	if o.selfProf {
		report := sys.SelfProf().Report()
		// The summary goes to stderr so the measurement report on
		// stdout stays byte-identical with the flag off.
		report.WriteSummary(os.Stderr)
		if o.selfProfOut != "" {
			if err := writeTo(o.selfProfOut, report.WriteJSON); err != nil {
				return err
			}
		}
	}
	if o.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sys.Stats())
	}
	fmt.Print(harness.RenderStats(o.workload, p, sys.Stats()))
	if o.timeline > 0 {
		fmt.Printf("\ntimeline (%d-cycle windows):\n", o.timeline)
		fmt.Printf("  %10s %10s %10s %12s\n", "cycle", "accesses", "misses", "traffic(B)")
		var prev core.TimelineSample
		for _, s := range sys.Timeline() {
			fmt.Printf("  %10d %10d %10d %12d\n",
				s.Cycle, s.Accesses-prev.Accesses, s.Misses-prev.Misses, s.Traffic-prev.Traffic)
			prev = s
		}
	}
	if o.msglog > 0 {
		fmt.Printf("\nlast %d coherence messages:\n", o.msglog)
		for _, e := range sys.MessageLog() {
			fmt.Println(" ", e)
		}
	}
	if o.attrib {
		fmt.Printf("\n%s", harness.RenderAttribution(sys.Attribution(), 10))
	}
	if o.flightOut != "" {
		if err := writeTo(o.flightOut, sys.WriteFlightLog); err != nil {
			return err
		}
		fmt.Printf("\nflight recorder: %d records kept, %d dropped -> %s\n",
			sys.FlightRecorder().Len(), sys.FlightDropped(), o.flightOut)
	}
	if o.stallCycles > 0 {
		fmt.Printf("\nstall watchdog: %d transaction(s) exceeded %d cycles\n",
			len(sys.Stalls()), o.stallCycles)
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
