package main

import (
	"errors"
	"fmt"
	"os"

	"protozoa/internal/core"
	"protozoa/internal/harness"
	"protozoa/internal/runner"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// traceCmd captures built-in workloads as trace files (the equivalent
// of the paper's Pin-generated traces), inspects them, and replays them
// through the simulator.
//
//	protozoa trace -dump -workload canneal -o canneal.pztr
//	protozoa trace -info canneal.pztr
//	protozoa trace -run canneal.pztr -protocol mw
func traceCmd(args []string) error {
	f := newFlags("trace").machine(2)
	dump := f.Bool("dump", false, "capture a workload to a trace file (at -cores and -scale)")
	workload := f.String("workload", "linear-regression", "workload to capture (with -dump)")
	out := f.String("o", "trace.pztr", "output path (with -dump)")
	info := f.String("info", "", "print a trace file's summary")
	run := f.String("run", "", "replay a trace file through the simulator")
	proto := f.String("protocol", "mw", "protocol for -run: mesi, sw, swmr, mw")
	if err := f.parse(args); err != nil {
		return err
	}
	switch {
	case *dump:
		return dumpTrace(*workload, *out, *f.cores, *f.scale)
	case *info != "":
		return traceInfo(*info)
	case *run != "":
		return replayTrace(*run, *proto)
	}
	return errors.New("one of -dump, -info, or -run is required")
}

func dumpTrace(workload, out string, cores, scale int) error {
	spec, err := workloads.Get(workload)
	if err != nil {
		return err
	}
	perCore := spec.Records(cores, scale, 0)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteTraces(f, perCore); err != nil {
		return err
	}
	total := 0
	for _, r := range perCore {
		total += len(r)
	}
	fmt.Printf("wrote %s: %d cores, %d records\n", out, len(perCore), total)
	return f.Close()
}

func traceInfo(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	perCore, err := trace.ReadTraces(f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d cores\n", path, len(perCore))
	for c, recs := range perCore {
		var n [trace.RMW + 1]int // records per trace.Kind
		for _, a := range recs {
			n[a.Kind]++
		}
		fmt.Printf("  core %2d: %7d records (%d loads, %d stores, %d rmws, %d barriers)\n",
			c, len(recs), n[trace.Load], n[trace.Store], n[trace.RMW], n[trace.Barrier])
	}
	return nil
}

func replayTrace(path, proto string) error {
	p, err := runner.ParseProtocol(proto)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	perCore, err := trace.ReadTraces(f)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(p)
	if err := runner.ConfigureCores(&cfg, len(perCore)); err != nil {
		return fmt.Errorf("trace has %d cores: %w", len(perCore), err)
	}
	sys, err := core.NewSystem(cfg, perCore)
	if err != nil {
		return err
	}
	if err := sys.Run(); err != nil {
		return err
	}
	fmt.Print(harness.RenderStats(path, p, sys.Stats()))
	return nil
}
