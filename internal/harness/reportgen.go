package harness

import (
	"fmt"
	"io"

	"protozoa/internal/core"
	"protozoa/internal/mem"
	"protozoa/internal/profile"
	"protozoa/internal/runner"
	"protozoa/internal/stats"
	"protozoa/internal/trace"
)

// GenerateReport reproduces the paper's full evaluation in one pass
// and writes it as a self-contained markdown document: the Section 2
// motivation profile, Table 1, Figures 9-15, the headline geomeans,
// and a random-tester verification of every protocol. This is the
// one-command reproduction artifact behind `protozoa report`.
//
// Every simulation runs in one pool run, and each once: the random
// tester, then each workload's observed figure cells beside its Table
// 1 cells at the other block sizes. Table 1's 64-byte column is the
// figures' MESI cell.
func GenerateReport(o Options, w io.Writer) error {
	o.Cores = o.cores()
	g, err := newGrid(o)
	if err != nil {
		return err
	}
	// The tester cells take longest, so they start first.
	chks := make([]*core.Checker, len(core.AllProtocols))
	for i, p := range core.AllProtocols {
		cfg, _ := o.config(p, figureRegion) // newGrid checked the core count
		g.cells = append(g.cells, testerCell(cfg, &chks[i]))
	}
	for _, spec := range g.specs {
		g.addFigures(spec, true)
		g.addTable1(spec, []int{16, 32, 128})
	}
	done, err := g.run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "# Protozoa reproduction report\n\n")
	fmt.Fprintf(w, "Configuration: %d cores, workload scale %d, %d workloads.\n\n",
		o.Cores, o.Scale, len(g.specs))

	// Correctness first: the Section 3.6 random tester.
	fmt.Fprintf(w, "## Protocol verification (random tester)\n\n```\n")
	for i, p := range core.AllProtocols {
		if err := chks[i].Err(); err != nil {
			return fmt.Errorf("harness: tester %s: %w", p, err)
		}
		fmt.Fprintf(w, "%-15s %7d loads checked, %7d quiescent scans: OK\n", p, chks[i].Loads, chks[i].Checks)
	}
	fmt.Fprintf(w, "```\n\n")

	// Section 2 motivation.
	fmt.Fprintf(w, "## Section 2: sharing and locality profile\n\n```\n")
	fmt.Fprint(w, profile.SummaryHeader())
	profiles := make(map[string]*profile.Report)
	for _, spec := range g.specs {
		r := profile.Analyze(spec.Records(o.Cores, o.Scale, o.TraceSeed), mem.DefaultGeometry)
		profiles[spec.Name] = r
		fmt.Fprint(w, r.SummaryRow(spec.Name))
	}
	fmt.Fprintf(w, "```\n\n")

	fmt.Fprintf(w, "## Table 1: MESI vs fixed block size\n\n```\n%s```\n\n", g.table1(done).Render())

	// The protocol matrix and every figure, with the attribution and
	// latency views the sections below read.
	m := g.matrix(done, true)
	figs := []struct {
		title  string
		render func() string
	}{
		{"Figure 9: traffic breakdown", m.Fig9Traffic},
		{"Figure 10: control breakdown", m.Fig10Control},
		{"Figure 11: directory owner mix", m.Fig11Owners},
		{"Figure 12: block-size distribution", m.Fig12BlockDist},
		{"Figure 13: miss rate", m.Fig13MPKI},
		{"Figure 14: execution time", m.Fig14Exec},
		{"Figure 15: interconnect energy", m.Fig15FlitHops},
		{"Miss classification (beyond the paper)", m.FigMissClass},
	}
	for _, f := range figs {
		fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", f.title, f.render())
	}

	// Observability: where the miss cycles go, per protocol. The phase
	// averages tile the miss interval, so phase-sum equals avg-lat.
	fmt.Fprintf(w, "## Miss-latency phase decomposition (avg cycles/miss)\n\n```\n%s```\n\n",
		m.PhaseDecomposition())

	// Attribution: who caused the traffic. The summary shows the
	// adaptive protocols converting MESI's wasted fetches into
	// utilization; the offender table names the regions behind what
	// waste remains under the MESI baseline.
	fmt.Fprintf(w, "## Traffic attribution: utilization and sharing patterns\n\n```\n%s```\n\n",
		m.AttributionSummary())
	// Both views classify with attrib's one classifier and the L1s see
	// exactly the trace's accesses, so this reads 0 mismatches.
	pairs, bad := 0, 0
	for _, name := range m.Workloads {
		for _, p := range m.Protocols {
			pairs += profiles[name].Regions
			bad += profiles[name].Mismatches(m.Attribs[name][p])
		}
	}
	fmt.Fprintf(w, "Section 2 profile vs attribution: %d region x protocol pairs compared, %d mismatches.\n\n",
		pairs, bad)
	fmt.Fprintf(w, "### Fill utilization by workload\n\n```\n%s```\n\n", m.UtilizationTable())
	fmt.Fprintf(w, "### Top offender regions (MESI)\n\n```\n%s```\n\n",
		m.TopOffendersTable(core.MESI, 10))

	// Headline summary.
	fmt.Fprintf(w, "## Headline geomeans vs MESI\n\n")
	fmt.Fprintf(w, "| metric | SW | SW+MR | MW |\n|---|---|---|---|\n")
	row := func(name string, metric func(*stats.Stats) float64) {
		fmt.Fprintf(w, "| %s |", name)
		for _, p := range []core.Protocol{core.ProtozoaSW, core.ProtozoaSWMR, core.ProtozoaMW} {
			fmt.Fprintf(w, " %+.0f%% |", 100*(m.GeoMeanRatio(p, metric)-1))
		}
		fmt.Fprintf(w, "\n")
	}
	row("traffic", TrafficBytes)
	row("misses", func(s *stats.Stats) float64 { return float64(s.L1Misses) })
	row("flit-hops", FlitHops)
	row("execution time", ExecCycles)
	return nil
}

// testerCell is the random tester on machine cfg: a seeded random
// stress over a small shared footprint, with the checker that Observe
// attaches (stored in *chk) validating every load and quiescent state.
// Its records are its own, so it has no cache key and always simulates.
func testerCell(cfg core.Config, chk **core.Checker) runner.Cell {
	return runner.Cell{
		Label:    "tester " + cfg.Protocol.String(),
		Protocol: cfg.Protocol,
		Build:    func() (*core.System, error) { return core.NewSystem(cfg, testerRecords(cfg.Cores)) },
		Observe:  func(sys *core.System) { *chk = core.NewChecker(sys) },
	}
}

// testerRecords draws the tester's 1000 accesses per core.
func testerRecords(cores int) [][]trace.Access {
	perCore := make([][]trace.Access, cores)
	for c := range perCore {
		rng := trace.NewRNG(uint64(4242 + c))
		recs := make([]trace.Access, 0, 1000)
		for i := 0; i < 1000; i++ {
			kind := trace.Load
			switch r := rng.Intn(100); {
			case r < 30:
				kind = trace.Store
			case r < 40:
				kind = trace.RMW
			}
			recs = append(recs, trace.Access{
				Kind: kind,
				Addr: mem.Addr(rng.Intn(12)*64 + rng.Intn(8)*8),
				PC:   uint32(0x400 + rng.Intn(8)*4),
			})
		}
		perCore[c] = recs
	}
	return perCore
}
