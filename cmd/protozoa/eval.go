package main

import (
	"errors"
	"fmt"
	"os"

	"protozoa"
	"protozoa/internal/harness"
	"protozoa/internal/mem"
	"protozoa/internal/profile"
	"protozoa/internal/workloads"
)

// figs regenerates the paper's evaluation figures (9-15, plus 16, the
// miss classification) by running the workload x protocol matrix once
// and rendering each figure's rows as a text table.
//
//	protozoa figs                 # all figures
//	protozoa figs -fig 13         # one figure
//	protozoa figs -workloads linear-regression,histogram -scale 4
func figs(args []string) error {
	f := newFlags("figs").matrix(2, "").profiles()
	fig := f.Int("fig", 0, "figure number 9-15, or 16 for the miss classification (0 = all)")
	csvOut := f.String("csv", "", "also export all metrics to this CSV file")
	chart := f.Bool("chart", false, "render bar charts instead of tables (figures 9, 13, 15)")
	return f.runMatrix(args, func(o protozoa.Options) error {
		if *fig != 0 && (*fig < 9 || *fig > 16) {
			return errors.New("-fig must be 9..16 (or 0 for all; 16 = miss classification)")
		}
		m, err := protozoa.Collect(o)
		if err != nil {
			return err
		}
		if *csvOut != "" {
			if err := writeTo(*csvOut, m.ExportCSV); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *csvOut)
		}
		renders := map[int]func() string{
			9:  m.Fig9Traffic,
			10: m.Fig10Control,
			11: m.Fig11Owners,
			12: m.Fig12BlockDist,
			13: m.Fig13MPKI,
			14: m.Fig14Exec,
			15: m.Fig15FlitHops,
			16: m.FigMissClass, // beyond the paper: cold/capacity/coherence/granularity
		}
		if *chart {
			renders[9] = m.ChartTraffic
			renders[13] = m.ChartMPKI
			renders[15] = m.ChartFlitHops
		}
		if *fig != 0 {
			fmt.Print(renders[*fig]())
			return nil
		}
		for n := 9; n <= 16; n++ {
			fmt.Print(renders[n]())
			fmt.Println()
		}
		return nil
	})
}

// table1 regenerates the paper's Table 1: conventional MESI behaviour
// (MPKI trend, invalidation trend, optimal size, used-data fraction) as
// the fixed block size sweeps 16 -> 32 -> 64 -> 128 bytes.
//
//	protozoa table1 [-cores 16] [-scale 2] [-workloads a,b,c]
func table1(args []string) error {
	return newFlags("table1").matrix(2, "").profiles().runMatrix(args, func(o protozoa.Options) error {
		res, err := protozoa.CollectTable1(o)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
}

// report reproduces the paper's entire evaluation in one command —
// verification, the Section 2 profile, Table 1, Figures 9-15, and the
// headline geomeans — as a self-contained markdown document on stdout.
//
//	protozoa report > report.md
//	protozoa report -scale 4 -workloads linear-regression,histogram
func report(args []string) error {
	return newFlags("report").matrix(2, "").profiles().runMatrix(args, func(o protozoa.Options) error {
		return harness.GenerateReport(o, os.Stdout)
	})
}

// profileCmd prints the Section 2 motivation analysis for the workload
// suite: per-region sharing classification (private / read-only /
// false-shared / true-shared) and the spatial footprint — the
// application-intrinsic properties that make fixed-granularity
// hierarchies waste bandwidth and ping-pong falsely shared lines.
//
//	protozoa profile                      # the whole suite, summary table
//	protozoa profile -workload h2         # one workload, full report
func profileCmd(args []string) error {
	f := newFlags("profile").machine(1)
	one := f.String("workload", "", "profile a single workload in detail")
	if err := f.parse(args); err != nil {
		return err
	}
	if *one != "" {
		spec, err := workloads.Get(*one)
		if err != nil {
			return err
		}
		fmt.Print(profile.Analyze(spec.Records(*f.cores, *f.scale, 0), mem.DefaultGeometry).Render(*one))
		return nil
	}
	fmt.Print(profile.SummaryHeader())
	for _, spec := range workloads.All() {
		fmt.Print(profile.Analyze(spec.Records(*f.cores, *f.scale, 0), mem.DefaultGeometry).SummaryRow(spec.Name))
	}
	return nil
}
