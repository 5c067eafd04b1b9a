package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"protozoa/internal/core"
	"protozoa/internal/runner"
	"protozoa/internal/workloads"
)

// verify runs the paper's random protocol tester (Section 3.6): seeded
// random access records drive the full machine while the checker
// validates the SWMR invariant at the protocol's granularity and
// golden-value integrity of every cached word and completed load. The
// selected protocols verify concurrently on internal/runner's pool;
// the report stays in protocol order.
//
//	protozoa verify                          # 1M accesses across the family
//	protozoa verify -protocol mw -accesses 250000 -seed 7
//	protozoa verify -threehop -bloom         # verify the extensions too
func verify(args []string) error {
	f := newFlags("verify").machine(0).grid(2013)
	proto := f.String("protocol", "all", "protocols to verify: mesi, sw, swmr, mw, all (comma-separated)")
	accesses := f.Int("accesses", 1_000_000, "total accesses across all selected protocols")
	regions := f.Int("regions", 16, "regions in the contended pool")
	storePct := f.Int("stores", 40, "store percentage")
	threeHop := f.Bool("threehop", false, "enable 3-hop forwarding")
	bloom := f.Bool("bloom", false, "use the bloom-filter directory")
	l2cap := f.Int("l2cap", 0, "L2 regions per tile (0 = unbounded)")
	if err := f.parse(args); err != nil {
		return err
	}
	ps, err := runner.ParseProtocols(*proto)
	if err != nil {
		return err
	}
	cores, seed := *f.cores, *f.seed
	perCore := *accesses / (len(ps) * cores)
	switch {
	case perCore < 1:
		return fmt.Errorf("-accesses %d leaves a core no access: %d protocol(s) x %d cores need at least %d",
			*accesses, len(ps), cores, len(ps)*cores)
	case *regions < 1:
		return fmt.Errorf("-regions must be at least 1 (got %d)", *regions)
	case *storePct < 0 || *storePct > 100:
		return fmt.Errorf("-stores is a percentage, 0..100 (got %d)", *storePct)
	}

	cells := make([]runner.Cell, len(ps))
	chks := make([]*core.Checker, len(ps))
	for i, p := range ps {
		cfg := core.DefaultConfig(p)
		cfg.ThreeHop = *threeHop
		cfg.L2RegionsPerTile = *l2cap
		if *bloom {
			cfg.Directory = core.DirBloom
		}
		if err := runner.ConfigureCores(&cfg, cores); err != nil {
			return err
		}
		cells[i] = runner.Cell{
			Label:    p.String(),
			Protocol: p,
			// The random records are fully determined by the seed and
			// the shape parameters, so they cache-key cleanly.
			Key: runner.CellSpec{
				Config: cfg,
				Seed:   seed,
				Extra: [][2]string{
					{"stream", "verify-random"},
					{"per-core", strconv.Itoa(perCore)},
					{"regions", strconv.Itoa(*regions)},
					{"stores", strconv.Itoa(*storePct)},
				},
				Extract: "checker-summary-v1",
			}.Key(),
			Build: func() (*core.System, error) {
				return core.NewSystem(cfg, workloads.RandomRecords(cores, perCore, *regions, *storePct, seed))
			},
			Observe: func(sys *core.System) { chks[i] = core.NewChecker(sys) },
			Extract: func(*core.System) ([]byte, error) { return json.Marshal(chks[i].Summary()) },
		}
	}

	pool, err := f.pool()
	if err != nil {
		return err
	}
	results, _ := pool.Run(cells)

	failed := 0
	for i, r := range results {
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, "protozoa verify:", r.Err)
			failed++
			continue
		}
		// The checker outcome travels in Result.Extra so a cached run
		// reports exactly what the original simulation did.
		var sum core.CheckerSummary
		if err := json.Unmarshal(r.Extra, &sum); err != nil {
			fmt.Fprintf(os.Stderr, "protozoa verify: %s: bad checker summary: %v\n", ps[i], err)
			failed++
			continue
		}
		status := "OK"
		if len(sum.Violations) > 0 {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%-15s %8d accesses  %8d loads checked  %8d quiescent scans  %s\n",
			ps[i], r.Stats.Accesses, sum.Loads, sum.Checks, status)
		for _, v := range sum.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d protocols failed", failed, len(ps))
	}
	return nil
}
