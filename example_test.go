package protozoa_test

// Runnable godoc examples for the public API.

import (
	"fmt"

	"protozoa"
)

// ExampleRun simulates one built-in workload and reports whether the
// adaptive protocol moved less data than the baseline.
func ExampleRun() {
	opts := protozoa.Options{Cores: 4, Scale: 1}
	mesi, err := protozoa.Run("linear-regression", protozoa.MESI, opts)
	if err != nil {
		panic(err)
	}
	mw, err := protozoa.Run("linear-regression", protozoa.ProtozoaMW, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("MW moves less data:", mw.TrafficTotal() < mesi.TrafficTotal())
	fmt.Println("MW misses fewer:", mw.L1Misses < mesi.L1Misses)
	// Output:
	// MW moves less data: true
	// MW misses fewer: true
}

// ExampleNewSystem drives the simulator with a custom trace: one core
// writes a word, the other reads it after a barrier.
func ExampleNewSystem() {
	cfg := protozoa.DefaultSystemConfig(protozoa.ProtozoaMW)
	cfg.Cores = 2
	cfg.Noc.DimX, cfg.Noc.DimY = 2, 1
	recs := [][]protozoa.Access{
		{
			{Kind: protozoa.Store, Addr: 0x1000, PC: 0x4},
			{Kind: protozoa.Barrier},
		},
		{
			{Kind: protozoa.Barrier},
			{Kind: protozoa.Load, Addr: 0x1000, PC: 0x8},
		},
	}
	sys, err := protozoa.NewSystem(cfg, recs)
	if err != nil {
		panic(err)
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	st := sys.Stats()
	fmt.Println("accesses:", st.Accesses, "misses:", st.L1Misses)
	// Output:
	// accesses: 2 misses: 2
}

// ExampleWorkloads lists a few members of the built-in suite.
func ExampleWorkloads() {
	for _, w := range protozoa.Workloads()[:3] {
		fmt.Printf("%s (%s)\n", w.Name, w.Suite)
	}
	// Output:
	// apache (commercial)
	// barnes (SPLASH-2)
	// blackscholes (PARSEC)
}

// ExampleNewChecker verifies a run with the SWMR/golden-value oracle.
func ExampleNewChecker() {
	cfg := protozoa.DefaultSystemConfig(protozoa.ProtozoaMW)
	cfg.Cores = 2
	cfg.Noc.DimX, cfg.Noc.DimY = 2, 1
	recs := [][]protozoa.Access{
		{{Kind: protozoa.Store, Addr: 0x40, PC: 1}},
		{{Kind: protozoa.Store, Addr: 0x48, PC: 2}},
	}
	sys, err := protozoa.NewSystem(cfg, recs)
	if err != nil {
		panic(err)
	}
	chk := protozoa.NewChecker(sys)
	if err := sys.Run(); err != nil {
		panic(err)
	}
	fmt.Println("violations:", len(chk.Violations()))
	// Output:
	// violations: 0
}
