// extensions demonstrates the Section 6 design alternatives on one
// contended workload: 3-hop direct forwarding, the TL-style bloom
// directory, Amoeba block merging, and the non-inclusive L2, each
// compared against the paper's baseline configuration.
package main

import (
	"fmt"
	"log"

	"protozoa"
	"protozoa/internal/core"
	"protozoa/internal/workloads"
)

func run(name string, mutate func(*protozoa.SystemConfig)) {
	cfg := protozoa.DefaultSystemConfig(protozoa.ProtozoaMW)
	mutate(&cfg)
	spec, err := workloads.Get("barnes")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, spec.Records(cfg.Cores, 1, 0))
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("%-22s %9d %12d %12d %9d %9d\n",
		name, st.L1Misses, st.TrafficTotal(), st.ExecCycles,
		st.DirectForwards, st.ControlBytes[4]) // NACK bytes
}

func main() {
	fmt.Println("barnes under Protozoa-MW, 16 cores, one configuration knob at a time")
	fmt.Printf("%-22s %9s %12s %12s %9s %9s\n",
		"config", "misses", "traffic(B)", "cycles", "3hop-fwd", "NACK(B)")
	run("baseline (Table 4)", func(*protozoa.SystemConfig) {})
	run("3-hop forwarding", func(c *protozoa.SystemConfig) { c.ThreeHop = true })
	run("bloom directory", func(c *protozoa.SystemConfig) {
		c.Directory = protozoa.DirBloom
		c.BloomHashes = 2
		c.BloomBuckets = 16 // small on purpose: show the aliasing cost
	})
	run("block merging", func(c *protozoa.SystemConfig) { c.MergeL1Blocks = true })
	run("non-inclusive L2", func(c *protozoa.SystemConfig) { c.NonInclusiveL2 = true })
	run("finite L2 (8/tile)", func(c *protozoa.SystemConfig) { c.L2RegionsPerTile = 8 })

	fmt.Println()
	fmt.Println("3-hop trades a little directory bookkeeping for lower miss latency;")
	fmt.Println("an undersized bloom directory stays correct but pays NACKed probes;")
	fmt.Println("the non-inclusive L2 re-fetches dropped words from memory; a finite")
	fmt.Println("L2 adds recall invalidations. Every variant runs under the same")
	fmt.Println("SWMR/golden-value checker (protozoa verify).")
}
