// falsesharing reconstructs the paper's Figure 1 by hand: the OpenMP
// counter program where every thread increments its own word of one
// cache line. It drives the simulator with custom traces through the
// public API and shows how each member of the protocol family treats
// the line — MESI ping-pongs it, Protozoa-SW moves single words but
// still invalidates the whole region, and Protozoa-MW lets all the
// writers coexist.
package main

import (
	"fmt"
	"log"

	"protozoa"
)

// counterRecords builds the Figure 1 program: Item[core]++ in a loop.
func counterRecords(cores, iters int) [][]protozoa.Access {
	perCore := make([][]protozoa.Access, cores)
	for c := range perCore {
		var recs []protozoa.Access
		addr := protozoa.Addr(0x1000 + c*8) // Item[c]: adjacent words, one region
		for i := 0; i < iters; i++ {
			recs = append(recs, protozoa.Access{Kind: protozoa.Load, Addr: addr, PC: 0x400, Think: 2})
			recs = append(recs, protozoa.Access{Kind: protozoa.Store, Addr: addr, PC: 0x408, Think: 1})
		}
		perCore[c] = recs
	}
	return perCore
}

func main() {
	const cores, iters = 8, 500
	counterRegion := protozoa.RegionOf(0x1000)
	fmt.Printf("Figure 1: %d threads increment adjacent words of one cache line, %d times each\n\n", cores, iters)
	fmt.Printf("%-15s %9s %9s %13s %12s %11s %8s %13s\n",
		"protocol", "misses", "invals", "traffic(KB)", "flit-hops", "cycles", "util", "counter-line")

	for _, p := range protozoa.Protocols() {
		cfg := protozoa.DefaultSystemConfig(p)
		cfg.Cores = cores
		cfg.Noc.DimX, cfg.Noc.DimY = 4, 2
		sys, err := protozoa.NewSystem(cfg, counterRecords(cores, iters))
		if err != nil {
			log.Fatal(err)
		}
		tr := sys.EnableAttribution()
		if err := sys.Run(); err != nil {
			log.Fatal(err)
		}
		st := sys.Stats()
		pattern := tr.PatternOf(counterRegion)
		fmt.Printf("%-15s %9d %9d %13.1f %12d %11d %7.1f%% %13s\n",
			p, st.L1Misses, st.Invalidations,
			float64(st.TrafficTotal())/1024, st.FlitHops, st.ExecCycles,
			tr.UtilPct(), pattern)

		// The attribution layer must see what the paper's Figure 1
		// describes: region-granularity coherence false-shares the
		// counter line, word-granularity coherence partitions it.
		if p == protozoa.MESI && pattern != protozoa.PatternFalseShared {
			log.Fatalf("MESI classified the counter line %v, want false-shared", pattern)
		}
		if p == protozoa.ProtozoaMW && pattern == protozoa.PatternFalseShared {
			log.Fatalf("Protozoa-MW classified the counter line false-shared; its disjoint writers should coexist")
		}
	}

	fmt.Printf("\nMESI and Protozoa-SW ping-pong the line (SW just moves 8-byte words\n")
	fmt.Printf("instead of 64-byte blocks); Protozoa-SW+MR still allows only one\n")
	fmt.Printf("writer at a time; Protozoa-MW caches the disjoint words for writing\n")
	fmt.Printf("concurrently, so after one cold miss per core the traffic stops.\n")
	fmt.Printf("The util/counter-line columns are the attribution layer's view:\n")
	fmt.Printf("the region is false-shared until the protocol reaches word\n")
	fmt.Printf("granularity, where it becomes partitioned and utilization jumps.\n")
}
