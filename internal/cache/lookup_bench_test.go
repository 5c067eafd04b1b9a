package cache

import (
	"math/rand/v2"
	"testing"

	"protozoa/internal/mem"
)

// lookupProbe is one reference the benchmark looks up.
type lookupProbe struct {
	region mem.RegionID
	w      uint8
}

// l1Filled returns a Table 4 L1 (256 sets x 288 B) filled the way an
// L1 controller fills it on misses, plus a probe stream drawn from the
// same references. Each reference is a random word of a region drawn
// from a quarter more regions than the cache holds whole, so the probes
// mix hits and misses over every set. On a miss the controller
// inserts the fill: the whole region for MESI, and for Protozoa-MW a
// predicted range of 1-8 words around the missing word, trimmed so it
// does not overlap the region's resident blocks (blocks do not merge,
// as in the default configuration).
func l1Filled(wholeRegion bool) (*Cache, []lookupProbe) {
	cfg := DefaultL1Config()
	c := MustNew(cfg)
	g := cfg.Geom
	words := uint8(g.RegionBytes / mem.WordBytes)
	rng := rand.New(rand.NewPCG(1, 2))
	regions := 5 * cfg.Sets * (cfg.SetBudgetBytes / (cfg.TagBytes + g.RegionBytes)) / 4
	ref := func() lookupProbe {
		return lookupProbe{mem.RegionID(rng.IntN(regions)), uint8(rng.IntN(int(words)))}
	}
	for i := 0; i < 16*regions; i++ {
		p := ref()
		if c.Peek(p.region, p.w) != nil {
			continue
		}
		r := g.FullRange()
		if !wholeRegion {
			start := int(p.w) - rng.IntN(4)
			end := int(p.w) + rng.IntN(4)
			r = mem.Range{Start: uint8(max(start, 0)), End: uint8(min(end, int(words)-1))}
			r = c.TrimFill(p.region, r, p.w)
		}
		c.Insert(Block{Region: p.region, R: r, State: Shared})
	}
	probes := make([]lookupProbe, 4096)
	for i := range probes {
		probes[i] = ref()
	}
	return c, probes
}

// BenchmarkCacheLookup times the L1 lookup every reference makes, over
// sets filled the way MESI (four 64 B ways) and Protozoa-MW
// (variable-granularity blocks) fill them, probing every set with a
// mix of hits and misses. hit_frac reports the mix.
func BenchmarkCacheLookup(b *testing.B) {
	for _, bc := range []struct {
		name  string
		whole bool
	}{{"mesi", true}, {"protozoa-mw", false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			c, probes := l1Filled(bc.whole)
			if err := c.CheckInvariants(); err != nil {
				b.Fatal(err)
			}
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := probes[i%len(probes)]
				if sinkBlock = c.Lookup(p.region, p.w); sinkBlock != nil {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit_frac")
		})
	}
}
