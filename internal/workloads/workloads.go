// Package workloads provides the benchmark suite: twenty-eight
// deterministic synthetic workloads — one per application of the
// paper's SPLASH-2 / PARSEC / Phoenix / DaCapo / commercial / parkd
// suite — each reproducing the sharing and spatial-locality signature
// the paper reports for its namesake (Table 1 and Section 4). They
// replace the Pin-traced real binaries of the paper's methodology:
// Protozoa's results depend only on the access records' locality and
// sharing granularity, which these generators control directly.
//
// Every generator is a pure function of (cores, scale, workload name):
// two runs produce byte-identical records, so experiments are exactly
// reproducible. Records relies on it to size each input before filling
// it.
package workloads

import (
	"fmt"
	"sort"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
)

// Spec describes one workload.
type Spec struct {
	Name   string // short name used in figures (paper's label)
	Models string // the paper application it reproduces
	Suite  string // paper benchmark suite
	About  string // one-line sharing/locality signature

	gen func(b *builder)
}

// Names returns all workload names in the order the paper's figures
// list them (alphabetical).
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get looks up a workload by name, covering both the paper suite and
// the micro-benchmarks.
func Get(name string) (Spec, error) {
	if s, ok := registry[name]; ok {
		return s, nil
	}
	if s, ok := microRegistry[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("workloads: unknown workload %q (have %v and micros %v)", name, Names(), MicroNames())
}

// MustGet is Get for known-good names.
func MustGet(name string) Spec {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}

// All returns every workload spec, alphabetically.
func All() []Spec {
	var out []Spec
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// StreamsSeeded is Records under its older name, kept because
// perfbench calls it.
func (s Spec) StreamsSeeded(cores, scale int, seed uint64) [][]trace.Access {
	return s.Records(cores, scale, seed)
}

// Records generates the per-core access records: element c is core c's
// whole trace. scale multiplies the iteration counts (scale 1 is a
// quick run, the harness uses larger scales for figures). seed
// randomizes the trace: the same sharing/locality signature, a
// different concrete access sequence; seed 0 is the canonical trace,
// and sweeping seeds gives run-to-run robustness intervals for the
// figures. Machines only read their records, so callers that build
// several machines from one input (the sweep grid) share the result;
// nothing writes the records after Records returns.
//
// The generator runs twice through one builder: a count pass that only
// tallies each core's records, then a fill pass that appends them into
// exact-capacity sub-slices of one slab, so no core's slice ever
// regrows. Element c is slab[off:off+n:off+n], capped so that an append
// by a caller copies instead of running into core c+1's records.
func (s Spec) Records(cores, scale int, seed uint64) [][]trace.Access {
	if scale < 1 {
		scale = 1
	}
	b := &builder{cores: cores, scale: scale, seed: seed, counts: make([]int, cores)}
	s.gen(b)
	total := 0
	for _, n := range b.counts {
		total += n
	}
	slab := make([]trace.Access, total)
	b.recs = make([][]trace.Access, cores)
	off := 0
	for c, n := range b.counts {
		b.recs[c] = slab[off : off : off+n]
		off += n
	}
	s.gen(b)
	for c, n := range b.counts {
		if len(b.recs[c]) != n {
			panic(fmt.Sprintf("workloads: %s core %d: fill pass made %d records, count pass %d (the generator is not a pure function of the builder)",
				s.Name, c, len(b.recs[c]), n))
		}
	}
	return b.recs
}

// RandomRecords is the random tester's input (Section 3.6): accesses
// records per core, each a load or (storePct percent of the time) a
// store to a random word of the first regions 64-byte regions, from one
// of eight PCs. A small region pool makes the cores collide constantly.
// Core c draws from its own generator, seeded seed*1000+c.
func RandomRecords(cores, accesses, regions, storePct int, seed uint64) [][]trace.Access {
	out := make([][]trace.Access, cores)
	for c := range out {
		rng := trace.NewRNG(seed*1000 + uint64(c))
		recs := make([]trace.Access, 0, accesses)
		for i := 0; i < accesses; i++ {
			addr := mem.Addr(rng.Intn(regions)*64 + rng.Intn(8)*8)
			kind := trace.Load
			if rng.Intn(100) < storePct {
				kind = trace.Store
			}
			recs = append(recs, trace.Access{Kind: kind, Addr: addr, PC: uint32(0x400 + rng.Intn(8)*4)})
		}
		out[c] = recs
	}
	return out
}

// builder collects per-core records with per-site PCs. While recs is
// nil it is in its count pass and add only tallies counts; once
// Records hands it the slab, add appends.
type builder struct {
	cores  int
	scale  int
	seed   uint64
	counts []int
	recs   [][]trace.Access
}

// rng derives a deterministic generator from the workload-specific
// salt, the core, and the trace seed (seed 0 reproduces the canonical
// records bit for bit).
func (b *builder) rng(salt, core int) *trace.RNG {
	return trace.NewRNG(uint64(salt+core) + b.seed*0x9E3779B9)
}

// add records one access for core: every record a generator produces
// goes through here.
func (b *builder) add(core int, a trace.Access) {
	if b.recs == nil {
		b.counts[core]++
		return
	}
	b.recs[core] = append(b.recs[core], a)
}

func (b *builder) load(core int, addr mem.Addr, pc uint32, think uint16) {
	b.add(core, trace.Access{Kind: trace.Load, Addr: addr, PC: pc, Think: think})
}

func (b *builder) store(core int, addr mem.Addr, pc uint32, think uint16) {
	b.add(core, trace.Access{Kind: trace.Store, Addr: addr, PC: pc, Think: think})
}

// rmw records an atomic read-modify-write.
func (b *builder) rmw(core int, addr mem.Addr, pc uint32, think uint16) {
	b.add(core, trace.Access{Kind: trace.RMW, Addr: addr, PC: pc, Think: think})
}

// barrier synchronizes every core.
func (b *builder) barrier() {
	for c := 0; c < b.cores; c++ {
		b.add(c, trace.Access{Kind: trace.Barrier})
	}
}

// word returns the byte address of word w of a structure at base.
func word(base mem.Addr, w int) mem.Addr { return base + mem.Addr(w*8) }

// Address-space bases: each logical data structure gets its own arena.
const (
	arena0 mem.Addr = 0x0010_0000
	arena1 mem.Addr = 0x0100_0000
	arena2 mem.Addr = 0x0200_0000
	arena3 mem.Addr = 0x0300_0000
)

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workloads: duplicate " + s.Name)
	}
	registry[s.Name] = s
}

func init() {
	register(Spec{
		Name: "linear-regression", Models: "linear_regression", Suite: "Phoenix",
		About: "adjacent per-thread accumulators: pure false sharing, tiny working set",
		gen:   genLinearRegression,
	})
	register(Spec{
		Name: "histogram", Models: "histogram", Suite: "Phoenix",
		About: "streaming read-only input + fine-grain shared RW bins",
		gen:   genHistogram,
	})
	register(Spec{
		Name: "string-match", Models: "string_match", Suite: "Phoenix",
		About: "extreme fine-grain multi-writer sharing of interleaved flags",
		gen:   genStringMatch,
	})
	register(Spec{
		Name: "matrix-multiply", Models: "matrix_multiply", Suite: "Phoenix",
		About: "embarrassingly parallel, full spatial locality (~99% used)",
		gen:   genMatrixMultiply,
	})
	register(Spec{
		Name: "word-count", Models: "word_count", Suite: "Phoenix",
		About: "private streaming with high spatial locality",
		gen:   genWordCount,
	})
	register(Spec{
		Name: "kmeans", Models: "kmeans", Suite: "Phoenix",
		About: "read-only shared centroids + fine-grain shared accumulators",
		gen:   genKmeans,
	})
	register(Spec{
		Name: "blackscholes", Models: "blackscholes", Suite: "PARSEC",
		About: "sparse fields of private records: 1-2 useful words per block",
		gen:   genBlackscholes,
	})
	register(Spec{
		Name: "bodytrack", Models: "bodytrack", Suite: "PARSEC",
		About: "irregular single-word reads over a large array (~21% used)",
		gen:   genBodytrack,
	})
	register(Spec{
		Name: "canneal", Models: "canneal", Suite: "PARSEC",
		About: "pointer chasing with random swaps: lowest used-data fraction",
		gen:   genCanneal,
	})
	register(Spec{
		Name: "raytrace", Models: "raytrace", Suite: "PARSEC",
		About: "read-only scene + single-producer/single-consumer tiles",
		gen:   genRaytrace,
	})
	register(Spec{
		Name: "streamcluster", Models: "streamcluster", Suite: "PARSEC",
		About: "shared read-only points streamed by all + fine-grain RW assignments",
		gen:   genStreamcluster,
	})
	register(Spec{
		Name: "fluidanimate", Models: "fluidanimate", Suite: "PARSEC",
		About: "partitioned grid with false-shared partition borders",
		gen:   genFluidanimate,
	})
	register(Spec{
		Name: "barnes", Models: "barnes", Suite: "SPLASH-2",
		About: "fine-grain read-write sharing of tree bodies",
		gen:   genBarnes,
	})
	register(Spec{
		Name: "fft", Models: "fft", Suite: "SPLASH-2",
		About: "blocked streaming plus strided transpose phase",
		gen:   genFFT,
	})
	register(Spec{
		Name: "swaptions", Models: "swaptions", Suite: "PARSEC",
		About: "read-only, high locality, tiny working set: very low miss rate",
		gen:   genSwaptions,
	})
	register(Spec{
		Name: "apache", Models: "apache", Suite: "commercial",
		About: "irregular sharing with unpredictable access granularity",
		gen:   genApache,
	})
}

// --- generators -----------------------------------------------------------

// genLinearRegression is the Figure 1 pathology. Each thread owns a
// 6-word (48-byte) accumulator struct (SX, SY, SXX, SYY, SXY plus a
// count) and the structs pack contiguously, as in Phoenix. The layout
// reproduces the paper's Table 1 row exactly: 16-byte blocks never
// straddle a thread boundary (no false sharing), 32-byte blocks
// straddle odd boundaries (misses jump), and 64/128-byte blocks pack
// pieces of two or more threads' structs into every block (pure false
// sharing). Word-granularity coherence (Protozoa-MW) removes the
// sharing entirely. A small private input chunk streams alongside.
func genLinearRegression(b *builder) {
	iters := 150 * b.scale
	const accWords = 6     // thread struct size in words (48 bytes)
	const inputWords = 512 // 4 KB per-thread input chunk, fits the L1
	for c := 0; c < b.cores; c++ {
		accBase := word(arena0, c*accWords)
		inBase := arena1 + mem.Addr(c)*0x40000
		for i := 0; i < iters; i++ {
			b.load(c, word(inBase, i%inputWords), 0x1000, 2)
			for f := 0; f < accWords; f++ {
				fa := accBase + mem.Addr(f*8)
				b.load(c, fa, uint32(0x1010+f*0x20), 1)
				b.store(c, fa, uint32(0x1018+f*0x20), 1)
			}
		}
	}
}

// genHistogram streams a private input partition with perfect spatial
// locality and scatters increments over a shared bin array. Each core
// processes its own image chunk, so it mostly hits its own bin subset;
// the subsets interleave word-by-word across the bin array, making the
// sharing almost entirely false sharing (the paper's histogram drops
// 71% of its misses under Protozoa-MW) with a small true-sharing tail.
func genHistogram(b *builder) {
	iters := 500 * b.scale
	const binGroups = 16 // bins = binGroups * cores words
	for c := 0; c < b.cores; c++ {
		rng := b.rng(1700, c)
		inBase := arena1 + mem.Addr(c)*0x40000
		for i := 0; i < iters; i++ {
			b.load(c, word(inBase, i), 0x2000, 2) // sequential stream
			// Mostly this core's interleaved bins; rarely a collision.
			bin := rng.Intn(binGroups)*b.cores + c
			if rng.Intn(100) < 5 {
				bin = rng.Intn(binGroups * b.cores)
			}
			ba := word(arena0, bin)
			b.load(c, ba, 0x2010, 1)
			b.store(c, ba, 0x2020, 1)
		}
	}
}

// genStringMatch interleaves per-match flag writes word-by-word across
// cores: >90% of owned directory entries see multiple owners, the
// paper's extreme fine-grain sharing case.
func genStringMatch(b *builder) {
	iters := 500 * b.scale
	const keyWords = 1024
	for c := 0; c < b.cores; c++ {
		keyBase := arena1 + mem.Addr(c)*0x40000
		for i := 0; i < iters; i++ {
			b.load(c, word(keyBase, i%keyWords), 0x3000, 2)
			// Flag slot i*cores+c: adjacent words belong to different
			// cores, so every flag region is multi-writer.
			flag := word(arena0, (i*b.cores+c)%(64*b.cores))
			b.store(c, flag, 0x3010, 1)
		}
	}
}

// genMatrixMultiply walks private row/column panels sequentially and
// writes a private output partition: no sharing, maximal locality.
func genMatrixMultiply(b *builder) {
	iters := 700 * b.scale
	for c := 0; c < b.cores; c++ {
		aBase := arena1 + mem.Addr(c)*0x80000
		bBase := arena2 + mem.Addr(c)*0x80000
		cBase := arena3 + mem.Addr(c)*0x80000
		for i := 0; i < iters; i++ {
			b.load(c, word(aBase, i), 0x4000, 1)
			b.load(c, word(bBase, i), 0x4010, 1)
			if i%4 == 3 {
				b.store(c, word(cBase, i/4), 0x4020, 2)
			}
		}
	}
}

// genWordCount streams a private partition and updates a small private
// table with good locality.
func genWordCount(b *builder) {
	iters := 700 * b.scale
	const tableWords = 128
	for c := 0; c < b.cores; c++ {
		rng := b.rng(4200, c)
		inBase := arena1 + mem.Addr(c)*0x80000
		tbl := arena2 + mem.Addr(c)*0x10000
		for i := 0; i < iters; i++ {
			b.load(c, word(inBase, i), 0x5000, 1)
			if i%3 == 0 {
				slot := rng.Intn(tableWords/8) * 8 // region-aligned clusters
				b.load(c, word(tbl, slot), 0x5010, 1)
				b.store(c, word(tbl, slot), 0x5020, 1)
			}
		}
	}
}

// genKmeans alternates a read phase over shared read-only centroids
// (high locality, read by everyone) with an update phase into shared
// per-cluster accumulators (fine-grain RW), separated by barriers.
func genKmeans(b *builder) {
	rounds := 12 * b.scale
	const k = 16 // clusters, centroid = 8 words = 1 region
	const pointsPerRound = 24
	for r := 0; r < rounds; r++ {
		for c := 0; c < b.cores; c++ {
			rng := b.rng(r*100, c)
			ptBase := arena1 + mem.Addr(c)*0x80000
			for p := 0; p < pointsPerRound; p++ {
				// A point is 4 contiguous feature words.
				for f := 0; f < 4; f++ {
					b.load(c, word(ptBase, (r*pointsPerRound+p)*4+f), 0x6000, 1)
				}
				// Compare against two centroids' features: contiguous
				// walks over full read-only regions (high locality).
				for _, cl := range []int{p % k, (p + 7) % k} {
					for f := 0; f < 8; f += 2 {
						b.load(c, word(arena0, cl*8+f), 0x6010, 1)
					}
				}
				// Accumulate locally, as map-reduce kmeans does; the
				// merge is the barrier phase below.
				cl := rng.Intn(k)
				acc := word(arena2+mem.Addr(c)*0x1000, cl)
				b.load(c, acc, 0x6020, 1)
				b.store(c, acc, 0x6030, 1)
			}
		}
		b.barrier()
	}
}

// genBlackscholes repeatedly prices a private option array (PARSEC
// loops NUM_RUNS times over all options), touching two sparse fields
// of each 64-byte record: the classic 1-2-useful-words pattern
// (optimal block 16 B) in the capacity regime where the records
// overflow a fixed-granularity L1 but the useful fields fit Amoeba.
func genBlackscholes(b *builder) {
	passes := 3 * b.scale
	const options = 1400 // 64 B each: 87 KB footprint per core
	for c := 0; c < b.cores; c++ {
		base := arena1 + mem.Addr(c)*0x100000
		out := arena2 + mem.Addr(c)*0x100000
		for pass := 0; pass < passes; pass++ {
			for i := 0; i < options; i++ {
				rec := base + mem.Addr(i*64)
				b.load(c, rec, 0x7000, 2)    // field 0
				b.load(c, rec+40, 0x7010, 2) // field 5
				b.store(c, out+mem.Addr(i%64*64), 0x7020, 1)
			}
		}
	}
}

// genBodytrack reads one hot field word per 64-byte record, hopping
// randomly over a private record pool whose region footprint exceeds
// the fixed-granularity L1 but whose useful words fit an Amoeba L1:
// poor spatial locality, ~1/8 used data, and the capacity gap that
// gives Protozoa its miss-rate win on the paper's high-MPKI apps.
func genBodytrack(b *builder) {
	iters := 4000 * b.scale
	const records = 1400 // 64 B each: 87 KB footprint vs 64 KB fixed L1
	for c := 0; c < b.cores; c++ {
		rng := b.rng(8800, c)
		base := arena1 + mem.Addr(c)*0x200000
		for i := 0; i < iters; i++ {
			rec := rng.Intn(records)
			b.load(c, word(base, rec*8+rec%3), 0x8000, 2)
			if i%16 == 15 {
				b.store(c, word(arena2+mem.Addr(c)*0x1000, rng.Intn(64)), 0x8010, 1)
			}
		}
	}
}

// genCanneal chases pointers through a netlist of 64-byte elements,
// reading one header word per hop. Each core hops mostly within its
// own hot partition — too many regions for a fixed-granularity L1,
// comfortably cacheable at word granularity — with a cold tail over
// the whole shared netlist and occasional swap writes: the paper's
// lowest used-data application.
func genCanneal(b *builder) {
	iters := 4000 * b.scale
	const hotElems = 1400  // per-core hot partition (87 KB of regions)
	const allElems = 32768 // whole shared netlist (2 MB, covers all partitions)
	for c := 0; c < b.cores; c++ {
		rng := b.rng(9900, c)
		hotBase := c * hotElems
		for i := 0; i < iters; i++ {
			var el int
			if rng.Intn(100) < 90 {
				el = hotBase + rng.Intn(hotElems)
			} else {
				el = rng.Intn(allElems)
			}
			b.load(c, word(arena1, el*8), 0x9000, 2)
			if i%8 == 7 {
				// Swap: write the headers of two random hot elements.
				b.store(c, word(arena1, (hotBase+rng.Intn(hotElems))*8), 0x9010, 1)
				b.store(c, word(arena1, rng.Intn(allElems)*8), 0x9020, 1)
			}
		}
	}
}

// genRaytrace mixes medium-locality read-only scene traversal with a
// single-producer/single-consumer tile queue: most owned directory
// entries have exactly one owner.
func genRaytrace(b *builder) {
	iters := 4000 * b.scale
	// Scene nodes are 64-byte records of which a bounce reads the
	// 3-word header: too many regions for a fixed-granularity L1, but
	// the headers fit an Amoeba L1 (the capacity regime where the paper
	// reports Protozoa-SW's miss-rate win).
	const sceneNodes = 1500
	for c := 0; c < b.cores; c++ {
		rng := b.rng(3100, c)
		for i := 0; i < iters; i++ {
			n := rng.Intn(sceneNodes) * 8
			b.load(c, word(arena1, n), 0xA000, 1)
			b.load(c, word(arena1, n+1), 0xA010, 1)
			b.load(c, word(arena1, n+2), 0xA020, 1)
			// Producer: each core writes its own tile slot; consumer
			// core 0 polls them.
			if c != 0 {
				b.store(c, word(arena0, c*8+(i%8)), 0xA030, 2)
			} else {
				src := 1 + rng.Intn(maxInt(b.cores-1, 1))
				b.load(c, word(arena0, src*8+(i%8)), 0xA040, 2)
			}
		}
	}
}

// genStreamcluster streams one shared read-only point set through all
// cores (read sharing, high locality) and updates fine-grain shared
// assignment words.
func genStreamcluster(b *builder) {
	iters := 600 * b.scale
	const ptWords = 1 << 13
	for c := 0; c < b.cores; c++ {
		rng := b.rng(5600, c)
		for i := 0; i < iters; i++ {
			// All cores stream the same shared points (offset start).
			b.load(c, word(arena1, (i+c*64)%ptWords), 0xB000, 1)
			if i%4 == 3 {
				// Assignment slots interleave across cores word-by-word:
				// false sharing with a small true-sharing tail.
				slot := rng.Intn(16)*b.cores + c
				if rng.Intn(100) < 5 {
					slot = rng.Intn(16 * b.cores)
				}
				a := word(arena0, slot)
				b.load(c, a, 0xB010, 1)
				b.store(c, a, 0xB020, 1)
			}
		}
	}
}

// genFluidanimate updates a partitioned grid: interior cells are
// private with good locality; cells at partition borders are written
// by one core and read by its neighbour, and borders of adjacent
// partitions share regions (read-write false sharing).
func genFluidanimate(b *builder) {
	rounds := 6 * b.scale
	const cellsPerCore = 64 // words of interior per core per round
	for r := 0; r < rounds; r++ {
		for c := 0; c < b.cores; c++ {
			interior := arena1 + mem.Addr(c)*0x40000
			for i := 0; i < cellsPerCore; i++ {
				b.load(c, word(interior, (r*cellsPerCore+i)%2048), 0xC000, 1)
				b.store(c, word(interior, (r*cellsPerCore+i)%2048), 0xC010, 1)
			}
			// Border: core c owns words [c*4, c*4+4) of the shared border
			// array; it writes its own and reads its neighbour's — border
			// slots of adjacent cores share a region.
			for i := 0; i < 4; i++ {
				b.store(c, word(arena0, c*4+i), 0xC020, 1)
				nb := (c + 1) % b.cores
				b.load(c, word(arena0, nb*4+i), 0xC030, 1)
			}
		}
		b.barrier()
	}
}

// genBarnes reads random 4-word bodies from a shared tree and writes
// back its own subset: mixed fine-grain read-write sharing.
func genBarnes(b *builder) {
	iters := 500 * b.scale
	const bodies = 1024 // 4 words each
	for c := 0; c < b.cores; c++ {
		rng := b.rng(6400, c)
		for i := 0; i < iters; i++ {
			bd := rng.Intn(bodies)
			b.load(c, word(arena1, bd*4), 0xD000, 1)
			b.load(c, word(arena1, bd*4+1), 0xD010, 1)
			// Update bodies this core owns (bd % cores == c).
			own := (rng.Intn(bodies/b.cores))*b.cores + c
			b.load(c, word(arena1, own*4+2), 0xD020, 1)
			b.store(c, word(arena1, own*4+2), 0xD030, 1)
		}
	}
}

// genFFT alternates a sequential butterfly phase over a private
// partition with a strided transpose phase that touches one word per
// region.
func genFFT(b *builder) {
	rounds := 3 * b.scale
	const rowWords = 256
	for r := 0; r < rounds; r++ {
		for c := 0; c < b.cores; c++ {
			base := arena1 + mem.Addr(c)*0x100000
			// Butterfly: sequential read-modify-write.
			for i := 0; i < rowWords; i++ {
				b.load(c, word(base, i), 0xE000, 1)
				b.store(c, word(base, i), 0xE010, 1)
			}
			// Transpose: stride of one region (8 words): poor locality.
			for i := 0; i < rowWords/4; i++ {
				b.load(c, word(base, 2048+i*8), 0xE020, 1)
			}
		}
		b.barrier()
	}
}

// genSwaptions re-reads a tiny private working set with high locality:
// nearly everything hits after warm-up.
func genSwaptions(b *builder) {
	iters := 900 * b.scale
	const wsWords = 512 // 4 KB per core
	for c := 0; c < b.cores; c++ {
		base := arena1 + mem.Addr(c)*0x10000
		for i := 0; i < iters; i++ {
			b.load(c, word(base, (i*3)%wsWords), 0xF000, 2)
			b.load(c, word(base, (i*3+1)%wsWords), 0xF010, 1)
		}
	}
}

// genApache issues irregular accesses with random extents at a handful
// of PCs over shared request structures: the predictor cannot settle,
// reproducing the paper's "unpredictable access pattern" residual
// unused data.
func genApache(b *builder) {
	iters := 900 * b.scale
	// Shared pool of request objects, one per region, touched through
	// three handler paths with jittering extents: the footprint
	// overflows every L1, only part of each region is ever useful, the
	// predictor can never settle exactly, and the 25%-store tail keeps
	// coherence churning (the paper's apache keeps ~15% unused data
	// and gains no execution time under Protozoa).
	const objects = 3000
	paths := []struct {
		pc     uint32
		extent int
	}{{0x1100, 2}, {0x1110, 4}, {0x1120, 5}}
	for c := 0; c < b.cores; c++ {
		rng := b.rng(7300, c)
		for i := 0; i < iters; i++ {
			o := rng.Intn(objects)
			p := paths[o%len(paths)]
			extent := p.extent + rng.Intn(3) - 1
			if extent < 1 {
				extent = 1
			}
			start := o*8 + o%3 // object's fields within its region
			for w := 0; w < extent; w++ {
				b.load(c, word(arena1, start+w), p.pc, 1)
			}
			if rng.Intn(100) < 25 {
				b.store(c, word(arena1, start), 0x1140, 1)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
