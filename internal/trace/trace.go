// Package trace defines the memory-reference records the simulated
// cores execute. It replaces the paper's Pin-based trace front end:
// instead of tracing real binaries, workload generators produce
// deterministic per-core record slices of loads, stores, and barriers
// that reproduce the sharing and spatial-locality signatures of the
// paper's benchmark suite (see internal/workloads). A machine replays
// element c of a [][]Access on core c and never writes it, so any
// number of machines may share one input.
package trace

import "protozoa/internal/mem"

// Kind classifies a trace record.
type Kind uint8

const (
	// Load is a memory read of one word.
	Load Kind = iota
	// Store is a memory write of one word.
	Store
	// Barrier makes the core wait until every core reaches the same
	// barrier before continuing (models pthread/OpenMP barriers).
	Barrier
	// RMW is an atomic read-modify-write (fetch-and-increment): the
	// core reads the word and writes back old+1 under one write
	// permission acquisition — the primitive behind the locks and
	// atomic counters in the paper's pthreads/OpenMP workloads.
	RMW
)

// Writes reports whether the record writes memory: a Store or an RMW,
// the references the CPU model counts as stores (stats.Stores).
func (k Kind) Writes() bool { return k == Store || k == RMW }

// Access is one record of a core's instruction stream: Think non-memory
// instructions followed by one memory reference (or a barrier). The
// fields are ordered widest first so the record packs into 16 bytes:
// 15 of data and one of padding. A 32-bit PC covers every static
// instruction address the generators emit; ReadTraces rejects a trace
// file that names a larger one.
type Access struct {
	Addr  mem.Addr // byte address of the referenced word (Load/Store)
	PC    uint32   // static instruction address, feeds the predictor
	Think uint16   // non-memory instructions retired before this record
	Kind  Kind
}

// RNG is a splitmix64 pseudo-random generator: tiny, fast, and
// deterministic across platforms, so every workload stream is exactly
// reproducible.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	return int(r.Next() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}
