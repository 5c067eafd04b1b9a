package runner

import (
	"fmt"
	"sync"

	"protozoa/internal/core"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// Inputs shares workload inputs across the cells of one grid call.
// Every cell of a workload — each protocol, knob, region and block
// size — replays the same records, so the grid generates them once per
// (workload, cores, scale, seed) and hands every cell the same
// records; a machine only reads them.
//
// Each cell a grid builds through Cell claims its input, and takes its
// records once, inside Build. The first cell to take a key generates
// its records while concurrent takers wait; the last claimed take
// drops the key, so the records live only as long as the machines
// replaying them. Cells run workload-major, so the memo holds only the
// workloads in flight. A cell answered from the result cache never
// builds; its claim lapses with the grid.
type Inputs struct {
	mu      sync.Mutex
	entries map[inputKey]*inputEntry

	// records generates a key's records; nil means Spec.Records. Tests
	// substitute a counting generator.
	records func(spec workloads.Spec, cores, scale int, seed uint64) [][]trace.Access
}

type inputKey struct {
	workload     string
	cores, scale int
	seed         uint64
}

type inputEntry struct {
	ready  chan struct{} // nil until the first take; closed once recs is set
	recs   [][]trace.Access
	claims int // takes still to come
}

// Cell completes c as the simulation of spec's records under cfg, at
// the given scale and trace seed: it sets the cell's Workload, its
// cache key, and a Build that replays the records every cell of the
// workload built through in shares. cfg must be fully resolved: the
// key hashes it, and Build hands the machine a copy of the same value.
func (in *Inputs) Cell(c Cell, spec workloads.Spec, cfg core.Config, scale int, seed uint64) Cell {
	c.Workload = spec.Name
	c.Key = CellSpec{Config: cfg, Workload: spec.Name, Scale: scale, Seed: seed}.Key()
	recs := in.claim(spec, cfg.Cores, scale, seed)
	c.Build = func() (*core.System, error) { return core.NewSystem(cfg, recs()) }
	return c
}

// claim registers one cell that will build from the spec's records at
// the given size and seed, and returns the function that cell's Build
// calls, exactly once, for its records.
func (in *Inputs) claim(spec workloads.Spec, cores, scale int, seed uint64) func() [][]trace.Access {
	k := inputKey{workload: spec.Name, cores: cores, scale: scale, seed: seed}
	in.mu.Lock()
	if in.entries == nil {
		in.entries = make(map[inputKey]*inputEntry)
	}
	e := in.entries[k]
	if e == nil {
		e = &inputEntry{}
		in.entries[k] = e
	}
	e.claims++
	in.mu.Unlock()
	return func() [][]trace.Access { return in.take(spec, k) }
}

// take returns k's shared records, generating them on the first take
// and dropping the key on the last.
func (in *Inputs) take(spec workloads.Spec, k inputKey) [][]trace.Access {
	in.mu.Lock()
	e := in.entries[k]
	if e == nil {
		in.mu.Unlock()
		panic(fmt.Sprintf("runner: inputs %+v taken more often than claimed", k))
	}
	first := e.ready == nil
	if first {
		e.ready = make(chan struct{})
	}
	if e.claims--; e.claims == 0 {
		delete(in.entries, k)
	}
	in.mu.Unlock()
	if first {
		gen := in.records
		if gen == nil {
			gen = workloads.Spec.Records
		}
		e.recs = gen(spec, k.cores, k.scale, k.seed)
		close(e.ready)
	} else {
		<-e.ready
	}
	return e.recs
}
