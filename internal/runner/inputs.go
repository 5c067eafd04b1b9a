package runner

import (
	"fmt"
	"sync"

	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// Inputs shares workload inputs across the cells of one grid call.
// Every cell of a workload — each protocol, knob, region and block
// size — replays the same records, so the grid generates them once per
// (workload, cores, scale, seed) and hands every cell the same
// records; a machine only reads them.
//
// A grid claims an input once per cell while it expands its cells and
// each cell takes its records once, inside Build. The first cell to
// take a key generates its records while concurrent takers wait; the
// last claimed take drops the key, so the records live only as long as
// the machines replaying them. Cells run workload-major, so the memo
// holds only the workloads in flight. A cell answered from the result
// cache never builds; its claim lapses with the grid.
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

// Claim registers one cell that will build from the spec's records at
// the given size and seed, and returns the function that cell's Build
// calls, exactly once, for its records.
func (in *Inputs) Claim(spec workloads.Spec, cores, scale int, seed uint64) func() [][]trace.Access {
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
