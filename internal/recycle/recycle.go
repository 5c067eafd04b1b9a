// Package recycle holds the free lists a machine's storage goes to
// when the machine is released (core.System.Release; the engine hands
// back its event ring when a run drains) and comes from when a later
// machine is built, so a grid of cells allocates a machine's worth of
// storage per worker rather than per cell.
package recycle

import (
	"sync"
	"sync/atomic"
)

// Pool is a free list of T, safe for concurrent use. Unlike sync.Pool
// it keeps what it holds across garbage collections: machines draw
// some storage lazily, mid-run, and a collection in between must not
// throw it away. It holds at most what the machines released at once
// held, which a process's grid width bounds.
type Pool[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get takes an item from the pool; ok is false when it is empty.
func (p *Pool[T]) Get() (x T, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return x, false
	}
	x = p.free[n-1]
	var zero T
	p.free[n-1] = zero
	p.free = p.free[:n-1]
	return x, true
}

// Put hands an item to the pool. The caller must not use it after.
func (p *Pool[T]) Put(x T) {
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}

// Poison, when set, makes every release fill the storage it pools with
// a non-zero pattern first. Tests set it to prove that storage drawn
// from a pool is cleared before use.
var Poison atomic.Bool
