package core

// Memory-consistency litmus tests. The machine's cores are in-order
// and block on every reference, so the system must be sequentially
// consistent for every protocol and extension: the classic forbidden
// outcomes can never appear, under any interleaving. Interleavings are
// explored by sweeping per-core start delays (think cycles), which
// shifts the racing accesses across each other's coherence windows.

import (
	"fmt"
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
)

// litmusThread is one core's straight-line program. Loads append their
// observed values to the outcome in program order.
type litmusThread []trace.Access

// runLitmus executes the threads with the given per-core start delays
// and returns the loaded values in (core, program) order.
func runLitmus(t *testing.T, p Protocol, threads []litmusThread, delays []uint16, mutate func(*Config)) []uint64 {
	t.Helper()
	n := len(threads)
	if n != 2 && n != 4 {
		t.Fatalf("litmus supports 2 or 4 threads, got %d", n)
	}
	cfg := testConfig(p, n)
	if mutate != nil {
		mutate(&cfg)
	}
	perCore := make([][]trace.Access, n)
	for c, th := range threads {
		recs := make([]trace.Access, len(th))
		copy(recs, th)
		if len(recs) > 0 {
			recs[0].Think = delays[c]
		}
		perCore[c] = recs
	}
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		core int
		val  uint64
	}
	var loads []ev
	sys.SetObserver(observerFuncs{
		onLoad: func(core int, _ mem.Addr, val uint64) {
			loads = append(loads, ev{core, val})
		},
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Group by core in program order, then flatten by core index.
	var out []uint64
	for c := 0; c < n; c++ {
		for _, e := range loads {
			if e.core == c {
				out = append(out, e.val)
			}
		}
	}
	return out
}

// observerFuncs adapts closures to the Observer interface.
type observerFuncs struct {
	onLoad func(int, mem.Addr, uint64)
}

func (o observerFuncs) OnStore(int, mem.Addr, uint64) {}
func (o observerFuncs) OnTxnEnd(mem.RegionID)         {}
func (o observerFuncs) OnLoad(c int, a mem.Addr, v uint64) {
	if o.onLoad != nil {
		o.onLoad(c, a, v)
	}
}

// sweep2 and sweep4 enumerate start-delay combinations. A cold write
// miss costs ~330-700 cycles (memory + hops), so the delays span from
// a few cycles (racing inside one transaction window) to beyond a full
// miss (strictly ordered) to reach every outcome class.
var sweepDelays = []uint16{0, 4, 12, 40, 150, 400, 800}

var sweep2 = func() [][]uint16 {
	var out [][]uint16
	for _, a := range sweepDelays {
		for _, b := range sweepDelays {
			out = append(out, []uint16{a, b})
		}
	}
	return out
}()

var sweep4 = func() [][]uint16 {
	short := []uint16{0, 40, 400}
	var out [][]uint16
	for _, a := range short {
		for _, b := range short {
			for _, c := range short {
				for _, d := range short {
					out = append(out, []uint16{a, b, c, d})
				}
			}
		}
	}
	return out
}()

// Distinct variables on distinct regions; stores write token
// (core+1)<<40|seq, so "wrote" means val != 0.
const (
	litX = mem.Addr(0x10040)
	litY = mem.Addr(0x20040)
)

func wrote(v uint64) int {
	if v != 0 {
		return 1
	}
	return 0
}

// TestLitmusMessagePassing: W x; W y || R y; R x — observing y=1 and
// then x=0 is forbidden under SC.
func TestLitmusMessagePassing(t *testing.T) {
	threads := []litmusThread{
		{st(litX), st(litY)},
		{ld(litY), ld(litX)},
	}
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for _, delays := range sweep2 {
				out := runLitmus(t, p, threads, delays, nil)
				ry, rx := wrote(out[0]), wrote(out[1])
				if ry == 1 && rx == 0 {
					t.Fatalf("delays %v: observed y before x (MP violation)", delays)
				}
			}
		})
	}
}

// TestLitmusStoreBuffering: W x; R y || W y; R x — both reads zero is
// forbidden under SC (possible only with store buffers, which the
// in-order blocking cores do not have).
func TestLitmusStoreBuffering(t *testing.T) {
	threads := []litmusThread{
		{st(litX), ld(litY)},
		{st(litY), ld(litX)},
	}
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			both := map[string]bool{}
			for _, delays := range sweep2 {
				out := runLitmus(t, p, threads, delays, nil)
				ry, rx := wrote(out[0]), wrote(out[1])
				if ry == 0 && rx == 0 {
					t.Fatalf("delays %v: r1=r2=0 (SB violation: not SC)", delays)
				}
				both[fmt.Sprintf("%d%d", ry, rx)] = true
			}
			if len(both) < 2 {
				t.Errorf("sweep explored only outcomes %v; want real interleaving", both)
			}
		})
	}
}

// TestLitmusCoherenceRR: R x; R x racing a remote W x — the two reads
// may straddle the write but never observe it and then un-observe it.
func TestLitmusCoherenceRR(t *testing.T) {
	threads := []litmusThread{
		{ld(litX), ld(litX)},
		{st(litX)},
	}
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for _, delays := range sweep2 {
				out := runLitmus(t, p, threads, delays, nil)
				r1, r2 := wrote(out[0]), wrote(out[1])
				if r1 == 1 && r2 == 0 {
					t.Fatalf("delays %v: value reversal r1=1, r2=0 (CoRR violation)", delays)
				}
			}
		})
	}
}

// TestLitmusIRIW: two writers to independent variables, two readers
// reading them in opposite orders — the readers disagreeing on the
// write order is forbidden under SC.
func TestLitmusIRIW(t *testing.T) {
	threads := []litmusThread{
		{st(litX)},
		{st(litY)},
		{ld(litX), ld(litY)},
		{ld(litY), ld(litX)},
	}
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for _, delays := range sweep4 {
				out := runLitmus(t, p, threads, delays, nil)
				// out = [r2.x, r2.y, r3.y, r3.x]
				if wrote(out[0]) == 1 && wrote(out[1]) == 0 &&
					wrote(out[2]) == 1 && wrote(out[3]) == 0 {
					t.Fatalf("delays %v: readers disagree on write order (IRIW violation)", delays)
				}
			}
		})
	}
}

// TestLitmusUnderExtensions repeats message passing with the Section 6
// extensions enabled: consistency must survive 3-hop forwarding, the
// bloom directory, and the non-inclusive L2 combined.
func TestLitmusUnderExtensions(t *testing.T) {
	threads := []litmusThread{
		{st(litX), st(litY)},
		{ld(litY), ld(litX)},
	}
	mutate := func(c *Config) {
		c.ThreeHop = true
		c.Directory = DirBloom
		c.NonInclusiveL2 = true
	}
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for _, delays := range sweep2 {
				out := runLitmus(t, p, threads, delays, mutate)
				if wrote(out[0]) == 1 && wrote(out[1]) == 0 {
					t.Fatalf("delays %v: MP violation under extensions", delays)
				}
			}
		})
	}
}
