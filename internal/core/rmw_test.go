package core

// Atomic read-modify-write tests: RMW is fetch-and-increment under a
// single write-permission acquisition, so concurrent increments to a
// shared counter must never lose an update — the classic coherence
// atomicity check, and a direct consequence of the SWMR invariant.

import (
	"bytes"
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
)

func rmw(addr mem.Addr) trace.Access {
	return trace.Access{Kind: trace.RMW, Addr: addr, PC: 0x600}
}

func TestRMWSingleCoreSemantics(t *testing.T) {
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 1)
			input := [][]trace.Access{{
				rmw(0x100), rmw(0x100), rmw(0x100), ld(0x100),
			}}
			sys, err := NewSystem(cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			rec := &loadRecorder{}
			onLoads(sys, rec.onLoad)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			// OnLoad fires for each RMW's old value (0, 1, 2) and then
			// for the final load (3).
			if len(rec.loads) != 4 || rec.loads[3].val != 3 {
				t.Errorf("loads = %+v, want final value 3", rec.loads)
			}
			s := sys.Stats()
			if s.RMWs != 3 || s.Stores != 3 || s.Loads != 1 {
				t.Errorf("RMWs/Stores/Loads = %d/%d/%d, want 3/3/1", s.RMWs, s.Stores, s.Loads)
			}
			// Second and third increments hit in M.
			if s.L1Misses != 1 {
				t.Errorf("misses = %d, want 1", s.L1Misses)
			}
		})
	}
}

func TestRMWNoLostUpdates(t *testing.T) {
	// Four cores hammer one shared counter; the final value must be
	// exactly the total number of increments under every protocol and
	// extension combination.
	const perCore = 150
	configs := map[string]func(*Config){
		"baseline": func(*Config) {},
		"threehop": func(c *Config) { c.ThreeHop = true },
		"bloom":    func(c *Config) { c.Directory = DirBloom },
	}
	for name, mutate := range configs {
		for _, p := range AllProtocols {
			t.Run(p.String()+"/"+name, func(t *testing.T) {
				cfg := testConfig(p, 4)
				mutate(&cfg)
				input := make([][]trace.Access, 4)
				for c := 0; c < 4; c++ {
					var recs []trace.Access
					for i := 0; i < perCore; i++ {
						recs = append(recs, rmw(0x2000))
					}
					recs = append(recs, trace.Access{Kind: trace.Barrier})
					if c == 0 {
						recs = append(recs, ld(0x2000))
					}
					input[c] = recs
				}
				sys, err := NewSystem(cfg, input)
				if err != nil {
					t.Fatal(err)
				}
				rec := &loadRecorder{}
				onLoads(sys, rec.onLoad)
				if err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				// Every RMW also observes its pre-increment value, so the
				// final plain load is the last recorded event.
				want := uint64(4 * perCore)
				last := rec.loads[len(rec.loads)-1]
				if last.val != want {
					t.Errorf("counter = %d, want %d (lost updates!)", last.val, want)
				}
			})
		}
	}
}

func TestRMWUpgradePath(t *testing.T) {
	// Read first (S copy), then RMW: the increment goes through the
	// UPGRADE path and must still see the coherent old value.
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 2)
			input := [][]trace.Access{
				{
					{Kind: trace.Barrier}, ld(0x3000), rmw(0x3000), {Kind: trace.Barrier}, ld(0x3000),
				},
				{
					rmw(0x3000), {Kind: trace.Barrier}, {Kind: trace.Barrier},
				},
			}
			sys, err := NewSystem(cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			rec := &loadRecorder{}
			onLoads(sys, rec.onLoad)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			// Core 1 incremented to 1; core 0 read 1, incremented to 2,
			// and read 2 back.
			last := rec.loads[len(rec.loads)-1]
			if last.val != 2 {
				t.Errorf("final value = %d, want 2", last.val)
			}
		})
	}
}

func TestRMWTraceFileRoundTrip(t *testing.T) {
	// RMW records survive the PZTR format.
	perCore := [][]trace.Access{{rmw(0x40), {Kind: trace.Barrier}, rmw(0x48)}}
	var buf bytes.Buffer
	if err := trace.WriteTraces(&buf, perCore); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a := got[0][0]; a.Kind != trace.RMW || a.Addr != 0x40 {
		t.Errorf("record = %+v", a)
	}
}

func TestRMWRandomStress(t *testing.T) {
	// Random mix including RMWs under the full checker: golden-value
	// tracking follows the fetch-and-increment semantics.
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 4)
			cfg.MaxEvents = 5_000_000
			input := make([][]trace.Access, 4)
			for c := 0; c < 4; c++ {
				rng := trace.NewRNG(uint64(9000 + c))
				var recs []trace.Access
				for i := 0; i < 1200; i++ {
					addr := mem.Addr(rng.Intn(8)*64 + rng.Intn(8)*8)
					a := trace.Access{Addr: addr, PC: uint32(0x400 + rng.Intn(4)*4)}
					switch r := rng.Intn(100); {
					case r < 40:
						a.Kind = trace.Load
					case r < 70:
						a.Kind = trace.Store
					default:
						a.Kind = trace.RMW
					}
					recs = append(recs, a)
				}
				input[c] = recs
			}
			sys, err := NewSystem(cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			chk := newChecker(t, sys)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if chk.Loads == 0 {
				t.Error("checker observed no loads")
			}
		})
	}
}
