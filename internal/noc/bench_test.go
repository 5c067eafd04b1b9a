package noc

import (
	"testing"

	"protozoa/internal/engine"
	"protozoa/internal/stats"
)

// arrivalMesh builds a default 4x4 mesh, with or without the contention
// model, for the Arrival benchmark and allocation test.
func arrivalMesh(tb testing.TB, contention bool) *Mesh {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.ModelContention = contention
	m, err := New(cfg, engine.New(), &stats.Stats{})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// sendMix is the i-th message of a fixed traffic mix over all pairs and
// vnets: alternately a control message and a 64-byte data reply.
func sendMix(m *Mesh, i int) {
	n := m.Nodes()
	bytes := 8
	if i%2 == 1 {
		bytes = 72
	}
	m.Arrival(engine.Cycle(i), i%n, (i*7+3)%n, i%numVnets, bytes)
}

// BenchmarkArrival is the per-message cost of the network: FIFO
// back-pressure, flit accounting and the delivery cycle, on the
// default mesh and under the contention model's link reservations.
func BenchmarkArrival(b *testing.B) {
	for _, c := range []struct {
		name       string
		contention bool
	}{{"mesh", false}, {"contention", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			m := arrivalMesh(b, c.contention)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sendMix(m, i)
			}
		})
	}
}

// TestArrivalAllocatesNothing pins that a message costs no allocation,
// including under the contention model, whose link walk reads the
// route New stored instead of building the path per message.
func TestArrivalAllocatesNothing(t *testing.T) {
	for _, contention := range []bool{false, true} {
		m := arrivalMesh(t, contention)
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			sendMix(m, i)
			i++
		}); n != 0 {
			t.Errorf("contention=%v: Arrival allocated %v times per message, want 0", contention, n)
		}
	}
}

// TestRouteTableMatchesPath checks the tables New builds against their
// builders on every topology: each pair's hop count is its path length,
// and the stored contention route walks exactly Path's links.
func TestRouteTableMatchesPath(t *testing.T) {
	for _, topo := range []Topology{TopoMesh, TopoRing, TopoCrossbar} {
		cfg := DefaultConfig()
		cfg.Topology = topo
		cfg.ModelContention = true
		m, err := New(cfg, engine.New(), &stats.Stats{})
		if err != nil {
			t.Fatal(err)
		}
		n := m.Nodes()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				path := m.Path(src, dst)
				if m.Hops(src, dst) != len(path) {
					t.Fatalf("%s: Hops(%d,%d) = %d, path %v", topo, src, dst, m.Hops(src, dst), path)
				}
				p := src*n + dst
				route := m.routes[m.routeAt[p]:m.routeAt[p+1]]
				if len(route) != len(path) {
					t.Fatalf("%s: route %d->%d has %d links, path %v", topo, src, dst, len(route), path)
				}
				prev := src
				for k, next := range path {
					if want := int32(prev*n + next); route[k] != want {
						t.Fatalf("%s: route %d->%d link %d = %d, want %d", topo, src, dst, k, route[k], want)
					}
					prev = next
				}
			}
		}
	}
}
