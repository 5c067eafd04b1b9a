package core

import (
	"fmt"
	"testing"

	"protozoa/internal/cache"
	"protozoa/internal/mem"
	"protozoa/internal/trace"
)

// hitL1 returns core 0's L1 of a 4-core MESI machine holding hitRegions
// full, Modified regions, so every read or write resolved against them
// is an L1 hit. The machine carries view: the "attrib" tracker, the
// "flight" recorder, the transition "audit", the "checker", the
// "latency" breakdown, "all" of them, or "none".
func hitL1(tb testing.TB, view string) *l1Ctrl {
	tb.Helper()
	sys, err := NewSystem(testConfig(MESI, 4), make([][]trace.Access, 4))
	if err != nil {
		tb.Fatal(err)
	}
	all := view == "all"
	if all || view == "attrib" {
		sys.EnableAttribution()
	}
	if all || view == "flight" {
		sys.EnableFlightRecorder(0)
	}
	if all || view == "audit" {
		sys.EnableTransitionAudit()
	}
	if all || view == "checker" {
		NewChecker(sys)
	}
	if all || view == "latency" {
		sys.EnableLatencyBreakdown()
	}
	l := sys.l1s[0]
	for r := mem.RegionID(0); r < hitRegions; r++ {
		l.cache.Insert(cache.Block{Region: r, R: sys.geom.FullRange(), State: cache.Modified})
	}
	return l
}

const hitRegions = 4

// hitSink is the completer of the hit-path measurements.
type hitSink struct{ sum uint64 }

func (s *hitSink) complete(v uint64) { s.sum += v }

// hitAddr is the i-th address of the hit loop: it walks every word of
// the resident regions.
func hitAddr(i int) mem.Addr {
	return mem.Addr(i%(hitRegions*mem.DefaultGeometry.WordsPerRegion())) * mem.WordBytes
}

// TestL1HitAllocatesNothing pins the hit path's allocation contract
// with each view on, and with all of them: noting a reference on its
// block, emitting its state edge and (to a checker) its value
// allocates nothing.
func TestL1HitAllocatesNothing(t *testing.T) {
	for _, view := range []string{"none", "attrib", "flight", "audit", "checker", "latency", "all"} {
		l, sink, i := hitL1(t, view), &hitSink{}, 0
		if n := testing.AllocsPerRun(1000, func() {
			l.resolve(hitAddr(i), accessMode(i%2), 0x40, uint64(i), sink)
			i++
		}); n != 0 {
			t.Errorf("%v: %v allocs per L1 hit, want 0", view, n)
		}
		if l.sys.st.L1Misses != 0 {
			t.Fatalf("%v: the hit loop missed %d times", view, l.sys.st.L1Misses)
		}
	}
}

// BenchmarkL1Hit measures l1Ctrl.resolve on a hit, reads and writes,
// with no view and with every view on: the hit path notes the
// reference on its block and emits its state edge and its value. With
// the checker on, B/op is the growth of its changed-region list, which
// only a transaction end drains and the hit loop never reaches.
func BenchmarkL1Hit(b *testing.B) {
	for _, kind := range []struct {
		name string
		mode accessMode
	}{{"read", accRead}, {"write", accWrite}} {
		for _, view := range []string{"none", "all"} {
			b.Run(fmt.Sprintf("%s/views=%s", kind.name, view), func(b *testing.B) {
				l, sink := hitL1(b, view), &hitSink{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.resolve(hitAddr(i), kind.mode, 0x40, uint64(i), sink)
				}
			})
		}
	}
}
