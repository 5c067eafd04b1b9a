package core

import (
	"testing"

	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

func TestTimelineSampling(t *testing.T) {
	cfg := testConfig(MESI, 2)
	sys, err := NewSystem(cfg, workloads.RandomRecords(2, 500, 8, 40, 11))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTimeline(500)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	tl := sys.Timeline()
	if len(tl) < 3 {
		t.Fatalf("timeline has %d samples, want several", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Cycle <= tl[i-1].Cycle {
			t.Fatalf("samples out of order at %d", i)
		}
		if tl[i].Accesses < tl[i-1].Accesses || tl[i].Misses < tl[i-1].Misses ||
			tl[i].Traffic < tl[i-1].Traffic || tl[i].FlitHops < tl[i-1].FlitHops {
			t.Fatalf("cumulative counters decreased at %d", i)
		}
	}
	last := tl[len(tl)-1]
	if last.Accesses != sys.Stats().Accesses && last.Accesses > sys.Stats().Accesses {
		t.Errorf("last sample accesses %d beyond final %d", last.Accesses, sys.Stats().Accesses)
	}
}

func TestTimelineWarmupVisible(t *testing.T) {
	// Re-reading a small working set: the first window must carry most
	// of the misses (cold fills), later windows almost none.
	cfg := testConfig(MESI, 1)
	var recs []trace.Access
	for pass := 0; pass < 30; pass++ {
		for r := 0; r < 16; r++ {
			recs = append(recs, ld(regAddr(r)))
		}
	}
	sys, err := NewSystem(cfg, [][]trace.Access{recs})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTimeline(400)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	tl := sys.Timeline()
	if len(tl) < 2 {
		t.Skip("run too short for windows")
	}
	// All 16 cold misses happen in the first pass; by the time a third
	// of the accesses have retired, the miss counter must be done.
	total := sys.Stats().Accesses
	for _, sm := range tl {
		if sm.Accesses >= total/3 && sm.Misses != sys.Stats().L1Misses {
			t.Errorf("at %d accesses: %d misses, want all %d (warmup should be over)",
				sm.Accesses, sm.Misses, sys.Stats().L1Misses)
			break
		}
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	sys := runSys(t, testConfig(MESI, 1), [][]trace.Access{{ld(0x0)}})
	if len(sys.Timeline()) != 0 {
		t.Error("timeline collected without EnableTimeline")
	}
}
