package harness

// Robustness across trace randomizations: the headline shapes must not
// depend on the canonical seed. Each seed yields a different concrete
// access sequence with the same sharing/locality signature.

import (
	"reflect"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/workloads"
)

func TestSeededStreamsDiffer(t *testing.T) {
	spec := workloads.MustGet("canneal")
	a := spec.Records(2, 1, 0)[0]
	b := spec.Records(2, 1, 1)[0]
	if len(a) != len(b) {
		t.Fatal("seeded records have different lengths")
	}
	sameCount, total := 0, len(a)
	for i := range a {
		if a[i].Addr == b[i].Addr {
			sameCount++
		}
	}
	if total == 0 || sameCount == total {
		t.Errorf("seeds 0 and 1 agree on %d/%d addresses; want different sequences", sameCount, total)
	}
}

// TestSeedZeroIsCanonical checks that seed 0, the trace sim and trace
// -dump replay, is one fixed trace, and that StreamsSeeded (kept for
// perfbench) gives the same records as Records.
func TestSeedZeroIsCanonical(t *testing.T) {
	spec := workloads.MustGet("barnes")
	a := spec.Records(2, 1, 0)
	if !reflect.DeepEqual(a, spec.Records(2, 1, 0)) {
		t.Fatal("Records(.., 0) differs between two generations")
	}
	if !reflect.DeepEqual(a, spec.StreamsSeeded(2, 1, 0)) {
		t.Fatal("StreamsSeeded(.., 0) diverges from Records(.., 0)")
	}
}

func TestHeadlineShapeRobustAcrossSeeds(t *testing.T) {
	// The linear-regression MW win must hold for every trace seed.
	for seed := uint64(0); seed < 3; seed++ {
		o := Options{Cores: 4, Scale: 1, TraceSeed: seed}
		mesi, err := run("linear-regression", core.MESI, o)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := run("linear-regression", core.ProtozoaMW, o)
		if err != nil {
			t.Fatal(err)
		}
		if mw.L1Misses*3 > mesi.L1Misses {
			t.Errorf("seed %d: MW misses %d not << MESI %d", seed, mw.L1Misses, mesi.L1Misses)
		}
	}
}

func TestCannealCapacityShapeRobustAcrossSeeds(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		o := Options{Cores: 4, Scale: 1, TraceSeed: seed}
		mesi, err := run("canneal", core.MESI, o)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := run("canneal", core.ProtozoaSW, o)
		if err != nil {
			t.Fatal(err)
		}
		if sw.UsedPct() < 1.5*mesi.UsedPct() {
			t.Errorf("seed %d: SW used%% %.1f not well above MESI %.1f", seed, sw.UsedPct(), mesi.UsedPct())
		}
	}
}
