package harness

// Snapshot regression: the simulator is fully deterministic, so the
// exact miss counts of representative (workload, protocol) cells are
// pinned. Any change to protocol behaviour, predictor training, cache
// replacement, workload generation, or event ordering that alters
// these counts fails here first — on purpose. If a change is
// intentional, regenerate the table (the values are printed on
// failure) and account for the shift in EXPERIMENTS.md.

import (
	"testing"

	"protozoa/internal/core"
)

// snapshotMisses holds L1 miss counts at 4 cores, scale 1, in
// AllProtocols order (MESI, SW, SW+MR, MW).
var snapshotMisses = map[string][4]uint64{
	"linear-regression": {859, 1309, 679, 111},
	"histogram":         {3091, 3414, 2311, 969},
	"canneal":           {12003, 8947, 8947, 8947},
	"matrix-multiply":   {792, 792, 792, 792},
	"barnes":            {3647, 4157, 3670, 3472},
	"apache":            {3465, 3852, 3844, 3844},
}

func TestSnapshotDeterminism(t *testing.T) {
	for w, want := range snapshotMisses {
		for i, p := range core.AllProtocols {
			st, err := run(w, p, Options{Cores: 4, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			if st.L1Misses != want[i] {
				t.Errorf("%s under %v: misses = %d, want %d (behavioural drift — regenerate if intentional)",
					w, p, st.L1Misses, want[i])
			}
		}
	}
}

// TestSnapshotRepeatability: two runs of the same cell are bit-equal
// on every counter that matters, not just misses.
func TestSnapshotRepeatability(t *testing.T) {
	sample := func() [6]uint64 {
		st, err := run("barnes", core.ProtozoaMW, Options{Cores: 4, Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		return [6]uint64{
			st.L1Misses, st.TrafficTotal(), st.FlitHops,
			st.ExecCycles, st.Invalidations, st.MissLatencySum,
		}
	}
	a, b := sample(), sample()
	if a != b {
		t.Errorf("nondeterministic run: %v vs %v", a, b)
	}
}
