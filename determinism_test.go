package protozoa_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"protozoa"
	"protozoa/internal/core"
	"protozoa/internal/runner"
	"protozoa/internal/workloads"
)

// marshalRun executes one workload and returns its full marshaled
// statistics — every counter, histogram, and derived figure — so two
// runs can be compared byte for byte.
func marshalRun(t *testing.T, workload string, p protozoa.Protocol) []byte {
	t.Helper()
	return marshalRunWorkers(t, workload, p, 0)
}

// marshalRunWorkers is marshalRun with an explicit execution mode:
// workers 0 is the sequential engine, workers >= 1 the parallel window
// loop with that many goroutines.
func marshalRunWorkers(t *testing.T, workload string, p protozoa.Protocol, workers int) []byte {
	t.Helper()
	st, err := protozoa.Run(workload, p, protozoa.Options{Cores: 16, Scale: 1, Workers: workers})
	if err != nil {
		t.Fatalf("%v on %s (workers %d): %v", p, workload, workers, err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	return b
}

// TestRunDeterminism runs every protocol twice on the same workload
// and requires bit-identical statistics: the simulator must be a pure
// function of its inputs (the property the sweep's byte-identical-CSV
// guarantee and all ablation comparisons rest on).
func TestRunDeterminism(t *testing.T) {
	for _, p := range protozoa.Protocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			a := marshalRun(t, "barnes", p)
			b := marshalRun(t, "barnes", p)
			if !bytes.Equal(a, b) {
				t.Fatalf("two identical runs produced different stats:\n%s\n---\n%s", a, b)
			}
		})
	}
}

// TestWorkerCountsAgree runs the parallel window loop at 1, 2, 4 and 8
// workers for every protocol across four workloads and requires
// bit-identical statistics: partitioned execution must be a pure
// function of the configuration, never of the goroutine schedule. (The
// sequential mode is a different — equally deterministic — schedule of
// same-cycle cross-tile events, so it is not compared here; its own
// guarantee is TestRunDeterminism.)
//
// micro-barrier-skew is the adversarial case for the window-skipping
// coordinator: nearly every tile sits idle at a barrier each phase
// while one straggler runs through extended solo windows, so barrier
// release cycles, idle-tile skipping, and the extended-window self-cap
// all land on the determinism-critical path.
func TestWorkerCountsAgree(t *testing.T) {
	workloads := []string{"barnes", "ocean", "lu", "micro-barrier-skew"}
	for _, w := range workloads {
		for _, p := range protozoa.Protocols() {
			w, p := w, p
			t.Run(w+"/"+p.String(), func(t *testing.T) {
				base := marshalRunWorkers(t, w, p, 1)
				for _, n := range []int{2, 4, 8} {
					got := marshalRunWorkers(t, w, p, n)
					if !bytes.Equal(base, got) {
						t.Fatalf("workers=1 and workers=%d diverge:\n%s\n---\n%s", n, base, got)
					}
				}
			})
		}
	}
}

// TestWorkerCountsAgreeOnFlightLog extends the worker-count guarantee
// to the flight recorder: the serialized flight log — header and every
// record, including ring-wrap drops — must be byte-identical at any
// workers >= 1, even though each tile records into its own ring and the
// transcript is merged on export. micro-barrier-skew again stresses the
// adversarial schedule (idle-window skipping, extended solo windows).
func TestWorkerCountsAgreeOnFlightLog(t *testing.T) {
	logAt := func(t *testing.T, w string, p core.Protocol, workers int) []byte {
		t.Helper()
		spec, err := workloads.Get(w)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(p)
		cfg.Workers = workers
		if err := runner.ConfigureCores(&cfg, 16); err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(cfg, spec.Streams(16, 1))
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableFlightRecorder(1 << 15)
		if err := sys.Run(); err != nil {
			t.Fatalf("%v on %s (workers %d): %v", p, w, workers, err)
		}
		var buf bytes.Buffer
		if err := sys.WriteFlightLog(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, w := range []string{"barnes", "micro-barrier-skew"} {
		for _, p := range []core.Protocol{core.MESI, core.ProtozoaMW} {
			w, p := w, p
			t.Run(w+"/"+p.String(), func(t *testing.T) {
				base := logAt(t, w, p, 1)
				for _, n := range []int{2, 4} {
					if got := logAt(t, w, p, n); !bytes.Equal(base, got) {
						t.Fatalf("flight log diverges between workers=1 and workers=%d (%d vs %d bytes)",
							n, len(base), len(got))
					}
				}
			})
		}
	}
}
