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
	st, err := protozoa.Run(workload, p, protozoa.Options{Cores: 16, Scale: 1})
	if err != nil {
		t.Fatalf("%v on %s: %v", p, workload, err)
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

// runWithWorkers runs one workload on the 16-core machine with
// Config.Workers set, after setup arms whatever views the caller wants.
func runWithWorkers(t *testing.T, w string, p core.Protocol, workers int, setup func(*core.System)) *core.System {
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
	sys, err := core.NewSystem(cfg, spec.Records(16, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	setup(sys)
	if err := sys.Run(); err != nil {
		t.Fatalf("%v on %s (workers %d): %v", p, w, workers, err)
	}
	return sys
}

// TestWorkerCountsAgree pins that Config.Workers is inert: every
// machine runs on the one sequential engine, so the full stats JSON at
// Workers 2 equals that at Workers 0 for every protocol. The result
// cache leaves Workers out of its key on exactly this promise.
// micro-barrier-skew, with most cores idle at each barrier while one
// straggler runs, is the schedule a partitioned engine would reorder.
func TestWorkerCountsAgree(t *testing.T) {
	for _, w := range []string{"barnes", "ocean", "lu", "micro-barrier-skew"} {
		for _, p := range protozoa.Protocols() {
			w, p := w, p
			t.Run(w+"/"+p.String(), func(t *testing.T) {
				var stats [2][]byte
				for i, workers := range []int{0, 2} {
					sys := runWithWorkers(t, w, p, workers, func(*core.System) {})
					b, err := json.Marshal(sys.Stats())
					if err != nil {
						t.Fatal(err)
					}
					stats[i] = b
				}
				if !bytes.Equal(stats[0], stats[1]) {
					t.Fatalf("Workers 0 and Workers 2 diverge:\n%s\n---\n%s", stats[0], stats[1])
				}
			})
		}
	}
}

// TestWorkerCountsAgreeOnFlightLog extends TestWorkerCountsAgree to the
// flight recorder: the serialized flight log — header and every record,
// including ring-wrap drops — is byte-identical at Workers 0 and 2.
func TestWorkerCountsAgreeOnFlightLog(t *testing.T) {
	for _, w := range []string{"barnes", "micro-barrier-skew"} {
		for _, p := range []core.Protocol{core.MESI, core.ProtozoaMW} {
			w, p := w, p
			t.Run(w+"/"+p.String(), func(t *testing.T) {
				var logs [2][]byte
				for i, workers := range []int{0, 2} {
					sys := runWithWorkers(t, w, p, workers, func(s *core.System) { s.EnableFlightRecorder(1 << 15) })
					var buf bytes.Buffer
					if err := sys.WriteFlightLog(&buf); err != nil {
						t.Fatal(err)
					}
					logs[i] = buf.Bytes()
				}
				if !bytes.Equal(logs[0], logs[1]) {
					t.Fatalf("flight log diverges between Workers 0 and Workers 2 (%d vs %d bytes)",
						len(logs[0]), len(logs[1]))
				}
			})
		}
	}
}
