package core

import (
	"strings"
	"testing"

	"protozoa/internal/trace"
)

func TestDiagnoseRendersQuiescentMachine(t *testing.T) {
	sys := runSys(t, testConfig(MESI, 2), [][]trace.Access{{ld(0x0)}, nil})
	out := sys.diagnose()
	for _, want := range []string{"core  0: done", "core  1: done", "no busy directory entries", "barrier: 0 arrived, 2 cores done"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnose missing %q:\n%s", want, out)
		}
	}
}

func TestWatchdogErrorIncludesDiagnosis(t *testing.T) {
	// A watchdog small enough to fire mid-run: the error must describe
	// the stalled machine (open MSHRs or busy directory entries).
	cfg := testConfig(MESI, 2)
	cfg.MaxEvents = 10
	var recs []trace.Access
	for i := 0; i < 50; i++ {
		recs = append(recs, st(regAddr(i)))
	}
	sys, err := NewSystem(cfg, [][]trace.Access{
		recs,
		recs,
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := sys.Run()
	if runErr == nil {
		t.Fatal("watchdog did not fire")
	}
	msg := runErr.Error()
	if !strings.Contains(msg, "machine state at") {
		t.Errorf("watchdog error lacks diagnosis:\n%s", msg)
	}
	if !strings.Contains(msg, "MSHRs") && !strings.Contains(msg, "busy") {
		t.Errorf("diagnosis lacks stall detail:\n%s", msg)
	}
}
