package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protozoa/internal/obs"
	"protozoa/internal/obs/flight"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// TestStallWatchdogFires wedges a transaction artificially — memory
// latency far beyond the watchdog threshold — and requires the watchdog
// to flag it at a timeline tick, exactly once, with a dump carrying the
// blocking directory entry and the region's causal transcript.
func TestStallWatchdogFires(t *testing.T) {
	cfg := testConfig(MESI, 1)
	cfg.MemLat = 100_000 // the "stuck" transaction: a miss pinned in flight
	sys, err := NewSystem(cfg, [][]trace.Access{
		{ld(regAddr(3))},
	})
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	sys.EnableTimeline(1000)
	sys.EnableStallWatchdog(5000, &dump)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	stalls := sys.Stalls()
	if len(stalls) != 1 {
		t.Fatalf("%d stall reports, want exactly 1 (dedup per miss): %v", len(stalls), stalls)
	}
	rep := stalls[0]
	if rep.Core != 0 || rep.Request != "GETS" {
		t.Errorf("flagged %+v, want core 0 GETS", rep)
	}
	if rep.FlaggedAt-rep.IssuedAt < 5000 {
		t.Errorf("flagged after only %d cycles, threshold 5000", rep.FlaggedAt-rep.IssuedAt)
	}
	out := dump.String()
	for _, want := range []string{"stall watchdog", "dir ", "transcript (region", "msg-send"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestCheckerViolationAutoDump: when the random-tester oracle trips
// with the flight recorder armed, the first violation snapshots the
// transcript and Err carries it — a protocol trace, not a bare message.
func TestCheckerViolationAutoDump(t *testing.T) {
	cfg := testConfig(MESI, 1)
	sys, err := NewSystem(cfg, [][]trace.Access{
		{ld(regAddr(2))},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableFlightRecorder(0)
	c := NewChecker(sys)
	// Poison the golden value for an address the core only loads:
	// memory returns zero, the oracle expects 0xbad — a guaranteed
	// "violation" that exercises the dump path on a healthy machine.
	c.golden[regAddr(2)] = 0xbad
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.Violations()) == 0 {
		t.Fatal("poisoned golden produced no violation")
	}
	if c.Transcript() == "" {
		t.Fatal("no transcript captured at first violation")
	}
	if !strings.Contains(c.Transcript(), "msg-send") {
		t.Errorf("transcript has no message records:\n%s", c.Transcript())
	}
	errText := c.Err().Error()
	if !strings.Contains(errText, "flight transcript at first violation") ||
		!strings.Contains(errText, "msg-send") {
		t.Errorf("Err() does not carry the transcript:\n%s", errText)
	}
}

// TestViolationTranscriptGolden pins the auto-dumped transcript's
// exact rendering — record vocabulary, field layout, state names — for
// the deterministic single-core violation scenario above. Regenerate
// with `go test ./internal/core -run ViolationTranscriptGolden -update`
// after an intentional format or protocol-sequence change.
func TestViolationTranscriptGolden(t *testing.T) {
	cfg := testConfig(MESI, 1)
	sys, err := NewSystem(cfg, [][]trace.Access{
		{ld(regAddr(2)), st(regAddr(2))},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableFlightRecorder(0)
	c := NewChecker(sys)
	c.golden[regAddr(2)] = 0xbad
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got := c.Transcript()
	if got == "" {
		t.Fatal("no transcript captured")
	}
	path := filepath.Join("testdata", "violation_transcript.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("violation transcript drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFlightPhaseReconciliation is the inspect-side acceptance
// invariant: transactions reconstructed from the flight log must carry
// exactly the per-phase dwell times the online latency fold measured —
// same miss count, same per-phase sums, same total.
func TestFlightPhaseReconciliation(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig(p, 4)
			perCore := workloads.RandomRecords(4, 600, 10, 40, 17)
			sys, err := NewSystem(cfg, perCore)
			if err != nil {
				t.Fatal(err)
			}
			lat := sys.EnableLatencyBreakdown()
			sys.EnableFlightRecorder(1 << 18)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if d := sys.FlightDropped(); d != 0 {
				t.Fatalf("ring dropped %d records; size the ring up for this test", d)
			}
			txns := flight.Reconstruct(sys.FlightRecords())
			var closed uint64
			var total uint64
			var phases [flight.NumPhases]uint64
			for _, txn := range txns {
				if txn.Open {
					t.Errorf("txn core %d region %d still open after a drained run", txn.Core, txn.Region)
					continue
				}
				closed++
				total += txn.Total()
				for ph, d := range txn.Dwell {
					phases[ph] += d
				}
			}
			if closed != lat.Count {
				t.Errorf("reconstructed %d closed txns, breakdown counted %d misses", closed, lat.Count)
			}
			if total != lat.TotalSum {
				t.Errorf("reconstructed total %d cycles, breakdown %d", total, lat.TotalSum)
			}
			for ph := 0; ph < flight.NumPhases; ph++ {
				if phases[ph] != lat.PhaseSum[obs.Phase(ph)] {
					t.Errorf("phase %s: reconstructed %d cycles, breakdown %d",
						flight.PhaseNames[ph], phases[ph], lat.PhaseSum[obs.Phase(ph)])
				}
			}
		})
	}
}

// spineRun runs the 4-core random workload the reconciliation tests
// use, with setup arming whichever views the caller wants.
func spineRun(t *testing.T, p Protocol, setup func(*System)) *System {
	t.Helper()
	cfg := testConfig(p, 4)
	perCore := workloads.RandomRecords(4, 600, 10, 40, 17)
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	setup(sys)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestLatencyFoldExactUnderRingWrap: the breakdown is folded online as
// records are emitted, so a flight ring far too small for the run —
// wrapping thousands of times — leaves it identical to a latency-only
// run, which keeps no ring at all.
func TestLatencyFoldExactUnderRingWrap(t *testing.T) {
	alone := spineRun(t, ProtozoaMW, func(s *System) { s.EnableLatencyBreakdown() })
	if alone.FlightRecorder() != nil {
		t.Fatal("a latency-only run attached a flight ring")
	}
	tiny := spineRun(t, ProtozoaMW, func(s *System) {
		s.EnableLatencyBreakdown()
		s.EnableFlightRecorder(16)
	})
	if tiny.FlightDropped() == 0 {
		t.Fatal("a 16-record ring did not wrap")
	}
	if alone.LatencyBreakdown().Count == 0 {
		t.Fatal("no misses folded")
	}
	assertJSONEqual(t, "latency (tiny ring vs none)", alone.LatencyBreakdown(), tiny.LatencyBreakdown())
}

// TestFlightRingSizedForLargestView: several views share the flight
// ring, and it must be sized for the largest request whatever order
// they were enabled in — a small message log enabled first must not
// cap the flight log's capacity.
func TestFlightRingSizedForLargestView(t *testing.T) {
	full := spineRun(t, MESI, func(s *System) { s.EnableFlightRecorder(1 << 18) })
	if full.FlightDropped() != 0 {
		t.Fatalf("reference run dropped %d records", full.FlightDropped())
	}
	want := full.FlightRecorder().Len()
	for _, order := range []string{"msglog-first", "flight-first"} {
		sys := spineRun(t, MESI, func(s *System) {
			if order == "msglog-first" {
				s.EnableMessageLog(5)
				s.EnableFlightRecorder(1 << 18)
			} else {
				s.EnableFlightRecorder(1 << 18)
				s.EnableMessageLog(5)
			}
		})
		if got := sys.FlightRecorder().Len(); got != want || sys.FlightDropped() != 0 {
			t.Errorf("%s: kept %d records, dropped %d; want all %d", order, got, sys.FlightDropped(), want)
		}
		if n := len(sys.MessageLog()); n != 5 {
			t.Errorf("%s: message log holds %d messages, want its own bound 5", order, n)
		}
	}
}
