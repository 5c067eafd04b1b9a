package core

// State-machine conformance: record every transition the protocols
// take under random traffic and check the structural invariants of the
// Figure 8 machine and the Table 2/3 per-variant rules. Unlike a
// golden whitelist, these predicates hold for any seed.

import (
	"fmt"
	"strings"
	"testing"

	"protozoa/internal/obs/flight"
	"protozoa/internal/trace"
)

// collectTransitions runs random traffic with the transition audit on,
// and the flight ring too when flightCap > 0.
func collectTransitions(t *testing.T, p Protocol, seed uint64, flightCap int) *System {
	t.Helper()
	cfg := testConfig(p, 4)
	cfg.L1Sets = 2
	cfg.L1SetBudget = 144
	cfg.MaxEvents = 5_000_000
	perCore := randomStreams(4, 2000, 10, 40, seed)
	streams := make([]trace.Stream, 4)
	for i := range streams {
		streams[i] = trace.NewSliceStream(perCore[i])
	}
	sys, err := NewSystem(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTransitionAudit()
	if flightCap > 0 {
		sys.EnableFlightRecorder(flightCap)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// stable extracts the stable-state letter of an L1 region state label
// ("M_IS" -> "M").
func stable(state string) string {
	if i := strings.IndexByte(state, '_'); i >= 0 {
		return state[:i]
	}
	return state
}

func TestTransitionConformance(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			sys := collectTransitions(t, p, 7, 0)
			if len(sys.Transitions()) == 0 {
				t.Fatal("no transitions recorded")
			}
			for tr := range sys.Transitions() {
				if tr.Ctrl == "L1" {
					checkL1Transition(t, p, tr)
				} else {
					checkDirTransition(t, p, tr)
				}
			}
		})
	}
}

func checkL1Transition(t *testing.T, p Protocol, tr Transition) {
	t.Helper()
	from, to := stable(tr.From), stable(tr.To)
	switch tr.Event {
	case "FWD_GETX", "INV":
		// Region-granularity protocols surrender everything; SW+MR
		// owners are fully revoked to at most Shared; MW may keep
		// non-overlapping dirty blocks.
		switch p {
		case MESI, ProtozoaSW:
			if to != "I" {
				t.Errorf("%v: %s must invalidate fully", p, tr)
			}
		case ProtozoaSWMR:
			if to == "M" || to == "E" {
				t.Errorf("%v: %s left write permission behind", p, tr)
			}
		}
	case "FWD_GETS":
		// A read probe removes write permission on the probed range;
		// MESI/SW downgrade the whole region.
		if p == MESI || p == ProtozoaSW {
			if to == "M" || to == "E" {
				t.Errorf("%v: %s left write permission after a read probe", p, tr)
			}
		}
	case "GRANT", "DATA_M":
		if to != "M" {
			t.Errorf("%v: %s must end Modified", p, tr)
		}
	case "DATA":
		if to != "S" && to != "M" && to != "E" {
			// S normally; M/E possible when other blocks of the region
			// are already held dirty (Protozoa multi-block regions).
			t.Errorf("%v: %s ended %q", p, tr, to)
		}
		if (p == MESI) && to != "S" {
			t.Errorf("%v: %s must end Shared at fixed granularity", p, tr)
		}
	case "Load", "Store":
		if from == "I" && !strings.Contains(tr.To, "_") {
			t.Errorf("%v: %s from Invalid must start a miss", p, tr)
		}
	}
	// Transients resolve only through fills/grants: an event that is
	// not a fill or grant must never clear an outstanding miss.
	if strings.Contains(tr.From, "_") && !strings.Contains(tr.To, "_") {
		switch tr.Event {
		case "DATA", "DATA_E", "DATA_M", "GRANT":
		default:
			t.Errorf("%v: %s cleared a transient without a response", p, tr)
		}
	}
}

func checkDirTransition(t *testing.T, p Protocol, tr Transition) {
	t.Helper()
	// Multiple owners exist only under Protozoa-MW.
	if (tr.From == "O+" || tr.To == "O+") && p != ProtozoaMW {
		t.Errorf("%v: multi-owner state in %s", p, tr)
	}
	switch tr.Event {
	case "GETX", "UPGRADE":
		if tr.To != "O" && tr.To != "O+" {
			t.Errorf("%v: %s must leave an owner", p, tr)
		}
	case "GETS":
		if tr.To == "I" {
			t.Errorf("%v: %s cannot empty the directory", p, tr)
		}
		// After a read under region-granularity single-writer rules the
		// previous owner is downgraded: O survives a GETS only for the
		// secondary-GETS-from-owner case (requester is the owner) — for
		// MESI that is impossible at fixed granularity unless the E/M
		// holder re-misses after a silent drop, which re-grants E.
	case "WBACK_LAST":
		// The final eviction may empty the entry or leave other sharers.
		if tr.To == "O+" && p != ProtozoaMW {
			t.Errorf("%v: %s left multiple owners", p, tr)
		}
	}
}

// TestTransitionTableRendering exercises the golden-table renderer.
func TestTransitionTableRendering(t *testing.T) {
	sys := collectTransitions(t, MESI, 3, 0)
	out := sys.TransitionTable()
	for _, want := range []string{"L1: I --Load--> I_IS", "Dir: SS --GETX--> O", "DATA_M"} {
		if !strings.Contains(out, want) {
			t.Errorf("transition table missing %q:\n%s", want, out)
		}
	}
	// Sorted and counted.
	if !strings.Contains(out, "(") {
		t.Error("table missing counts")
	}
}

// TestTransitionAuditCapturesFigure6State: the Figure 6 race state — a
// dirty block plus an outstanding read miss (M_IS) receiving a
// forwarded write probe — must occur under Protozoa-SW random traffic.
func TestTransitionAuditCapturesFigure6State(t *testing.T) {
	sys := collectTransitions(t, ProtozoaSW, 7, 0)
	found := false
	for tr := range sys.Transitions() {
		if tr.Ctrl == "L1" && tr.From == "M_IS" && (tr.Event == "FWD_GETX" || tr.Event == "FWD_GETS") {
			found = true
			break
		}
	}
	if !found {
		t.Error("Figure 6 race state (M_IS probed) never exercised")
	}
}

// TestTransitionTableGolden pins the observed machine of every protocol
// at seed 7, counts included. Regenerate with
// `go test ./internal/core -run TransitionTableGolden -update` only
// after an intentional protocol change.
func TestTransitionTableGolden(t *testing.T) {
	var out strings.Builder
	for _, p := range AllProtocols {
		fmt.Fprintf(&out, "== %s\n%s", p, collectTransitions(t, p, 7, 0).TransitionTable())
	}
	checkGolden(t, "transition_table.golden", []byte(out.String()))
}

// TestTransitionAuditAgreesWithFlight: the audit and the flight ring
// are two sinks of one state-edge emit. With a ring that drops nothing,
// the audit's edges that change state must equal, count for count, the
// ring's l1-state/dir-state records grouped by (ctrl, from, cause, to);
// the ring omits only self-loops.
func TestTransitionAuditAgreesWithFlight(t *testing.T) {
	for _, p := range AllProtocols {
		t.Run(p.String(), func(t *testing.T) {
			sys := collectTransitions(t, p, 7, 1<<20)
			if d := sys.FlightDropped(); d != 0 {
				t.Fatalf("ring dropped %d records", d)
			}
			names := flightNames()
			ring := make(map[Transition]uint64)
			for _, r := range sys.FlightRecords() {
				if r.Kind == flight.KindL1State || r.Kind == flight.KindDirState {
					ring[edgeKey{r.Kind, r.From, r.Sub, r.To}.transition(names)]++
				}
			}
			audit := make(map[Transition]uint64)
			for tr, n := range sys.Transitions() {
				if tr.From != tr.To {
					audit[tr] = n
				}
			}
			if len(ring) == 0 {
				t.Fatal("ring recorded no state edges")
			}
			for tr, n := range audit {
				if ring[tr] != n {
					t.Errorf("%s: audit %d, ring %d", tr, n, ring[tr])
				}
			}
			for tr, n := range ring {
				if _, ok := audit[tr]; !ok {
					t.Errorf("%s: ring %d, audit none", tr, n)
				}
			}
		})
	}
}
