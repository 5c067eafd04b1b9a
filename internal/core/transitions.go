package core

import (
	"fmt"
	"sort"
	"strings"

	"protozoa/internal/obs/flight"
)

// Transition auditing: the simulator can record every observed
// (controller, state, event -> state) triple, the protocol's state
// machine as it actually executes. The conformance tests check the
// observed set against the documented legal machine (Figure 8 plus
// the Table 2/3 additions), so any change that introduces a novel
// transition fails loudly. The audit is a view over the flight spine's
// state edges: it counts them by their state and cause codes and
// renders names only when read.

// Transition is one observed state-machine edge.
type Transition struct {
	Ctrl  string // "L1" or "Dir"
	From  string // state before the event
	Event string // a message name, or Load / Store / GrantReissue
	To    string // state after the event
}

// String renders the edge like a protocol table row.
func (t Transition) String() string {
	return fmt.Sprintf("%s: %s --%s--> %s", t.Ctrl, t.From, t.Event, t.To)
}

// edgeKey is one audited edge in flight codes: Kind is KindL1State or
// KindDirState, cause a flight Sub code.
type edgeKey struct {
	kind            flight.Kind
	from, cause, to uint8
}

// EnableTransitionAudit starts recording transitions: the audit
// subscribes to the state edges and counts every one, self-loops
// included. Call before Run.
func (s *System) EnableTransitionAudit() {
	if s.transitions != nil {
		return
	}
	s.transitions = make(map[edgeKey]uint64)
	s.subscribe(view{kinds: stateKinds, see: func(r *flight.Record) {
		s.transitions[edgeKey{kind: r.Kind, from: r.From, cause: r.Sub, to: r.To}]++
	}})
}

// transition renders the edge in protocol-table names.
func (k edgeKey) transition(names *flight.Names) Transition {
	ctrl, state := "L1", flight.L1StateName
	if k.kind == flight.KindDirState {
		ctrl, state = "Dir", flight.DirStateName
	}
	return Transition{Ctrl: ctrl, From: state(k.from), Event: names.Sub(k.cause), To: state(k.to)}
}

// Transitions returns the observed transition counts (nil if auditing
// was not enabled).
func (s *System) Transitions() map[Transition]uint64 {
	if s.transitions == nil {
		return nil
	}
	names := flightNames()
	out := make(map[Transition]uint64, len(s.transitions))
	for k, n := range s.transitions {
		out[k.transition(names)] = n
	}
	return out
}

// TransitionTable renders the observed machine sorted for goldens.
func (s *System) TransitionTable() string {
	var lines []string
	for tr, n := range s.Transitions() {
		lines = append(lines, fmt.Sprintf("%s (%d)\n", tr, n))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}
