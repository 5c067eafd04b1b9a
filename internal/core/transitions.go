package core

import (
	"fmt"
	"sort"
	"strings"

	"protozoa/internal/cache"
	"protozoa/internal/mem"
)

// Transition auditing: the simulator can record every observed
// (controller, state, event -> state) triple, the protocol's state
// machine as it actually executes. The conformance tests check the
// observed set against the documented legal machine (Figure 8 plus
// the Table 2/3 additions), so any change that introduces a novel
// transition fails loudly.

// Transition is one observed state-machine edge.
type Transition struct {
	Ctrl  string // "L1" or "Dir"
	From  string // state before the event
	Event string
	To    string // state after the event
}

// String renders the edge like a protocol table row.
func (t Transition) String() string {
	return fmt.Sprintf("%s: %s --%s--> %s", t.Ctrl, t.From, t.Event, t.To)
}

// EnableTransitionAudit starts recording transitions. Call before Run.
func (s *System) EnableTransitionAudit() {
	s.transitions = make(map[Transition]uint64)
}

// Transitions returns the observed transition counts (nil if auditing
// was not enabled).
func (s *System) Transitions() map[Transition]uint64 { return s.transitions }

// TransitionTable renders the observed machine sorted for goldens.
func (s *System) TransitionTable() string {
	var keys []Transition
	for k := range s.transitions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Ctrl != b.Ctrl {
			return a.Ctrl < b.Ctrl
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		return a.To < b.To
	})
	var out strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&out, "%s (%d)\n", k, s.transitions[k])
	}
	return out.String()
}

func (s *System) recordTransition(ctrl, from, event, to string) {
	if s.transitions == nil {
		return
	}
	s.transitions[Transition{Ctrl: ctrl, From: from, Event: event, To: to}]++
}

// l1RegionState summarizes a region's L1 state the way a protocol
// table names it: the strongest resident block state (I/S/E/M), with
// the MSHR transient appended when a miss is outstanding (e.g. "I_IM",
// "S_SM", "M_IS" — the Figure 6 race state).
func (l *l1Ctrl) regionState(region mem.RegionID) string {
	strongest := cache.Invalid
	for _, b := range l.cache.BlocksInRegion(region) {
		if b.State > strongest {
			strongest = b.State
		}
	}
	st := strongest.String()
	if ms := l.openMSHR(region); ms != nil {
		switch {
		case ms.upgrade:
			st += "_SM"
		case ms.mode.write():
			st += "_IM"
		default:
			st += "_IS"
		}
	}
	return st
}

// dirState names a directory entry's stable state per Table 2: O when
// any owner exists (O+ for Protozoa-MW's multiple owners), SS when only
// sharers exist, I otherwise.
func (d *dirSlice) dirState(e *dirEntry) string {
	switch {
	case e.owners.Count() > 1:
		return "O+"
	case e.owners.Count() == 1:
		return "O"
	case !e.sharers.Empty():
		return "SS"
	default:
		return "I"
	}
}
