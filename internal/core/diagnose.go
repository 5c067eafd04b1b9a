package core

import (
	"fmt"
	"sort"
	"strings"
)

// diagnose renders a stalled machine's state — the report attached to
// deadlock and watchdog errors so a protocol bug can be localized
// without re-running under a debugger: per-core progress and open
// MSHRs, busy directory entries with their transaction and queue
// state, and the barrier population.
func (s *System) diagnose() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine state at %d cycles (%d events):\n", s.eng.Now(), s.eng.Processed())
	for _, c := range s.cpus {
		status := "running"
		if c.done {
			status = "done"
		}
		fmt.Fprintf(&b, "  core %2d: %-7s", c.id, status)
		l1 := s.l1s[c.id]
		if !l1.msLive {
			fmt.Fprintf(&b, " no open MSHRs\n")
			continue
		}
		ms := &l1.ms
		fmt.Fprintf(&b, " MSHR: region %d %s [%s] since cycle %d\n",
			ms.region, ms.request(), ms.want, ms.issuedAt)
	}
	busy := 0
	for _, d := range s.dirs {
		var entries []*dirEntry
		d.eachEntry(func(e *dirEntry) { entries = append(entries, e) })
		sort.Slice(entries, func(i, j int) bool { return entries[i].region < entries[j].region })
		for _, e := range entries {
			if !e.busy {
				continue
			}
			busy++
			fmt.Fprintf(&b, "  %s\n", dirEntryLine(d, e))
		}
	}
	if busy == 0 {
		fmt.Fprintf(&b, "  no busy directory entries\n")
	}
	fmt.Fprintf(&b, "  barrier: %d arrived, %d cores done\n", s.barrierArrived, s.coresDone)
	if tail := s.flightTail(stallTranscriptCap); tail != "" {
		fmt.Fprintf(&b, "flight transcript (last %d records):\n%s", stallTranscriptCap, tail)
	}
	return b.String()
}
