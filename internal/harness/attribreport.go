package harness

import (
	"fmt"
	"sort"
	"strings"

	"protozoa/internal/core"
	"protozoa/internal/obs/attrib"
)

// mergedAttribution folds every workload's attribution summary for one
// protocol into a single rollup.
func (m *Matrix) mergedAttribution(p core.Protocol) attrib.Summary {
	var sum attrib.Summary
	for _, w := range m.Workloads {
		if tr := m.Attribs[w][p]; tr != nil {
			sum.Add(tr.Summarize())
		}
	}
	return sum
}

// AttributionSummary renders the per-protocol utilization and
// sharing-pattern rollup: what fraction of fetched words each protocol
// actually used, the bytes it wasted on the NoC, its coherence churn,
// and how the region population classifies. The adaptive protocols'
// utilization climbing toward 100% while false-shared regions drop to
// zero is the paper's §1-2 motivation, measured. Like every attribution
// table it reads Matrix.Attribs, which only the report's matrix holds.
func (m *Matrix) AttributionSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %8s %12s %9s %9s %8s", "protocol", "util", "wasted-B", "invals", "upgrades", "probes")
	for pat := attrib.Pattern(0); pat < attrib.NumPatterns; pat++ {
		fmt.Fprintf(&b, " %12s", pat)
	}
	fmt.Fprintf(&b, "\n")
	for _, p := range m.Protocols {
		s := m.mergedAttribution(p)
		fmt.Fprintf(&b, "%-15s %7.1f%% %12d %9d %9d %8d", p,
			s.UtilPct, s.WastedBytes, s.Invalidations, s.Upgrades, s.ProbeMsgs)
		for pat := attrib.Pattern(0); pat < attrib.NumPatterns; pat++ {
			fmt.Fprintf(&b, " %12d", s.Patterns[pat])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// UtilizationTable renders the workloads x protocols fill-utilization
// grid (percent of fetched words used before their block died), from
// Matrix.Attribs.
func (m *Matrix) UtilizationTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", "workload")
	for _, p := range m.Protocols {
		fmt.Fprintf(&b, " %14s", p)
	}
	fmt.Fprintf(&b, "\n")
	for _, w := range m.Workloads {
		fmt.Fprintf(&b, "%-18s", w)
		for _, p := range m.Protocols {
			if tr := m.Attribs[w][p]; tr != nil {
				fmt.Fprintf(&b, " %13.1f%%", tr.UtilPct())
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// offenderRow pairs a region's attribution with the workload it came
// from, so cross-workload rankings stay readable.
type offenderRow struct {
	workload string
	info     attrib.RegionInfo
}

// TopOffendersTable ranks the protocol's worst regions across all
// workloads by wasted plus invalidation-churned bytes, worst first,
// from Matrix.Attribs.
func (m *Matrix) TopOffendersTable(p core.Protocol, n int) string {
	var rows []offenderRow
	for _, w := range m.Workloads {
		if tr := m.Attribs[w][p]; tr != nil {
			for _, info := range tr.TopOffenders(n) {
				rows = append(rows, offenderRow{w, info})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.info.Score != b.info.Score {
			return a.info.Score > b.info.Score
		}
		if a.info.Invalidations != b.info.Invalidations {
			return a.info.Invalidations > b.info.Invalidations
		}
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		return a.info.Region < b.info.Region
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %-12s %7s %9s %8s %7s %7s %8s %9s\n",
		"workload", "region", "pattern", "sharers", "fetched-w", "unused-w", "fills", "invals", "offender", "score-B")
	for _, r := range rows {
		offender := "-"
		if r.info.Offender >= 0 {
			offender = fmt.Sprintf("core%d", r.info.Offender)
		}
		fmt.Fprintf(&b, "%-18s %8d %-12s %7d %9d %8d %7d %7d %8s %9d\n",
			r.workload, r.info.Region, r.info.Pattern, r.info.Sharers,
			r.info.FetchedWords, r.info.UnusedWords, r.info.Fills,
			r.info.Invalidations, offender, r.info.Score)
	}
	return b.String()
}

// RenderAttribution renders one run's attribution report — the
// summary block plus the top-N offender table — for single-cell
// drivers (protozoa sim -attrib).
func RenderAttribution(tr *attrib.Tracker, topN int) string {
	s := tr.Summarize()
	var b strings.Builder
	fmt.Fprintf(&b, "attribution: %d regions, %d fills\n", s.Regions, tr.Fills)
	fmt.Fprintf(&b, "  words fetched %d, used %d, unused %d (util %.1f%%, %d bytes wasted)\n",
		s.FetchedWords, s.UsedWords, s.UnusedWords, s.UtilPct, s.WastedBytes)
	fmt.Fprintf(&b, "  invalidations %d (%d words lost, %d from recalls), upgrades %d, probes %d\n",
		s.Invalidations, s.InvWordsLost, s.RecallInvalidations, s.Upgrades, s.ProbeMsgs)
	fmt.Fprintf(&b, "  patterns:")
	for pat := attrib.Pattern(0); pat < attrib.NumPatterns; pat++ {
		if s.Patterns[pat] > 0 {
			fmt.Fprintf(&b, " %s=%d", pat, s.Patterns[pat])
		}
	}
	fmt.Fprintf(&b, "\n")
	offenders := tr.TopOffenders(topN)
	if len(offenders) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "top offenders (wasted + invalidation-churned bytes):\n")
	fmt.Fprintf(&b, "  %8s %-12s %7s %9s %8s %7s %7s %8s %9s\n",
		"region", "pattern", "sharers", "fetched-w", "unused-w", "fills", "invals", "offender", "score-B")
	for _, r := range offenders {
		offender := "-"
		if r.Offender >= 0 {
			offender = fmt.Sprintf("core%d", r.Offender)
		}
		fmt.Fprintf(&b, "  %8d %-12s %7d %9d %8d %7d %7d %8s %9d\n",
			r.Region, r.Pattern, r.Sharers, r.FetchedWords, r.UnusedWords,
			r.Fills, r.Invalidations, offender, r.Score)
	}
	return b.String()
}
