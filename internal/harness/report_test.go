package harness

import (
	"strings"
	"testing"

	"protozoa/internal/core"
)

func TestRenderStatsContent(t *testing.T) {
	st, err := run("histogram", core.ProtozoaMW, fast)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderStats("histogram", core.ProtozoaMW, st)
	for _, want := range []string{
		"workload histogram under Protozoa-MW",
		"instructions",
		"L1 hits/misses",
		"miss classes",
		"invalidations",
		"data traffic",
		"control traffic",
		"NACK=",
		"fill granularity",
		"dir O-state mix",
		"miss latency",
		"engine queue",
		"zero-delay hits",
		"energy (est.)",
		"per core",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderStats missing %q", want)
		}
	}
	// Per-core table has one row per core.
	if got := strings.Count(out, "\n"); got < 16 {
		t.Errorf("report only %d lines", got)
	}
}
