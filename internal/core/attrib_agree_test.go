package core

import (
	"testing"

	"protozoa/internal/engine"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/workloads"
)

// TestAttributionAgreesHoweverRead: a region's final pattern must not
// depend on how often the tracker was read mid-run. For every suite
// workload and micro under every protocol, the pattern counts of a run
// with no mid-run reads equal, at each timeline interval, both the
// live counts of a metrics-on run (whose false-shared gauge classifies
// the tracker at every tick) and the counts of its dump restored into
// a fresh tracker. A fold or upgrade that changes a region's churn
// inputs without marking it for reclassification fails here
// (linear-regression and radix under the Protozoa protocols).
func TestAttributionAgreesHoweverRead(t *testing.T) {
	if raceEnabled {
		// 512 independent sequential runs: nothing for the race
		// detector to check, and about 50 s of the race pass.
		t.Skip("single-goroutine property; run by the plain test pass")
	}
	for _, spec := range append(workloads.All(), workloads.Micros()...) {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			recs := spec.Records(4, 1, 0)
			for _, p := range AllProtocols {
				run := func(interval engine.Cycle) *attrib.Tracker {
					sys, err := NewSystem(testConfig(p, 4), recs)
					if err != nil {
						t.Fatal(err)
					}
					tr := sys.EnableAttribution()
					if interval != 0 {
						sys.EnableTimeline(interval)
						sys.EnableMetrics()
					}
					if err := sys.Run(); err != nil {
						t.Fatal(err)
					}
					return tr
				}
				want := run(0).PatternCounts()
				for _, interval := range []engine.Cycle{100, 1000, 10000} {
					tr := run(interval)
					restored, err := attrib.FromDump(tr.Dump())
					if err != nil {
						t.Fatal(err)
					}
					if live := tr.PatternCounts(); live != want {
						t.Errorf("%v interval %d: live counts %v, metrics-off %v", p, interval, live, want)
					}
					if got := restored.PatternCounts(); got != want {
						t.Errorf("%v interval %d: restored counts %v, metrics-off %v", p, interval, got, want)
					}
				}
			}
		})
	}
}
