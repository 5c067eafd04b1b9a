package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"protozoa/internal/workloads"
)

// TestAttributionGaugesGolden pins the attribution tracker as mid-run
// readers see it: the metrics JSON of `protozoa sim -workload
// linear-regression -protocol mesi -scale 1 -attrib -metrics-out`
// (the attrib_false_shared_regions gauge classifies the tracker at
// every timeline tick), every region-pattern count right after each
// tick's gauge read, a hash of the final dump and the final counts. A
// change that lets a mid-run read see a different tracker state than
// the per-reference feed would (pending block footprints not folded,
// an in-flight miss's reference missing) moves the early samples:
// cycle 1000 reads 11 false-shared regions.
func TestAttributionGaugesGolden(t *testing.T) {
	cfg := DefaultConfig(MESI)
	sys, err := NewSystem(cfg, workloads.MustGet("linear-regression").Records(cfg.Cores, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	reg := sys.EnableMetrics()
	tr := sys.EnableAttribution()
	var ticks bytes.Buffer
	sys.SetSampleHook(func(cycle uint64) {
		fmt.Fprintf(&ticks, "%d %v\n", cycle, tr.PatternCounts())
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// A read after the run (the live endpoint's final snapshot) must
	// not fold anything twice.
	reg.Eval()
	var out bytes.Buffer
	if err := reg.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	out.Write(ticks.Bytes())
	dump, err := json.Marshal(tr.Dump())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "dump %x\nfinal %v\n", sha256.Sum256(dump), tr.PatternCounts())
	checkGolden(t, "attrib_gauges.golden", out.Bytes())
}
