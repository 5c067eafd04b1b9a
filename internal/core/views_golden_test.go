package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protozoa/internal/workloads"
)

// The golden tests below pin the two derived observability views — the
// Chrome trace and the latency breakdown — byte for byte, so a change to
// how they are recorded or derived must reproduce them exactly.
// Regenerate with `go test ./internal/core -run ViewGolden -update`
// only after an intentional format or protocol-sequence change.

// checkGolden compares got against testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (%d bytes, want %d); run with -update if intentional",
			name, len(got), len(want))
	}
}

// TestChromeTraceViewGolden pins the Chrome trace of a 4-core
// Protozoa-MW run with the NoC contention model on, so message slices,
// miss and transaction slices and link-stall instants all appear.
func TestChromeTraceViewGolden(t *testing.T) {
	cfg := testConfig(ProtozoaMW, 4)
	cfg.Noc.ModelContention = true
	perCore := workloads.RandomRecords(4, 60, 6, 40, 21)
	sys, err := NewSystem(cfg, perCore)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableEventTrace(0)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"link-stall"`) {
		t.Fatal("no link-stall event in the traced run; the golden would not cover it")
	}
	checkGolden(t, "chrome_trace_mw_contention.golden", buf.Bytes())
}

// TestLatencyViewGolden pins each protocol's latency breakdown — the
// JSON the result cache stores and the report's Row() — over a run with
// inclusion recalls and 3-hop forwarding, the paths where stale phase
// stamps arise and the clamp matters.
func TestLatencyViewGolden(t *testing.T) {
	var out bytes.Buffer
	for _, p := range AllProtocols {
		cfg := testConfig(p, 4)
		cfg.ThreeHop = true
		cfg.L2RegionsPerTile = 4
		perCore := workloads.RandomRecords(4, 800, 10, 40, 13)
		sys, err := NewSystem(cfg, perCore)
		if err != nil {
			t.Fatal(err)
		}
		lat := sys.EnableLatencyBreakdown()
		if err := sys.Run(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		js, err := json.Marshal(lat)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s\n%s\n%s\n", p, js, lat.Row())
	}
	checkGolden(t, "latency_breakdown.golden", out.Bytes())
}
