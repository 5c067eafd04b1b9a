package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"protozoa/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestAttributionGolden pins the simulated attribution end to end: for
// every suite workload and micro under every protocol at 16 cores and
// scale 1, the hashes of the tracker's Dump, Summarize and
// TopOffenders(20) and its pattern counts. The tracker's feed and
// layout may change; none of these may move. Regenerate with `go test ./internal/harness -run
// AttributionGolden -update` only after an intentional change to the
// simulated machine or the classifier.
func TestAttributionGolden(t *testing.T) {
	const cores, scale = 16, 1
	names := append(workloads.Names(), workloads.MicroNames()...)
	m, err := Collect(Options{Cores: cores, Scale: scale, Workloads: names})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, w := range names {
		for _, p := range m.Protocols {
			tr := m.Attribs[w][p]
			dump, err := json.Marshal(tr.Dump())
			if err != nil {
				t.Fatal(err)
			}
			sum, err := json.Marshal(tr.Summarize())
			if err != nil {
				t.Fatal(err)
			}
			top, err := json.Marshal(tr.TopOffenders(20))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s dump=%x summary=%x top=%x patterns=%v\n",
				w, p, sha256.Sum256(dump), sha256.Sum256(sum), sha256.Sum256(top), tr.PatternCounts())
		}
	}
	path := filepath.Join("testdata", "attrib_pin.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("attribution drifted from %s; run with -update if intentional", path)
	}
}
