package core

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"protozoa/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestServeGaugeSetGolden pins the Prometheus text-format contract of
// the -serve endpoint: the set of gauge names and their declared types,
// in registry order. A scraper's dashboards key on these names, so a
// rename or silent drop must fail loudly here; adding a gauge is a
// deliberate golden update (go test ./internal/core -run ServeGauge
// -update).
func TestServeGaugeSetGolden(t *testing.T) {
	sys := newSharingSystem(t, ProtozoaMW)
	// Arm every gauge-contributing layer so the full set registers.
	sys.EnableAttribution()
	sys.EnableSelfProf()
	reg := sys.EnableMetrics()

	srv, err := obs.NewLiveServer("127.0.0.1:0", reg.Descs())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Publish(0, reg.Eval())

	var body string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && resp.StatusCode == http.StatusOK {
			body = string(raw)
			break
		}
	}
	if body == "" {
		t.Fatal("no /metrics response before the deadline")
	}

	// The golden covers names and types only — values vary per run.
	var types []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	got := strings.Join(types, "\n") + "\n"

	golden := filepath.Join("testdata", "prometheus_gauges.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("gauge name/type set drifted from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}
