package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"protozoa/internal/core"
)

// TestRepeatedWorkloadCountsOnce: a workload listed twice is one row
// of every figure and one term of every geomean.
func TestRepeatedWorkloadCountsOnce(t *testing.T) {
	o := fast
	o.Workloads = []string{"swaptions", "histogram", "swaptions"}
	got, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workloads = []string{"swaptions", "histogram"}
	want, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Workloads, want.Workloads) {
		t.Errorf("matrix workloads %v, want %v", got.Workloads, want.Workloads)
	}
	if g, w := got.GeoMeanRatio(core.ProtozoaMW, TrafficBytes), want.GeoMeanRatio(core.ProtozoaMW, TrafficBytes); g != w {
		t.Errorf("MW traffic geomean %v with the repeat, %v without", g, w)
	}
	if g, w := got.Fig9Traffic(), want.Fig9Traffic(); g != w {
		t.Errorf("Figure 9 with the repeat:\n%s\nwithout:\n%s", g, w)
	}
}

// TestTable1TrimsWorkloadNames: Table 1 reads a workload list as the
// sweep does, so "a, b" names a and b.
func TestTable1TrimsWorkloadNames(t *testing.T) {
	o := fast
	o.Workloads = []string{"swaptions", " histogram "}
	got, err := CollectTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workloads = []string{"swaptions", "histogram"}
	want, err := CollectTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trimmed list: %+v, want %+v", got, want)
	}
}

// TestUnknownWorkloadRunsNoCell: an empty or unknown name in the list
// fails every grid before any cell runs, with one error naming it.
func TestUnknownWorkloadRunsNoCell(t *testing.T) {
	for name, run := range map[string]func(Options) error{
		"Collect":       func(o Options) error { _, err := Collect(o); return err },
		"CollectTable1": func(o Options) error { _, err := CollectTable1(o); return err },
		"GenerateReport": func(o Options) error {
			var report bytes.Buffer
			err := GenerateReport(o, &report)
			if report.Len() > 0 {
				t.Errorf("GenerateReport wrote %d bytes before failing", report.Len())
			}
			return err
		},
	} {
		var progress bytes.Buffer
		o := fast
		o.Workloads = []string{"swaptions", "", "histogram"}
		o.Progress = &progress
		err := run(o)
		if err == nil {
			t.Errorf("%s accepted an empty workload name", name)
			continue
		}
		if n := strings.Count(err.Error(), `unknown workload ""`); n != 1 {
			t.Errorf("%s: error names the workload %d times: %v", name, n, err)
		}
		if progress.Len() > 0 {
			t.Errorf("%s ran cells before rejecting the list:\n%s", name, progress.String())
		}
	}
}
