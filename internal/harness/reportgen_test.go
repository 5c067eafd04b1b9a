package harness

import (
	"strings"
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/profile"
	"protozoa/internal/workloads"
)

func TestGenerateReport(t *testing.T) {
	var b strings.Builder
	o := Options{Cores: 4, Scale: 1, Workloads: []string{"swaptions", "histogram"}}
	if err := GenerateReport(o, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# Protozoa reproduction report",
		"Protocol verification",
		"quiescent scans: OK",
		"Section 2: sharing and locality profile",
		"Table 1: MESI vs fixed block size",
		"Figure 9: traffic breakdown",
		"Figure 15: interconnect energy",
		"Headline geomeans vs MESI",
		"Section 2 profile vs attribution: ",
		" mismatches.",
		"histogram",
		"swaptions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Every protocol verified.
	for _, p := range []string{"MESI", "Protozoa-SW", "Protozoa-SW+MR", "Protozoa-MW"} {
		if !strings.Contains(out, p) {
			t.Errorf("report missing protocol %s", p)
		}
	}
}

// TestReportProfilesTraceSeed pins the report's Section 2 table to the
// trace the rest of the report simulates: at a non-zero -seed its rows
// are the profiles of that seed's records, not of the canonical trace,
// and they reconcile with the seed's attribution.
func TestReportProfilesTraceSeed(t *testing.T) {
	o := Options{Cores: 4, Scale: 1, Workloads: []string{"apache", "canneal"}, TraceSeed: 5}
	var b strings.Builder
	if err := GenerateReport(o, &b); err != nil {
		t.Fatal(err)
	}
	want, seed0 := profile.SummaryHeader(), profile.SummaryHeader()
	for _, w := range o.Workloads {
		spec := workloads.MustGet(w)
		want += profile.Analyze(spec.Records(o.Cores, o.Scale, o.TraceSeed), mem.DefaultGeometry).SummaryRow(w)
		seed0 += profile.Analyze(spec.Records(o.Cores, o.Scale, 0), mem.DefaultGeometry).SummaryRow(w)
	}
	if want == seed0 {
		t.Fatal("seed 5 profiles equal seed 0's; the test cannot tell the traces apart")
	}
	out := b.String()
	if !strings.Contains(out, "sharing and locality profile\n\n```\n"+want+"```") {
		t.Errorf("Section 2 rows are not seed %d's profiles; want\n%s\nin\n%s", o.TraceSeed, want, out)
	}
	if !strings.Contains(out, " 0 mismatches.") {
		t.Errorf("seed %d profile does not reconcile with its attribution:\n%s", o.TraceSeed, out)
	}
}

func TestVerifyProtocolRejectsBadCores(t *testing.T) {
	if _, _, err := verifyProtocol(0, 7); err == nil {
		t.Error("bad core count accepted")
	}
}
