package runner

import (
	"reflect"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/workloads"
)

func TestParseProtocolsDeduplicates(t *testing.T) {
	tests := []struct {
		in   string
		want []core.Protocol
	}{
		{"mesi", []core.Protocol{core.MESI}},
		{"mesi,mesi", []core.Protocol{core.MESI}},
		{"all", core.AllProtocols},
		// The old sweep parser appended MESI twice here, doubling its rows.
		{"all,mesi", core.AllProtocols},
		{"mw,all", []core.Protocol{core.ProtozoaMW, core.MESI, core.ProtozoaSW, core.ProtozoaSWMR}},
		{"sw+mr, MW ", []core.Protocol{core.ProtozoaSWMR, core.ProtozoaMW}},
		// The long spellings the single-protocol flags always accepted.
		{"protozoa-sw", []core.Protocol{core.ProtozoaSW}},
		{"Protozoa-SW+MR,protozoa-mw", []core.Protocol{core.ProtozoaSWMR, core.ProtozoaMW}},
		{"swmr,protozoa-sw+mr", []core.Protocol{core.ProtozoaSWMR}},
	}
	for _, tc := range tests {
		got, err := ParseProtocols(tc.in)
		if err != nil {
			t.Errorf("ParseProtocols(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseProtocols(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := ParseProtocols("mesi,mosi"); err == nil {
		t.Error("unknown protocol not rejected")
	}
}

func TestParseProtocol(t *testing.T) {
	for in, want := range map[string]core.Protocol{
		"mesi": core.MESI, "sw": core.ProtozoaSW, "protozoa-sw": core.ProtozoaSW,
		"swmr": core.ProtozoaSWMR, "sw+mr": core.ProtozoaSWMR, "protozoa-sw+mr": core.ProtozoaSWMR,
		"mw": core.ProtozoaMW, "Protozoa-MW": core.ProtozoaMW, " MESI ": core.MESI,
	} {
		if got, err := ParseProtocol(in); err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v, want %v", in, got, err, want)
		}
	}
	// One protocol only: the list shorthands belong to ParseProtocols.
	for _, bad := range []string{"all", "mesi,mw", "", "protozoa-swmr", "mosi"} {
		if _, err := ParseProtocol(bad); err == nil {
			t.Errorf("ParseProtocol(%q) accepted", bad)
		}
	}
}

func TestParseRegions(t *testing.T) {
	got, err := ParseRegions(" 32,64 ,128")
	if err != nil || !reflect.DeepEqual(got, []int{32, 64, 128}) {
		t.Errorf("ParseRegions = %v, %v", got, err)
	}
	// A repeated size used to survive parsing and duplicate every row of
	// its sweep slice; first-appearance order must win.
	got, err = ParseRegions("64,32,64,32,64")
	if err != nil || !reflect.DeepEqual(got, []int{64, 32}) {
		t.Errorf("ParseRegions with duplicates = %v, %v, want [64 32]", got, err)
	}
	for _, bad := range []string{"x", "", "64,-8", "64,0", "24", "64,24", "256"} {
		if _, err := ParseRegions(bad); err == nil {
			t.Errorf("ParseRegions(%q) accepted", bad)
		}
	}
}

func TestParseKnobs(t *testing.T) {
	got, err := ParseKnobs("baseline, threehop,baseline")
	if err != nil || !reflect.DeepEqual(got, []string{"baseline", "threehop"}) {
		t.Errorf("ParseKnobs = %v, %v", got, err)
	}
	if _, err := ParseKnobs("baseline,warp-drive"); err == nil {
		t.Error("unknown knob not rejected")
	}
	names := KnobNames()
	if len(names) != len(Knobs) {
		t.Errorf("KnobNames lists %d of %d knobs", len(names), len(Knobs))
	}
}

func TestConfigureCores(t *testing.T) {
	for cores, dims := range map[int][2]int{16: {4, 4}, 4: {2, 2}, 2: {2, 1}, 1: {1, 1}} {
		cfg := core.DefaultConfig(core.MESI)
		if err := ConfigureCores(&cfg, cores); err != nil {
			t.Fatalf("ConfigureCores(%d): %v", cores, err)
		}
		if cfg.Cores != cores || cfg.Noc.DimX != dims[0] || cfg.Noc.DimY != dims[1] {
			t.Errorf("cores=%d: got cores=%d mesh %dx%d, want %dx%d",
				cores, cfg.Cores, cfg.Noc.DimX, cfg.Noc.DimY, dims[0], dims[1])
		}
	}
	var cfg core.Config
	if err := ConfigureCores(&cfg, 8); err == nil {
		t.Error("8 cores accepted")
	}
}

func TestResolveWorkloads(t *testing.T) {
	names := func(in []string) []string {
		t.Helper()
		specs, err := ResolveWorkloads(in)
		if err != nil {
			t.Fatalf("ResolveWorkloads(%q): %v", in, err)
		}
		var out []string
		for _, s := range specs {
			out = append(out, s.Name)
		}
		return out
	}
	if got := names(nil); !reflect.DeepEqual(got, workloads.Names()) {
		t.Errorf("nil list resolved to %v, want the suite", got)
	}
	if got, want := names([]string{" fft", "barnes ", "fft", "micro-ticket-lock"}),
		[]string{"fft", "barnes", "micro-ticket-lock"}; !reflect.DeepEqual(got, want) {
		t.Errorf("resolved to %v, want %v", got, want)
	}
	for _, bad := range [][]string{{"fft", ""}, {"no-such-workload"}} {
		if _, err := ResolveWorkloads(bad); err == nil {
			t.Errorf("ResolveWorkloads(%q) accepted a bad name", bad)
		}
	}
}
