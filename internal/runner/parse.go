package runner

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"protozoa/internal/core"
	"protozoa/internal/noc"
	"protozoa/internal/workloads"
)

// ParseProtocol parses one protocol name, case-insensitively: mesi,
// sw (or protozoa-sw), swmr (or sw+mr, protozoa-sw+mr), and mw (or
// protozoa-mw).
func ParseProtocol(s string) (core.Protocol, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "mesi":
		return core.MESI, nil
	case "sw", "protozoa-sw":
		return core.ProtozoaSW, nil
	case "swmr", "sw+mr", "protozoa-sw+mr":
		return core.ProtozoaSWMR, nil
	case "mw", "protozoa-mw":
		return core.ProtozoaMW, nil
	}
	return 0, fmt.Errorf("unknown protocol %q (mesi, sw, swmr, mw)", s)
}

// ParseProtocols parses a comma-separated protocol list: any name
// ParseProtocol accepts, and the shorthand all. Duplicates are dropped
// while first-appearance order is preserved, so "-protocols all,mesi"
// simulates MESI once, not twice.
func ParseProtocols(s string) ([]core.Protocol, error) {
	var out []core.Protocol
	seen := make(map[core.Protocol]bool)
	add := func(p core.Protocol) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, tok := range strings.Split(s, ",") {
		if strings.EqualFold(strings.TrimSpace(tok), "all") {
			for _, p := range core.AllProtocols {
				add(p)
			}
			continue
		}
		p, err := ParseProtocol(tok)
		if err != nil {
			return nil, err
		}
		add(p)
	}
	return out, nil
}

// ResolveWorkloads resolves a grid's workload list: nil or empty is
// the full suite; each name is trimmed of spaces, a workload listed
// twice keeps its first appearance only (so it neither duplicates rows
// nor counts twice in a geomean), and an unknown name is an error
// before any cell runs.
func ResolveWorkloads(names []string) ([]workloads.Spec, error) {
	if len(names) == 0 {
		return workloads.All(), nil
	}
	var out []workloads.Spec
	seen := make(map[string]bool)
	for _, name := range names {
		spec, err := workloads.Get(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if !seen[spec.Name] {
			seen[spec.Name] = true
			out = append(out, spec)
		}
	}
	return out, nil
}

// ParseRegions parses a comma-separated list of RMAX region sizes in
// bytes, deduplicating while preserving first-appearance order — a
// repeated size would otherwise duplicate every row of its sweep slice.
func ParseRegions(s string) ([]int, error) {
	var out []int
	seen := make(map[int]bool)
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad region size %q", tok)
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// Knobs is the sweepable design-knob vocabulary: each knob mutates a
// default config toward one §6 extension or NoC alternative.
var Knobs = map[string]func(*core.Config){
	"baseline":     func(*core.Config) {},
	"threehop":     func(c *core.Config) { c.ThreeHop = true },
	"bloom":        func(c *core.Config) { c.Directory = core.DirBloom },
	"merge":        func(c *core.Config) { c.MergeL1Blocks = true },
	"noninclusive": func(c *core.Config) { c.NonInclusiveL2 = true },
	"contention":   func(c *core.Config) { c.Noc.ModelContention = true },
	"ring":         func(c *core.Config) { c.Noc.Topology = noc.TopoRing },
	"crossbar":     func(c *core.Config) { c.Noc.Topology = noc.TopoCrossbar },
}

// KnobNames returns the knob vocabulary sorted, for usage strings.
func KnobNames() []string {
	names := make([]string, 0, len(Knobs))
	for k := range Knobs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ParseKnobs validates a comma-separated knob list against Knobs,
// deduplicating while preserving first-appearance order.
func ParseKnobs(s string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	for _, tok := range strings.Split(s, ",") {
		k := strings.TrimSpace(tok)
		if _, ok := Knobs[k]; !ok {
			return nil, fmt.Errorf("unknown knob %q", tok)
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out, nil
}

// ConfigureCores sets cfg.Cores and the matching mesh dimensions for
// the supported core counts (16 keeps the default 4x4 mesh).
func ConfigureCores(cfg *core.Config, cores int) error {
	switch cores {
	case 16:
	case 4:
		cfg.Noc.DimX, cfg.Noc.DimY = 2, 2
	case 2:
		cfg.Noc.DimX, cfg.Noc.DimY = 2, 1
	case 1:
		cfg.Noc.DimX, cfg.Noc.DimY = 1, 1
	default:
		return fmt.Errorf("cores must be 1, 2, 4, or 16 (got %d)", cores)
	}
	cfg.Cores = cores
	return nil
}
