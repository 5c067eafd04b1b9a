package runner

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"protozoa/internal/core"
)

// Grid is the sweep cross product: workloads x protocols x design
// knobs x RMAX region sizes, expanded in row order (workload
// outermost, region innermost) — the order the CSV reports.
type Grid struct {
	Workloads []string        // nil = the full suite
	Protocols []core.Protocol // nil = the full family
	Knobs     []string        // nil = baseline only
	Regions   []int           // nil = the 64 B default
	Cores     int             // 0 = 16
	Scale     int             // 0 = 1
	TraceSeed uint64          // 0 = canonical traces
}

// Cells validates the grid and expands it into runnable cells. Every
// vocabulary error — unknown workload or knob, unsupported core count
// — surfaces here, before any simulation runs.
func (g Grid) Cells() ([]Cell, error) {
	if g.Cores == 0 {
		g.Cores = 16
	}
	if g.Scale == 0 {
		g.Scale = 1
	}
	if len(g.Protocols) == 0 {
		g.Protocols = core.AllProtocols
	}
	if len(g.Knobs) == 0 {
		g.Knobs = []string{"baseline"}
	}
	if len(g.Regions) == 0 {
		g.Regions = []int{64}
	}
	for _, k := range g.Knobs {
		if _, ok := Knobs[k]; !ok {
			return nil, fmt.Errorf("unknown knob %q", k)
		}
	}
	specs, err := ResolveWorkloads(g.Workloads)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	var inputs Inputs // every cell of a workload replays the same records
	for _, spec := range specs {
		for _, p := range g.Protocols {
			for _, knob := range g.Knobs {
				for _, rb := range g.Regions {
					cfg := core.DefaultConfig(p)
					cfg.RegionBytes = rb
					if err := ConfigureCores(&cfg, g.Cores); err != nil {
						return nil, err
					}
					Knobs[knob](&cfg)
					cells = append(cells, inputs.Cell(Cell{
						Label:    fmt.Sprintf("%s/%s/%s/r%d", spec.Name, p, knob, rb),
						Protocol: p,
						Knob:     knob,
						Region:   rb,
						// Attribution backs the util_pct / wasted_bytes /
						// false_shared_regions CSV columns.
						NeedAttrib: true,
					}, spec, cfg, g.Scale, g.TraceSeed))
				}
			}
		}
	}
	return cells, nil
}

// CSVHeader is the sweep CSV schema.
var CSVHeader = []string{
	"workload", "protocol", "knob", "region_bytes",
	"misses", "mpki", "traffic_bytes", "used_pct", "flit_hops", "exec_cycles",
	"miss_lat_p50", "miss_lat_p95", "miss_lat_p99",
	"util_pct", "wasted_bytes", "false_shared_regions",
}

// CSVRow renders one completed cell as a sweep CSV record. The
// attribution columns render empty when the cell ran without a
// tracker, so ad-hoc grids stay loadable by the same schema.
func CSVRow(r Result) []string {
	st := r.Stats
	utilPct, wastedBytes, falseShared := "", "", ""
	if tr := r.Attrib; tr != nil {
		utilPct = strconv.FormatFloat(tr.UtilPct(), 'f', 1, 64)
		wastedBytes = strconv.FormatUint(tr.WastedBytes(), 10)
		falseShared = strconv.FormatUint(tr.FalseSharedRegions(), 10)
	}
	return []string{
		r.Cell.Workload, r.Cell.Protocol.String(), r.Cell.Knob, strconv.Itoa(r.Cell.Region),
		strconv.FormatUint(st.L1Misses, 10),
		strconv.FormatFloat(st.MPKI(), 'f', 3, 64),
		strconv.FormatUint(st.TrafficTotal(), 10),
		strconv.FormatFloat(st.UsedPct(), 'f', 1, 64),
		strconv.FormatUint(st.FlitHops, 10),
		strconv.FormatUint(st.ExecCycles, 10),
		strconv.FormatUint(st.MissLatencyP(50), 10),
		strconv.FormatUint(st.MissLatencyP(95), 10),
		strconv.FormatUint(st.MissLatencyP(99), 10),
		utilPct, wastedBytes, falseShared,
	}
}

// WriteCSV emits the header and every completed cell's row in cell
// order, flushing before returning so finished rows survive even when
// other cells failed (the caller reports those separately).
func WriteCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if r.Stats == nil {
			// A cell with neither a result nor an error never ran; a
			// silently shorter CSV would misreport the sweep as complete.
			return fmt.Errorf("runner: cell %q has no stats and no error (never ran?)", r.Cell.Label)
		}
		if err := cw.Write(CSVRow(r)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
