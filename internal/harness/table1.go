package harness

import (
	"errors"
	"fmt"
	"strings"

	"protozoa/internal/core"
	"protozoa/internal/runner"
)

// BlockSizes is the Table 1 sweep: conventional MESI with fixed blocks
// of 16 to 128 bytes (block = region = coherence granularity).
var BlockSizes = []int{16, 32, 64, 128}

// Table1Cell holds one workload x block-size measurement.
type Table1Cell struct {
	MPKI    float64
	Inv     uint64
	UsedPct float64
}

// Table1Result is the full sweep.
type Table1Result struct {
	Workloads []string
	Cells     map[string]map[int]Table1Cell // workload -> block size
}

// CollectTable1 sweeps MESI across the four block sizes, fanning the
// workload x block-size cells out over Options.Jobs workers.
func CollectTable1(o Options) (*Table1Result, error) {
	res := &Table1Result{
		Workloads: o.workloadList(),
		Cells:     make(map[string]map[int]Table1Cell),
	}
	var cells []runner.Cell
	var inputs runner.Inputs
	for _, w := range res.Workloads {
		for _, bs := range BlockSizes {
			cfg, err := table1Config(bs, o)
			cells = append(cells, gridCell(runner.Cell{
				Label:    fmt.Sprintf("table1 %s@%dB", w, bs),
				Workload: w,
				Protocol: core.MESI,
				Region:   bs,
			}, &inputs, cfg, err, o))
		}
	}
	results, _ := o.pool().Run(cells)
	var errs []error
	i := 0
	for _, w := range res.Workloads {
		res.Cells[w] = make(map[int]Table1Cell)
		for _, bs := range BlockSizes {
			r := results[i]
			i++
			if r.Err != nil {
				errs = append(errs, r.Err)
				continue
			}
			st := r.Stats
			res.Cells[w][bs] = Table1Cell{MPKI: st.MPKI(), Inv: st.Invalidations, UsedPct: st.UsedPct()}
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("harness: %w", errors.Join(errs...))
	}
	return res, nil
}

// table1Config is cellConfig with the Table 1 twist: the region size
// is the fixed MESI block size under sweep.
func table1Config(blockBytes int, o Options) (core.Config, error) {
	cfg, err := cellConfig(core.MESI, o)
	if err != nil {
		return core.Config{}, err
	}
	cfg.RegionBytes = blockBytes
	cfg.Workers = 0 // Table 1 cells always use the sequential engine
	return cfg, nil
}

// trend classifies a metric change with the paper's Table 1 notation:
// "~" within 10%, single arrow 10-33%, double 33-50%, triple over 50%.
func trend(from, to float64) string {
	if from == 0 {
		if to == 0 {
			return "~"
		}
		return "^^"
	}
	r := to / from
	switch {
	case r >= 1.50:
		return "^^^"
	case r >= 1.33:
		return "^^"
	case r >= 1.10:
		return "^"
	case r > 0.90:
		return "~"
	case r > 0.67:
		return "v"
	case r > 0.50:
		return "vv"
	default:
		return "vvv"
	}
}

// Optimal picks the block size minimizing MPKI; when the best two are
// within 5% it reports "*" (no application-wide optimum), as the paper
// does for cholesky, kmeans, etc.
func (r *Table1Result) Optimal(w string) string {
	best, second := 0, 0
	bestV, secondV := 0.0, 0.0
	for _, bs := range BlockSizes {
		v := r.Cells[w][bs].MPKI
		if best == 0 || v < bestV {
			second, secondV = best, bestV
			best, bestV = bs, v
		} else if second == 0 || v < secondV {
			second, secondV = bs, v
		}
	}
	_ = second
	if bestV == 0 {
		return "*"
	}
	if secondV > 0 && (secondV-bestV)/bestV < 0.05 {
		return "*"
	}
	return fmt.Sprintf("%d", best)
}

// Render prints the sweep in the paper's Table 1 format: per-workload
// MPKI and INV trends between adjacent block sizes, the optimal size,
// and the used-data percentage at 64 bytes.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: MESI behaviour vs fixed block size (trends: ~ <10%%, ^/v 10-33%%, ^^/vv 33-50%%, ^^^/vvv >50%%)\n")
	fmt.Fprintf(&b, "%-18s %-10s %-10s %-10s %-8s %-7s\n",
		"app", "16->32", "32->64", "64->128", "optimal", "used%@64")
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "%-18s", w)
		for i := 0; i+1 < len(BlockSizes); i++ {
			a, c := r.Cells[w][BlockSizes[i]], r.Cells[w][BlockSizes[i+1]]
			fmt.Fprintf(&b, " %-4s %-4s ", trend(a.MPKI, c.MPKI), trend(float64(a.Inv), float64(c.Inv)))
		}
		fmt.Fprintf(&b, " %-7s %6.0f%%\n", r.Optimal(w), r.Cells[w][64].UsedPct)
	}
	fmt.Fprintf(&b, "(per pair: MPKI trend then INV trend)\n")
	return b.String()
}
