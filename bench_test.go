package protozoa_test

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its experiment at the paper's 16-core
// configuration, prints the same rows the paper reports (once), and
// publishes the headline numbers as benchmark metrics:
//
//	BenchmarkTable1BlockSweep          Table 1
//	BenchmarkFig9TrafficBreakdown      Figure 9
//	BenchmarkFig10ControlBreakdown     Figure 10
//	BenchmarkFig11OwnerDistribution    Figure 11
//	BenchmarkFig12BlockSizeDistribution Figure 12
//	BenchmarkFig13MissRate             Figure 13
//	BenchmarkFig14ExecutionTime        Figure 14
//	BenchmarkFig15FlitHops             Figure 15
//
// plus the DESIGN.md ablations (predictor and region size) and a raw
// simulator-throughput bench per protocol.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"protozoa"
	"protozoa/internal/core"
	"protozoa/internal/harness"
	"protozoa/internal/mem"
	"protozoa/internal/noc"
	"protozoa/internal/predictor"
	"protozoa/internal/stats"
	"protozoa/internal/workloads"
)

// wl resolves a built-in workload spec.
func wl(name string) (workloads.Spec, error) { return workloads.Get(name) }

var (
	matrixOnce sync.Once
	matrix     *protozoa.Matrix
	matrixErr  error
)

// benchMatrix collects the full workload x protocol grid once and
// shares it across the figure benches.
func benchMatrix(b *testing.B) *protozoa.Matrix {
	b.Helper()
	matrixOnce.Do(func() {
		matrix, matrixErr = protozoa.Collect(protozoa.Options{Cores: 16, Scale: 1})
	})
	if matrixErr != nil {
		b.Fatal(matrixErr)
	}
	return matrix
}

var printOnce sync.Map

// emit prints an experiment's rows exactly once per test binary run.
func emit(name, out string) {
	if _, dup := printOnce.LoadOrStore(name, true); !dup {
		fmt.Fprintf(os.Stdout, "\n%s\n", out)
	}
}

func BenchmarkTable1BlockSweep(b *testing.B) {
	var res *protozoa.Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = protozoa.CollectTable1(protozoa.Options{Cores: 16, Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	emit("table1", res.Render())
	// Headline: linear-regression's used% collapse from 16B to 128B.
	b.ReportMetric(res.Cells["linear-regression"][16].UsedPct, "linreg-used%@16B")
	b.ReportMetric(res.Cells["linear-regression"][128].UsedPct, "linreg-used%@128B")
	b.ReportMetric(res.Cells["canneal"][64].UsedPct, "canneal-used%@64B")
}

func BenchmarkFig9TrafficBreakdown(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		_ = m.Fig9Traffic()
	}
	emit("fig9", m.Fig9Traffic())
	for _, p := range []protozoa.Protocol{protozoa.ProtozoaSW, protozoa.ProtozoaSWMR, protozoa.ProtozoaMW} {
		r := m.GeoMeanRatio(p, harness.TrafficBytes)
		b.ReportMetric(100*(1-r), "traffic-reduction%-"+p.String())
	}
}

func BenchmarkFig10ControlBreakdown(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		_ = m.Fig10Control()
	}
	emit("fig10", m.Fig10Control())
	ctrl := func(s *stats.Stats) float64 { return float64(s.ControlTotal()) }
	b.ReportMetric(100*m.GeoMeanRatio(protozoa.ProtozoaSW, ctrl), "SW-ctrl%-of-MESI")
	b.ReportMetric(100*m.GeoMeanRatio(protozoa.ProtozoaMW, ctrl), "MW-ctrl%-of-MESI")
}

func BenchmarkFig11OwnerDistribution(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		_ = m.Fig11Owners()
	}
	emit("fig11", m.Fig11Owners())
	_, _, multi := m.Get("string-match", protozoa.ProtozoaMW).OwnerMix()
	b.ReportMetric(multi, "string-match->1owner%")
}

func BenchmarkFig12BlockSizeDistribution(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		_ = m.Fig12BlockDist()
	}
	emit("fig12", m.Fig12BlockDist())
	d := m.Get("blackscholes", protozoa.ProtozoaMW).BlockDistBuckets()
	b.ReportMetric(d[0], "blackscholes-1-2word%")
	d = m.Get("matrix-multiply", protozoa.ProtozoaMW).BlockDistBuckets()
	b.ReportMetric(d[3], "matmul-7-8word%")
}

func BenchmarkFig13MissRate(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		_ = m.Fig13MPKI()
	}
	emit("fig13", m.Fig13MPKI())
	misses := func(s *stats.Stats) float64 { return float64(s.L1Misses) }
	b.ReportMetric(100*(1-m.GeoMeanRatio(protozoa.ProtozoaSW, misses)), "SW-miss-reduction%")
	b.ReportMetric(100*(1-m.GeoMeanRatio(protozoa.ProtozoaMW, misses)), "MW-miss-reduction%")
	lr := float64(m.Get("linear-regression", protozoa.ProtozoaMW).L1Misses) /
		float64(m.Get("linear-regression", protozoa.MESI).L1Misses)
	b.ReportMetric(100*(1-lr), "linreg-MW-miss-reduction%")
}

func BenchmarkFig14ExecutionTime(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		_ = m.Fig14Exec()
	}
	emit("fig14", m.Fig14Exec())
	b.ReportMetric(m.GeoMeanRatio(protozoa.ProtozoaMW, harness.ExecCycles), "MW-exec-vs-MESI")
	lr := float64(m.Get("linear-regression", protozoa.MESI).ExecCycles) /
		float64(m.Get("linear-regression", protozoa.ProtozoaMW).ExecCycles)
	b.ReportMetric(lr, "linreg-MW-speedup-x")
}

func BenchmarkFig15FlitHops(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		_ = m.Fig15FlitHops()
	}
	emit("fig15", m.Fig15FlitHops())
	for _, p := range []protozoa.Protocol{protozoa.ProtozoaSW, protozoa.ProtozoaSWMR, protozoa.ProtozoaMW} {
		r := m.GeoMeanRatio(p, harness.FlitHops)
		b.ReportMetric(100*(1-r), "flithop-reduction%-"+p.String())
	}
}

// BenchmarkAblationPredictor compares the fetch-range policies on the
// Protozoa-SW substrate: fixed full-region, the PC spatial predictor,
// and a pessimal always-one-word policy (DESIGN.md ablation).
func BenchmarkAblationPredictor(b *testing.B) {
	type policy struct {
		name     string
		override func(int) predictor.Predictor
		spatial  bool
	}
	geom := mem.DefaultGeometry
	policies := []policy{
		{"fixed-region", func(int) predictor.Predictor { return predictor.Fixed{Geom: geom} }, false},
		{"pc-spatial", nil, true},
		{"region-history", func(int) predictor.Predictor { return predictor.NewRegion(geom, predictor.DefaultTableSize) }, false},
		{"one-word", func(int) predictor.Predictor { return oneWordPredictor{} }, false},
	}
	for _, pol := range policies {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			var traffic, misses float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.ProtozoaSW)
				cfg.SpatialPredictor = pol.spatial
				cfg.PredictorOverride = pol.override
				st := runWorkloadWith(b, cfg, "blackscholes")
				traffic = float64(st.TrafficTotal())
				misses = float64(st.L1Misses)
			}
			b.ReportMetric(traffic, "traffic-bytes")
			b.ReportMetric(misses, "misses")
		})
	}
}

// BenchmarkAblationRegionSize varies RMAX for Protozoa-MW (DESIGN.md
// ablation): the directory granularity and maximum block size.
func BenchmarkAblationRegionSize(b *testing.B) {
	for _, rb := range []int{32, 64, 128} {
		rb := rb
		b.Run(fmt.Sprintf("RMAX%d", rb), func(b *testing.B) {
			var traffic float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.ProtozoaMW)
				cfg.RegionBytes = rb
				st := runWorkloadWith(b, cfg, "histogram")
				traffic = float64(st.TrafficTotal())
			}
			b.ReportMetric(traffic, "traffic-bytes")
		})
	}
}

// BenchmarkExtensionThreeHop compares 4-hop and 3-hop transaction
// routing (Section 6) on a migratory-sharing workload.
func BenchmarkExtensionThreeHop(b *testing.B) {
	for _, threeHop := range []bool{false, true} {
		name := "4hop"
		if threeHop {
			name = "3hop"
		}
		threeHop := threeHop
		b.Run(name, func(b *testing.B) {
			var cycles, forwards float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.ProtozoaMW)
				cfg.ThreeHop = threeHop
				st := runWorkloadWith(b, cfg, "barnes")
				cycles = float64(st.ExecCycles)
				forwards = float64(st.DirectForwards)
			}
			b.ReportMetric(cycles, "exec-cycles")
			b.ReportMetric(forwards, "direct-forwards")
		})
	}
}

// BenchmarkExtensionBloomDirectory compares the precise in-cache
// directory with the Section 6 TL-style bloom filter: same misses,
// extra false-positive probe traffic.
func BenchmarkExtensionBloomDirectory(b *testing.B) {
	for _, kind := range []core.DirectoryKind{core.DirPrecise, core.DirBloom} {
		name := "precise"
		if kind == core.DirBloom {
			name = "bloom"
		}
		kind := kind
		b.Run(name, func(b *testing.B) {
			var ctrl, nacks float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.ProtozoaMW)
				cfg.Directory = kind
				// A deliberately small filter (16 buckets x 2 hashes) so
				// aliasing-induced false-positive probes are visible.
				cfg.BloomHashes = 2
				cfg.BloomBuckets = 16
				st := runWorkloadWith(b, cfg, "histogram")
				ctrl = float64(st.ControlTotal())
				nacks = float64(st.ControlBytes[stats.ClassNACK])
			}
			b.ReportMetric(ctrl, "control-bytes")
			b.ReportMetric(nacks, "nack-bytes")
		})
	}
}

// BenchmarkExtensionBlockMerging measures Amoeba block coalescing on
// the fragmentation-prone apache workload.
func BenchmarkExtensionBlockMerging(b *testing.B) {
	for _, merge := range []bool{false, true} {
		name := "trim-only"
		if merge {
			name = "merge"
		}
		merge := merge
		b.Run(name, func(b *testing.B) {
			var misses float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.ProtozoaSW)
				cfg.MergeL1Blocks = merge
				st := runWorkloadWith(b, cfg, "apache")
				misses = float64(st.L1Misses)
			}
			b.ReportMetric(misses, "misses")
		})
	}
}

// BenchmarkExtensionContention compares the latency-only mesh with the
// wormhole contention model on a traffic-heavy workload.
func BenchmarkExtensionContention(b *testing.B) {
	for _, contention := range []bool{false, true} {
		name := "latency-only"
		if contention {
			name = "wormhole"
		}
		contention := contention
		b.Run(name, func(b *testing.B) {
			var cycles, stalls float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.MESI)
				cfg.Noc.ModelContention = contention
				st := runWorkloadWith(b, cfg, "canneal")
				cycles = float64(st.ExecCycles)
				stalls = float64(st.LinkStallCycles)
			}
			b.ReportMetric(cycles, "exec-cycles")
			b.ReportMetric(stalls, "link-stall-cycles")
		})
	}
}

// BenchmarkAblationTopology compares interconnect shapes under
// Protozoa-MW: the paper's mesh vs a ring vs an ideal crossbar.
func BenchmarkAblationTopology(b *testing.B) {
	for _, topo := range []noc.Topology{noc.TopoMesh, noc.TopoRing, noc.TopoCrossbar} {
		topo := topo
		b.Run(topo.String(), func(b *testing.B) {
			var hops, cycles float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.ProtozoaMW)
				cfg.Noc.Topology = topo
				st := runWorkloadWith(b, cfg, "streamcluster")
				hops = float64(st.FlitHops)
				cycles = float64(st.ExecCycles)
			}
			b.ReportMetric(hops, "flit-hops")
			b.ReportMetric(cycles, "exec-cycles")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed per
// protocol in simulated accesses per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, p := range protozoa.Protocols() {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var sys *core.System
			for i := 0; i < b.N; i++ {
				sys = runSystemWith(b, core.DefaultConfig(p), "barnes")
			}
			reportThroughput(b, sys)
		})
	}
}

// BenchmarkSimulatorThroughputParallel measures the parallel window
// loop's scaling on a single run: the same workload under the
// sequential engine and under PDES at 1, 2, 4, and 8 workers. The
// workers1 case prices the partitioned machine's window overhead; the
// higher counts show the speedup real parallelism buys back.
func BenchmarkSimulatorThroughputParallel(b *testing.B) {
	for _, w := range []int{0, 1, 2, 4, 8} {
		name := fmt.Sprintf("workers%d", w)
		if w == 0 {
			name = "sequential"
		}
		w := w
		b.Run(name, func(b *testing.B) {
			var sys *core.System
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.ProtozoaMW)
				cfg.Workers = w
				sys = runSystemWith(b, cfg, "barnes")
			}
			reportThroughput(b, sys)
		})
	}
}

// oneWordPredictor always fetches exactly the missing word.
type oneWordPredictor struct{}

func (oneWordPredictor) Predict(_ uint64, _ mem.RegionID, w uint8) mem.Range {
	return mem.OneWord(w)
}
func (oneWordPredictor) Train(uint64, mem.RegionID, uint8, mem.Bitmap, mem.Range) {}

// reportThroughput reports simulated accesses per second over the
// benchmark's b.N runs, each of which ended as sys did, plus the events
// and messages of one run. Those two are deterministic, so
// protozoa-benchdiff -gate fails on any difference from the baseline:
// a change there is a change in what was simulated, not noise. They are
// whole-run totals because `go test` prints a metric of 1000 or more as
// an integer, exactly, but a smaller one (a per-access ratio) to only 4
// significant digits.
func reportThroughput(b *testing.B, sys *core.System) {
	st := sys.Stats()
	b.ReportMetric(float64(st.Accesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
	b.ReportMetric(float64(sys.EventsProcessed()), "events/op")
	b.ReportMetric(float64(st.Messages), "msgs/op")
}

// runWorkloadWith runs one built-in workload on a custom system config.
func runWorkloadWith(b *testing.B, cfg core.Config, workload string) *stats.Stats {
	b.Helper()
	return runSystemWith(b, cfg, workload).Stats()
}

// runSystemWith is runWorkloadWith returning the finished system.
func runSystemWith(b *testing.B, cfg core.Config, workload string) *core.System {
	b.Helper()
	spec, err := wl(workload)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, spec.Streams(cfg.Cores, 1))
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
	return sys
}
