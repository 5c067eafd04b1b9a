package main

import (
	"fmt"
	"runtime"

	"protozoa"
)

// workload is one benchmark input set. A repro workload drives the
// whole paper reproduction through protozoa.Collect and CollectTable1;
// a single-run workload builds one machine with protozoa.NewSystem and
// times System.Run.
type workload struct {
	name string
	why  string

	repro bool // the Figures 9-16 + Table 1 grid

	app      string            // single run: the built-in workload simulated
	protocol protozoa.Protocol // single run: the protocol it runs under
	pdes     bool              // single run: Config.Workers = nproc (PDES window loop)

	cores, scale           int // measured size
	smokeCores, smokeScale int // the short smoke size the tests run

	// unlisted, when set, keeps the workload out of BENCHMARK.json and
	// says why; it still runs by name and in the smoke tests.
	unlisted string
}

// reproSmokeApps is the repro grid's workload subset in smoke mode:
// linear-regression carries the pinned paper shapes, swaptions is the
// smallest member of the suite.
var reproSmokeApps = []string{"linear-regression", "swaptions"}

var workloadTable = []workload{
	{
		name:  "repro",
		why:   "the user's headline job: the cold Figures 9-16 + Table 1 grid (224 cells) over runner, harness and obs, across all 28 sharing signatures",
		repro: true,
		cores: 16, scale: 2, smokeCores: 4, smokeScale: 1,
	},
	{
		name: "run-coherent",
		why:  "one coherence-heavy run (canneal, MESI): misses, invalidation fan-out and control messages load the directory, the NoC and the Msg pool",
		app:  "canneal", protocol: protozoa.MESI,
		cores: 16, scale: 20, smokeCores: 16, smokeScale: 1,
	},
	{
		name: "run-private",
		why:  "one private streaming run (blackscholes, Protozoa-MW): no invalidations, so work falls on L1 fills, Amoeba insert/evict and the predictor",
		app:  "blackscholes", protocol: protozoa.ProtozoaMW,
		cores: 16, scale: 20, smokeCores: 16, smokeScale: 1,
		unlisted: "its 10-run spread reached 0.29-0.34 on a shared 2-CPU host; dropped so the listed workloads get longer runs (README.md)",
	},
	{
		name: "run-pdes",
		why:  "run-coherent's inputs under the PDES window loop with workers = nproc: the only workload that runs core/pdes.go on more than one CPU",
		app:  "canneal", protocol: protozoa.MESI, pdes: true,
		cores: 16, scale: 20, smokeCores: 16, smokeScale: 1,
		unlisted: "its run-to-run spread on a shared 2-CPU host exceeds the largest bound a metric may have (README.md)",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// size returns the cores and scale a run uses.
func (w workload) size(smoke bool) (cores, scale int) {
	if smoke {
		return w.smokeCores, w.smokeScale
	}
	return w.cores, w.scale
}

// parallelism is the jobs (repro) or PDES workers (run-pdes) a run
// uses: one per CPU of the host.
func parallelism() int { return runtime.NumCPU() }
