// Command protozoa drives the simulator: it reproduces the paper's
// evaluation (Table 1, Figures 9-16, the Section 3.6 random tester) and
// exposes the simulator's observability views, one subcommand per job.
//
// Usage:
//
//	protozoa <subcommand> [flags]
//
// The subcommands:
//
//	sim      run one workload under one protocol and print the measurement report
//	sweep    run a protocols x workloads x knobs x regions grid as CSV
//	figs     regenerate the evaluation figures (9-15, and 16 = miss classes)
//	table1   regenerate Table 1: MESI as the fixed block size sweeps 16-128 B
//	report   reproduce the whole evaluation as one markdown document
//	verify   run the random protocol tester (Section 3.6)
//	trace    capture, inspect and replay .pztr trace files
//	profile  print the Section 2 sharing and locality profile
//	inspect  reconstruct protocol transactions from a sim -flight log
//	version  print build provenance (result-cache schema and code stamp)
//
// `protozoa <subcommand> -h` lists a subcommand's flags. The flags
// several subcommands share (-cores, -scale, -seed, -jobs, -progress,
// -cache-dir, -cpuprofile, -memprofile) mean the same thing, and are
// checked the same way, wherever they appear.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"protozoa"
	"protozoa/internal/core"
	"protozoa/internal/resultcache"
	"protozoa/internal/runner"
)

// subcommands is the command table, in the order usage lists it.
var subcommands = []struct {
	name, about string
	run         func(args []string) error
}{
	{"sim", "run one workload under one protocol and print the measurement report", sim},
	{"sweep", "run a protocols x workloads x knobs x regions grid as CSV", sweep},
	{"figs", "regenerate the evaluation figures (9-15, and 16 = miss classes)", figs},
	{"table1", "regenerate Table 1: MESI as the fixed block size sweeps 16-128 B", table1},
	{"report", "reproduce the whole evaluation as one markdown document", report},
	{"verify", "run the random protocol tester (Section 3.6)", verify},
	{"trace", "capture, inspect and replay .pztr trace files", traceCmd},
	{"profile", "print the Section 2 sharing and locality profile", profileCmd},
	{"inspect", "reconstruct protocol transactions from a sim -flight log", inspect},
	{"version", "print build provenance (result-cache schema and code stamp)", version},
}

func main() {
	if len(os.Args) > 1 {
		for _, c := range subcommands {
			if c.name != os.Args[1] {
				continue
			}
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "protozoa %s: %v\n", c.name, err)
				os.Exit(1)
			}
			return
		}
		if os.Args[1] == "help" {
			usage(os.Stdout)
			return
		}
		fmt.Fprintf(os.Stderr, "protozoa: unknown subcommand %q\n", os.Args[1])
	}
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: protozoa <subcommand> [flags]   (protozoa <subcommand> -h lists its flags)")
	fmt.Fprintln(w, "\nsubcommands:")
	for _, c := range subcommands {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.about)
	}
}

// flags is one subcommand's flag set. The shared flags are declared
// only by the group methods below, each subcommand passing in its own
// defaults, and parse validates every shared flag that was declared; a
// group the subcommand does not take leaves its fields nil.
type flags struct {
	*flag.FlagSet
	cores, scale, jobs     *int
	seed                   *uint64
	progress               *bool
	workloads, cacheDir    *string
	cpuprofile, memprofile *string
}

func newFlags(sub string) *flags {
	return &flags{FlagSet: flag.NewFlagSet("protozoa "+sub, flag.ExitOnError)}
}

// machine declares -cores and, when scale > 0, -scale with that default.
func (f *flags) machine(scale int) *flags {
	f.cores = f.Int("cores", 16, "number of cores (1, 2, 4, or 16)")
	if scale > 0 {
		f.scale = f.Int("scale", scale, "workload iteration multiplier (at least 1)")
	}
	return f
}

// grid declares the flags of a run over internal/runner's pool: -seed
// with the given default, -jobs, -progress and -cache-dir.
func (f *flags) grid(seed uint64) *flags {
	f.seed = f.Uint64("seed", seed, "random seed (for workload traces, 0 = canonical)")
	f.jobs = f.Int("jobs", runtime.GOMAXPROCS(0), "concurrent cells (output is identical at any setting)")
	f.progress = f.Bool("progress", false, "stream per-cell wall-time/event-count lines and a summary to stderr")
	f.cacheDir = f.String("cache-dir", "", "result-cache directory; warm re-runs and interrupted runs resume from it (empty = no cache)")
	return f
}

// matrix declares machine(scale), grid(0) and -workloads with the
// given default: the flags of a workload x protocol matrix.
func (f *flags) matrix(scale int, workloads string) *flags {
	f.machine(scale).grid(0)
	f.workloads = f.String("workloads", workloads, "comma-separated workloads (empty = the full suite)")
	return f
}

// profiles declares the -cpuprofile/-memprofile pair.
func (f *flags) profiles() *flags {
	f.cpuprofile = f.String("cpuprofile", "", "write a CPU profile to this file")
	f.memprofile = f.String("memprofile", "", "write a heap profile to this file at exit")
	return f
}

// startProfiles starts the -cpuprofile/-memprofile pair that profiles
// declared. The subcommand defers stop(&err) on its named error
// result: stop flushes both profiles and reports a profile failure
// when the subcommand itself succeeded.
func (f *flags) startProfiles() (stop func(err *error), err error) {
	stopProfiles, err := runner.StartProfiles(*f.cpuprofile, *f.memprofile)
	if err != nil {
		return nil, err
	}
	return func(err *error) {
		if perr := stopProfiles(); *err == nil {
			*err = perr
		}
	}, nil
}

// workloadList is the -workloads value as a list: nil, meaning the
// full suite, when the flag is empty.
func (f *flags) workloadList() []string {
	if *f.workloads == "" {
		return nil
	}
	return strings.Split(*f.workloads, ",")
}

// parse parses args and validates the shared flags that were declared.
func (f *flags) parse(args []string) error {
	f.Parse(args) // flag.ExitOnError: a malformed flag exits 2 with usage
	if f.cores != nil {
		var scratch core.Config
		if err := runner.ConfigureCores(&scratch, *f.cores); err != nil {
			return err
		}
	}
	if f.scale != nil && *f.scale < 1 {
		return fmt.Errorf("-scale must be at least 1 (got %d)", *f.scale)
	}
	return nil
}

// pool builds a grid subcommand's worker pool, over the -cache-dir
// result cache when one is named.
func (f *flags) pool() (runner.Pool, error) {
	p := runner.Pool{Jobs: *f.jobs}
	if *f.progress {
		p.Progress = os.Stderr
	}
	var err error
	if *f.cacheDir != "" {
		p.Cache, err = resultcache.Open(*f.cacheDir)
	}
	return p, err
}

// runMatrix parses a matrix subcommand's args and runs body over the
// run options they set, under the -cpuprofile/-memprofile pair.
func (f *flags) runMatrix(args []string, body func(protozoa.Options) error) (err error) {
	if err := f.parse(args); err != nil {
		return err
	}
	p, err := f.pool()
	if err != nil {
		return err
	}
	stop, err := f.startProfiles()
	if err != nil {
		return err
	}
	defer stop(&err)
	return body(protozoa.Options{Cores: *f.cores, Scale: *f.scale, TraceSeed: *f.seed,
		Jobs: p.Jobs, Progress: p.Progress, Cache: p.Cache, Workloads: f.workloadList()})
}

// version prints the build provenance: two binaries printing the same
// string derive the same result-cache keys.
func version([]string) error {
	fmt.Println(runner.VersionString())
	return nil
}
