package runner

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/stats"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// countingInputs returns a memo whose generator counts its calls per
// workload.
func countingInputs() (*Inputs, *sync.Map) {
	var calls sync.Map // workload name -> *atomic.Int32
	in := &Inputs{records: func(spec workloads.Spec, cores, scale int, seed uint64) [][]trace.Access {
		n, _ := calls.LoadOrStore(spec.Name, new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
		return spec.Records(cores, scale, seed)
	}}
	return in, &calls
}

// TestInputsGenerateOncePerKey takes every claim of two workloads from
// its own goroutine at once: each key is generated exactly once, every
// taker gets the same records, and the memo ends empty.
func TestInputsGenerateOncePerKey(t *testing.T) {
	const cores, scale, seed, perKey = 4, 1, 7, 8
	in, calls := countingInputs()
	specs := []workloads.Spec{workloads.MustGet("histogram"), workloads.MustGet("fft")}
	var takes []func() [][]trace.Access
	for _, spec := range specs {
		for i := 0; i < perKey; i++ {
			takes = append(takes, in.claim(spec, cores, scale, seed))
		}
	}
	got := make([][][]trace.Access, len(takes))
	var wg sync.WaitGroup
	for i, take := range takes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = take()
		}()
	}
	wg.Wait()

	for _, spec := range specs {
		n, ok := calls.Load(spec.Name)
		if !ok || n.(*atomic.Int32).Load() != 1 {
			t.Errorf("%s generated %v times, want 1", spec.Name, n)
		}
	}
	for i, recs := range got {
		spec := specs[i/perKey]
		if !reflect.DeepEqual(recs, spec.Records(cores, scale, seed)) {
			t.Errorf("take %d: records differ from Records", i)
		}
	}
	if n := len(in.entries); n != 0 {
		t.Errorf("memo holds %d keys after every claim was taken, want 0", n)
	}
}

// TestMachinesShareRecords checks the contract that lets the cells of
// one key share their records: a machine only reads its input. Every
// take of a key is the same records, not a copy; a MESI and a
// Protozoa-MW machine replay them one after the other and then
// concurrently (under -race, any write shows), the records still equal
// a copy taken before the runs, and each machine's stats equal those of
// a machine built from freshly generated records.
func TestMachinesShareRecords(t *testing.T) {
	const cores, scale, seed = 4, 1, 3
	spec := workloads.MustGet("histogram")
	protocols := []core.Protocol{core.MESI, core.ProtozoaMW}
	run := func(p core.Protocol, recs [][]trace.Access) *stats.Stats {
		cfg := core.DefaultConfig(p)
		if err := ConfigureCores(&cfg, cores); err != nil {
			t.Error(err)
			return nil
		}
		sys, err := core.NewSystem(cfg, recs)
		if err == nil {
			err = sys.Run()
		}
		if err != nil {
			t.Errorf("%s: %v", p, err)
			return nil
		}
		return sys.Stats()
	}
	fresh := make(map[core.Protocol]*stats.Stats)
	for _, p := range protocols {
		fresh[p] = run(p, spec.Records(cores, scale, seed))
	}

	var in Inputs
	takes := make([]func() [][]trace.Access, 2*len(protocols))
	for i := range takes {
		takes[i] = in.claim(spec, cores, scale, seed)
	}
	shared := takes[0]()
	before := make([][]trace.Access, len(shared))
	for c := range shared {
		before[c] = append([]trace.Access(nil), shared[c]...)
	}
	check := func(phase string, p core.Protocol, got *stats.Stats) {
		if got != nil && !reflect.DeepEqual(got, fresh[p]) {
			t.Errorf("%s %s: stats differ from a fresh-input build", phase, p)
		}
	}

	for i, p := range protocols {
		recs := shared
		if i > 0 {
			recs = takes[i]()
		}
		if &recs[0][0] != &shared[0][0] {
			t.Fatalf("take %d copied the records", i)
		}
		check("sequential", p, run(p, recs))
	}
	if !reflect.DeepEqual(shared, before) {
		t.Fatal("sequential runs wrote the shared records")
	}

	got := make([]*stats.Stats, len(protocols))
	var wg sync.WaitGroup
	for i, p := range protocols {
		recs := takes[len(protocols)+i]()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(p, recs)
		}()
	}
	wg.Wait()
	for i, p := range protocols {
		check("concurrent", p, got[i])
	}
	if !reflect.DeepEqual(shared, before) {
		t.Error("concurrent runs wrote the shared records")
	}
}

// TestInputsDropAfterLastTake checks a key's lifetime: it stays while
// claims are outstanding, goes with the last take, and a later grid of
// the same key generates afresh.
func TestInputsDropAfterLastTake(t *testing.T) {
	spec := workloads.MustGet("fft")
	in, calls := countingInputs()
	takes := []func() [][]trace.Access{
		in.claim(spec, 2, 1, 0), in.claim(spec, 2, 1, 0), in.claim(spec, 2, 1, 0),
	}
	other := in.claim(spec, 2, 1, 1) // another seed is another key
	for i, take := range takes {
		take()
		want := 2
		if i == len(takes)-1 {
			want = 1
		}
		if n := len(in.entries); n != want {
			t.Fatalf("after take %d of %d: memo holds %d keys, want %d", i+1, len(takes), n, want)
		}
	}
	other()
	if n := len(in.entries); n != 0 {
		t.Fatalf("memo holds %d keys after every take, want 0", n)
	}
	in.claim(spec, 2, 1, 0)()
	if n, _ := calls.Load(spec.Name); n.(*atomic.Int32).Load() != 3 {
		t.Errorf("generated %d times, want 3 (seed 0 twice, seed 1 once)", n.(*atomic.Int32).Load())
	}
	defer func() {
		if recover() == nil {
			t.Error("a take beyond its claims did not panic")
		}
	}()
	takes[0]()
}
