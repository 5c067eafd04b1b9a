package runner

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

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

// drain reads a stream to its end.
func drain(s trace.Stream) []trace.Access {
	var out []trace.Access
	for a, ok := s.Next(); ok; a, ok = s.Next() {
		out = append(out, a)
	}
	return out
}

// TestInputsGenerateOncePerKey takes every claim of two workloads from
// its own goroutine at once: each key is generated exactly once, every
// taker gets the same records, and the memo ends empty.
func TestInputsGenerateOncePerKey(t *testing.T) {
	const cores, scale, seed, perKey = 4, 1, 7, 8
	in, calls := countingInputs()
	specs := []workloads.Spec{workloads.MustGet("histogram"), workloads.MustGet("fft")}
	var takes []func() []trace.Stream
	for _, spec := range specs {
		for i := 0; i < perKey; i++ {
			takes = append(takes, in.Claim(spec, cores, scale, seed))
		}
	}
	got := make([][]trace.Stream, len(takes))
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
	for i, streams := range got {
		spec := specs[i/perKey]
		want := spec.StreamsSeeded(cores, scale, seed)
		if len(streams) != cores {
			t.Fatalf("take %d: %d streams, want %d", i, len(streams), cores)
		}
		for c := range streams {
			if !reflect.DeepEqual(drain(streams[c]), drain(want[c])) {
				t.Errorf("take %d core %d: records differ from StreamsSeeded", i, c)
			}
		}
	}
	if n := len(in.entries); n != 0 {
		t.Errorf("memo holds %d keys after every claim was taken, want 0", n)
	}
}

// TestInputsCursorsAreIndependent checks that two cells of one key
// read their streams without moving each other's position.
func TestInputsCursorsAreIndependent(t *testing.T) {
	spec := workloads.MustGet("histogram")
	var in Inputs
	a, b := in.Claim(spec, 2, 1, 0), in.Claim(spec, 2, 1, 0)
	sa, sb := a(), b()
	all := drain(sa[0])
	if len(all) < 2 {
		t.Fatalf("core 0 stream has %d records", len(all))
	}
	if first, _ := sb[0].Next(); first != all[0] {
		t.Errorf("second cursor starts at %+v after the first drained, want %+v", first, all[0])
	}
	if rest := drain(sb[0]); !reflect.DeepEqual(rest, all[1:]) {
		t.Error("second cursor's records differ from the first's")
	}
}

// TestInputsDropAfterLastTake checks a key's lifetime: it stays while
// claims are outstanding, goes with the last take, and a later grid of
// the same key generates afresh.
func TestInputsDropAfterLastTake(t *testing.T) {
	spec := workloads.MustGet("fft")
	in, calls := countingInputs()
	takes := []func() []trace.Stream{
		in.Claim(spec, 2, 1, 0), in.Claim(spec, 2, 1, 0), in.Claim(spec, 2, 1, 0),
	}
	other := in.Claim(spec, 2, 1, 1) // another seed is another key
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
	in.Claim(spec, 2, 1, 0)()
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
