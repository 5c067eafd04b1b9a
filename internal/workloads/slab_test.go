package workloads

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"protozoa/internal/trace"
)

// appendBuilt is the reference builder Records replaced: one generator
// pass whose per-core slices start nil and grow by append. Records
// must produce exactly these records.
func appendBuilt(s Spec, cores, scale int, seed uint64) [][]trace.Access {
	if scale < 1 {
		scale = 1
	}
	b := &builder{cores: cores, scale: scale, seed: seed, recs: make([][]trace.Access, cores)}
	s.gen(b)
	return b.recs
}

// everySpec is the paper suite followed by the micros.
func everySpec() []Spec { return append(All(), Micros()...) }

func TestRecordsMatchAppendBuilt(t *testing.T) {
	for _, spec := range everySpec() {
		for _, cores := range []int{1, 4, 16} {
			for _, scale := range []int{1, 2} {
				for _, seed := range []uint64{0, 3} {
					got := spec.Records(cores, scale, seed)
					want := appendBuilt(spec, cores, scale, seed)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s cores=%d scale=%d seed=%d: Records differs from the append-built records",
							spec.Name, cores, scale, seed)
					}
				}
			}
		}
	}
}

// TestRecordsShareOneExactSlab: every core's slice is full (len ==
// cap) and starts where the previous core's ends, so the cores are
// adjacent windows of one backing array.
func TestRecordsShareOneExactSlab(t *testing.T) {
	size := unsafe.Sizeof(trace.Access{})
	for _, spec := range everySpec() {
		recs := spec.Records(16, 1, 0)
		for c, r := range recs {
			if len(r) != cap(r) {
				t.Errorf("%s core %d: len %d, cap %d", spec.Name, c, len(r), cap(r))
			}
			if c == 0 {
				continue
			}
			prev := recs[c-1]
			end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), uintptr(len(prev))*size)
			if unsafe.Pointer(unsafe.SliceData(r)) != end {
				t.Errorf("%s core %d does not start where core %d ends", spec.Name, c, c-1)
			}
		}
	}
}

// TestRecordsAppendLeavesNeighbourAlone: each core's slice is capped,
// so an append by a caller copies it rather than overwriting the next
// core's records in the slab.
func TestRecordsAppendLeavesNeighbourAlone(t *testing.T) {
	recs := MustGet("canneal").Records(4, 1, 0)
	for c := 0; c+1 < len(recs); c++ {
		next := append([]trace.Access(nil), recs[c+1]...)
		grown := append(recs[c], trace.Access{Kind: trace.Store, Addr: 0xdead_bee8, PC: 1})
		if !reflect.DeepEqual(recs[c+1], next) {
			t.Fatalf("appending to core %d overwrote core %d's records", c, c+1)
		}
		if unsafe.SliceData(grown) == unsafe.SliceData(recs[c]) {
			t.Fatalf("appending to core %d grew it in place", c)
		}
	}
}

// TestRecordsPanicsOnImpureGenerator: a generator whose second pass
// differs from its first is caught, not papered over by a regrow.
func TestRecordsPanicsOnImpureGenerator(t *testing.T) {
	passes := 0
	spec := Spec{Name: "impure", gen: func(b *builder) {
		passes++
		for i := 0; i < passes; i++ {
			b.load(0, word(arena0, i), 0x1000, 1)
		}
	}}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "impure core 0") || !strings.Contains(msg, "not a pure function") {
			t.Fatalf("panic = %q, want a count mismatch naming the workload and core", msg)
		}
	}()
	spec.Records(1, 1, 0)
}

// BenchmarkRecords times input generation for one large run (canneal,
// 16 cores, scale 20: 1.6M records), the input layer's microbenchmark.
func BenchmarkRecords(b *testing.B) {
	spec := MustGet("canneal")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec.Records(16, 20, 0)
	}
}
