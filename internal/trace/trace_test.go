package trace

import (
	"testing"
	"unsafe"
)

// TestAccessSize pins the record at 24 bytes: materialized streams hold
// every record of a run, and SliceStream.Next copies one per access.
func TestAccessSize(t *testing.T) {
	if n := unsafe.Sizeof(Access{}); n != 24 {
		t.Errorf("trace.Access is %d bytes, want 24", n)
	}
}

func TestSliceStream(t *testing.T) {
	recs := []Access{
		{Kind: Load, Addr: 0x100},
		{Kind: Store, Addr: 0x108},
		{Kind: Barrier},
	}
	s := NewSliceStream(recs)
	for i := range recs {
		a, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended early at %d", i)
		}
		if a != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, a, recs[i])
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream did not end")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream restarted")
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	s := FuncStream(func() (Access, bool) {
		if n >= 2 {
			return Access{}, false
		}
		n++
		return Access{Kind: Load, Addr: 8}, true
	})
	count := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		count++
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds agree on %d/100 draws", same)
	}
}

func TestRNGIntnInRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered only %d values", len(seen))
	}
}

func TestRNGFloat64InRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of range", v)
		}
	}
}
