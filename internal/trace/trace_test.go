package trace

import (
	"testing"
	"unsafe"
)

// TestAccessSize pins the record at 16 bytes (15 of data): an input
// holds every record of a run, and a core copies one per access. A
// 64-bit PC would take it back to 24.
func TestAccessSize(t *testing.T) {
	if n := unsafe.Sizeof(Access{}); n != 16 {
		t.Errorf("trace.Access is %d bytes, want 16", n)
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
