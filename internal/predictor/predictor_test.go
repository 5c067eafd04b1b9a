package predictor

import (
	"testing"
	"testing/quick"

	"protozoa/internal/mem"
)

func TestFixedAlwaysFullRegion(t *testing.T) {
	f := Fixed{Geom: mem.DefaultGeometry}
	for w := uint8(0); w < 8; w++ {
		if got := f.Predict(0x400, 7, w); got != mem.DefaultGeometry.FullRange() {
			t.Errorf("Fixed.Predict(w=%d) = %v, want full range", w, got)
		}
	}
	f.Train(0x400, 0, 0, 0, mem.DefaultGeometry.FullRange()) // must not panic
}

func TestSpatialColdPredictsFullRegion(t *testing.T) {
	p := NewSpatial(mem.DefaultGeometry, 64)
	if got := p.Predict(0x400, 1, 3); got != mem.DefaultGeometry.FullRange() {
		t.Errorf("cold Predict = %v, want full region", got)
	}
}

// TestSpatialReusesReleasedTable: NewSpatial draws a released
// predictor's table and clears it, so what the first learned does not
// reach the second.
func TestSpatialReusesReleasedTable(t *testing.T) {
	p := NewSpatial(mem.DefaultGeometry, 64)
	for i := 0; i < 6; i++ {
		p.Train(0x400, 0, 3, mem.OneWord(3).Bitmap(), mem.DefaultGeometry.FullRange())
	}
	table := p.entries
	p.Release()
	q := NewSpatial(mem.DefaultGeometry, 64)
	if &q.entries[0] != &table[0] {
		t.Error("NewSpatial allocated a table instead of reusing the released one")
	}
	if got := q.Predict(0x400, 1, 3); got != mem.DefaultGeometry.FullRange() {
		t.Errorf("Predict on a reused table = %v, want the cold full region", got)
	}
}

func TestSpatialLearnsSingleWordPattern(t *testing.T) {
	p := NewSpatial(mem.DefaultGeometry, 64)
	// The app only ever touches the trigger word (false-sharing counter).
	for i := 0; i < 6; i++ {
		p.Train(0x400, 0, 3, mem.OneWord(3).Bitmap(), mem.DefaultGeometry.FullRange())
	}
	got := p.Predict(0x400, 9, 5)
	if got != mem.OneWord(5) {
		t.Errorf("Predict after single-word training = %v, want {5,5}", got)
	}
}

func TestSpatialLearnsStreamingPattern(t *testing.T) {
	p := NewSpatial(mem.DefaultGeometry, 64)
	full := mem.DefaultGeometry.FullRange()
	// The app touches the whole region starting at word 0.
	for i := 0; i < 6; i++ {
		p.Train(0x800, 0, 0, full.Bitmap(), full)
	}
	if got := p.Predict(0x800, 9, 0); got != full {
		t.Errorf("Predict after streaming training = %v, want full region", got)
	}
}

func TestSpatialExtentsAreRelativeToTrigger(t *testing.T) {
	p := NewSpatial(mem.DefaultGeometry, 64)
	// Touch trigger word and one to its right.
	pattern := mem.Bitmap(0).Set(2).Set(3)
	for i := 0; i < 6; i++ {
		p.Train(0xC00, 0, 2, pattern, mem.Range{Start: 2, End: 3})
	}
	// Miss at word 5 should predict 5-6 (0 left, 1 right).
	if got := p.Predict(0xC00, 1, 5); got != (mem.Range{Start: 5, End: 6}) {
		t.Errorf("Predict = %v, want {5,6}", got)
	}
	// At the region edge the prediction clamps.
	if got := p.Predict(0xC00, 1, 7); got != (mem.Range{Start: 7, End: 7}) {
		t.Errorf("Predict at edge = %v, want {7,7}", got)
	}
}

func TestSpatialUntouchedBlockTrainsTowardOneWord(t *testing.T) {
	p := NewSpatial(mem.DefaultGeometry, 64)
	for i := 0; i < 8; i++ {
		p.Train(0x123, 0, 4, 0, mem.DefaultGeometry.FullRange())
	}
	if got := p.Predict(0x123, 0, 4); got != mem.OneWord(4) {
		t.Errorf("Predict after untouched training = %v, want single word", got)
	}
}

func TestSpatialDistinctPCsIndependent(t *testing.T) {
	p := NewSpatial(mem.DefaultGeometry, 1024)
	full := mem.DefaultGeometry.FullRange()
	for i := 0; i < 6; i++ {
		p.Train(0x1000, 0, 0, full.Bitmap(), full)
		p.Train(0x2000, 0, 3, mem.OneWord(3).Bitmap(), full)
	}
	if got := p.Predict(0x1000, 0, 0); got.Words() < 4 {
		t.Errorf("streaming PC shrunk to %v", got)
	}
	if got := p.Predict(0x2000, 0, 3); got.Words() != 1 {
		t.Errorf("sparse PC predicts %v, want 1 word", got)
	}
}

func TestSpatialTableCollisionReplaces(t *testing.T) {
	p := NewSpatial(mem.DefaultGeometry, 1) // every PC collides
	full := mem.DefaultGeometry.FullRange()
	p.Train(0x1, 0, 0, full.Bitmap(), full)
	p.Train(0x2, 0, 3, mem.OneWord(3).Bitmap(), full)
	// After replacement, PC 0x2's pattern rules and PC 0x1 is cold again.
	if got := p.Predict(0x2, 0, 3); got.Words() != 1 {
		t.Errorf("Predict(0x2) = %v, want 1 word", got)
	}
	if got := p.Predict(0x1, 0, 0); got != full {
		t.Errorf("evicted PC should predict cold full region, got %v", got)
	}
}

func TestQuickPredictionAlwaysValidAndContainsTrigger(t *testing.T) {
	for _, sz := range []int{16, 32, 64, 128} {
		g := mem.MustGeometry(sz)
		p := NewSpatial(g, 128)
		f := func(pc uint64, trigger, w uint8, bits uint16) bool {
			trigger %= uint8(g.WordsPerRegion())
			w %= uint8(g.WordsPerRegion())
			p.Train(pc, 0, trigger, mem.Bitmap(bits), g.FullRange())
			got := p.Predict(pc, 0, w)
			return got.Valid(g) && got.Contains(w)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("geometry %d: %v", sz, err)
		}
	}
}
