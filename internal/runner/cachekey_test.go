package runner

import (
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/predictor"
)

// fixedSpec is the golden cell: a fully-resolved 16-core MESI config
// with canonical workload identity. Any change to its ConfigHash means
// the key schema moved and every persisted cache entry is (correctly)
// orphaned — bump resultcache.SchemaVersion when that is intentional.
func fixedSpec(t *testing.T) CellSpec {
	t.Helper()
	cfg := core.DefaultConfig(core.MESI)
	cfg.RegionBytes = 64
	if err := ConfigureCores(&cfg, 16); err != nil {
		t.Fatalf("ConfigureCores: %v", err)
	}
	return CellSpec{
		Config:   cfg,
		Workload: "linear-regression",
		Scale:    2,
		Seed:     7,
	}
}

// goldenConfigHash pins the canonical hash of fixedSpec. It is
// intentionally a literal: if this test fails, either the key
// derivation or core.Config's field set changed, and on-disk cache
// entries from earlier builds will all miss. That is the designed
// invalidation behaviour — update the literal only once you've
// confirmed the change to the hashed surface is deliberate.
const goldenConfigHash = "2965d61dc0b157f06028ee6b8644516fd76452c439d2ffbfce27a2e1b4fffa45"

func TestConfigHashGolden(t *testing.T) {
	h, err := fixedSpec(t).ConfigHash()
	if err != nil {
		t.Fatalf("ConfigHash: %v", err)
	}
	if h.String() != goldenConfigHash {
		t.Errorf("canonical config hash changed:\n got %s\nwant %s\n"+
			"(key schema moved — existing cache entries will be orphaned; "+
			"bump resultcache.SchemaVersion if intentional, then repin)",
			h.String(), goldenConfigHash)
	}
}

// TestConfigHashSensitivity checks that every input that can change a
// cell's result changes its hash, and that Workers — which is inert —
// does not.
func TestConfigHashSensitivity(t *testing.T) {
	base, err := fixedSpec(t).ConfigHash()
	if err != nil {
		t.Fatalf("ConfigHash: %v", err)
	}

	mutations := map[string]func(*CellSpec){
		"protocol":    func(s *CellSpec) { s.Config = core.DefaultConfig(core.ProtozoaMW); s.Config.RegionBytes = 64 },
		"region knob": func(s *CellSpec) { s.Config.RegionBytes = 128 },
		"l1 geometry": func(s *CellSpec) { s.Config.L1Sets *= 2 },
		"workload":    func(s *CellSpec) { s.Workload = "histogram" },
		"scale":       func(s *CellSpec) { s.Scale = 3 },
		"seed":        func(s *CellSpec) { s.Seed = 8 },
		"extra pair":  func(s *CellSpec) { s.Extra = [][2]string{{"stores", "30"}} },
		"extract tag": func(s *CellSpec) { s.Extract = "checker-summary-v1" },
	}
	for name, mutate := range mutations {
		s := fixedSpec(t)
		mutate(&s)
		h, err := s.ConfigHash()
		if err != nil {
			t.Fatalf("%s: ConfigHash: %v", name, err)
		}
		if h == base {
			t.Errorf("%s: mutation did not change the config hash", name)
		}
	}

	s := fixedSpec(t)
	s.Config.Workers = 4
	h, err := s.ConfigHash()
	if err != nil {
		t.Fatalf("workers: ConfigHash: %v", err)
	}
	if h != base {
		t.Errorf("Workers changed the config hash; all worker counts must share one entry")
	}
}

func TestKeyIncludesCodeStampAndIsStable(t *testing.T) {
	s := fixedSpec(t)
	k1, k2 := s.Key(), s.Key()
	if k1.IsZero() {
		t.Fatal("fixed spec produced the zero (uncacheable) key")
	}
	if k1 != k2 {
		t.Errorf("Key not deterministic: %s vs %s", k1, k2)
	}
	ch, _ := s.ConfigHash()
	if k1 == ch {
		t.Error("Key must differ from ConfigHash (it folds in the code stamp)")
	}
}

// A config carrying an injected hook can't be canonicalized; its cell
// must come out uncacheable (zero key) rather than colliding with the
// default-predictor cell.
func TestKeyZeroForUncacheableConfig(t *testing.T) {
	s := fixedSpec(t)
	s.Config.PredictorOverride = func(int) predictor.Predictor { return nil }
	if _, err := s.ConfigHash(); err == nil {
		t.Error("ConfigHash accepted a config with a function-valued hook")
	}
	if k := s.Key(); !k.IsZero() {
		t.Errorf("Key for uncacheable config = %s, want zero", k)
	}
}

// Every cell a grid expands to must get its own non-zero key: the
// sweep drivers rely on per-cell identity for dedup and resume.
func TestGridCellKeysDistinct(t *testing.T) {
	g := Grid{
		Workloads: []string{"linear-regression"},
		Regions:   []int{32, 64},
		Scale:     1,
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	seen := make(map[string]string)
	for _, c := range cells {
		if c.Key.IsZero() {
			t.Errorf("cell %s: zero cache key", c.Label)
			continue
		}
		if prev, dup := seen[c.Key.String()]; dup {
			t.Errorf("cells %s and %s share a cache key", prev, c.Label)
		}
		seen[c.Key.String()] = c.Label
	}

}
