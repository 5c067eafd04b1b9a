package resultcache

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(b byte) Key {
	var k Key
	k[0] = b
	k[31] = ^b
	return k
}

func TestDiskTierRoundTripAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	k := testKey(2)
	payload := []byte("persisted payload")

	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(k, payload); err != nil {
		t.Fatal(err)
	}

	// A fresh instance (fresh process in real life) must hit on disk.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("disk Get = %q, %v", got, ok)
	}
	if ctr := c2.Counters(); ctr.Hits != 1 || ctr.BytesRead != uint64(len(payload)) {
		t.Fatalf("counters = %+v", ctr)
	}
	if _, err := Open(""); err == nil {
		t.Error("Open accepted an empty directory")
	}
}

// entryFile finds the single on-disk entry under dir.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(p) == ".pzc" {
			found = p
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file under %s (err=%v)", dir, err)
	}
	return found
}

func TestCorruptEntryFallsBackToMiss(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"flipped-payload-byte", func(d []byte) []byte {
			d[len(d)-1] ^= 0xff
			return d
		}},
		{"truncated", func(d []byte) []byte { return d[:len(d)-3] }},
		{"bad-magic", func(d []byte) []byte {
			d[0] = 'X'
			return d
		}},
		{"empty", func(d []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			k := testKey(3)
			payload := []byte("payload that will be damaged")
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			f := entryFile(t, dir)
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(f, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			c2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := c2.Get(k); ok {
				t.Fatalf("corrupt entry served as hit: %q", got)
			}
			if ctr := c2.Counters(); ctr.Misses != 1 {
				t.Fatalf("counters = %+v", ctr)
			}
			// Re-Put repairs the entry.
			if err := c2.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			c3, _ := Open(dir)
			if got, ok := c3.Get(k); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("repaired Get = %q, %v", got, ok)
			}
		})
	}
}

// TestConcurrentGetPutHammer drives many goroutines at the same keys
// of one directory simultaneously — the -race pass over this package
// is the regression net for the shared-cache-dir corruption fix.
func TestConcurrentGetPutHammer(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A second instance sharing the directory models a concurrent grid
	// process racing on the same entries.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4
	payloads := make([][]byte, keys)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 128+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			inst := c
			if g%2 == 1 {
				inst = c2
			}
			for iter := 0; iter < 200; iter++ {
				i := (g + iter) % keys
				k := testKey(byte(i))
				switch iter % 3 {
				case 0:
					if err := inst.Put(k, payloads[i]); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 1:
					if p, ok := inst.Get(k); ok && !bytes.Equal(p, payloads[i]) {
						t.Errorf("Get key %d returned wrong payload", i)
						return
					}
				case 2:
					// Read, or write on a miss: what the runner does.
					if p, ok := inst.Get(k); !ok {
						if err := inst.Put(k, payloads[i]); err != nil {
							t.Errorf("Put after miss: %v", err)
							return
						}
					} else if !bytes.Equal(p, payloads[i]) {
						t.Errorf("Get key %d returned wrong payload", i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// After the dust settles every key must read back intact from disk.
	c3, _ := Open(dir)
	for i := 0; i < keys; i++ {
		if p, ok := c3.Get(testKey(byte(i))); !ok || !bytes.Equal(p, payloads[i]) {
			t.Fatalf("key %d corrupt or missing after hammer", i)
		}
	}
}

func TestBuilderCanonical(t *testing.T) {
	b1 := NewBuilder()
	b1.Field("a", "xy")
	b1.Field("b", "z")
	b2 := NewBuilder()
	b2.Field("a", "x")
	b2.Field("yb", "z")
	if b1.Sum() == b2.Sum() {
		t.Fatal("length prefixing failed: shifted field boundaries alias")
	}
	b3 := NewBuilder()
	b3.Field("a", "xy")
	b3.Field("b", "z")
	if b1.Sum() != b3.Sum() {
		t.Fatal("identical field sequences must hash identically")
	}
}

func TestAddStruct(t *testing.T) {
	type inner struct {
		Lat int
	}
	type cfg struct {
		Name    string
		Cores   int
		Ratio   float64
		Flags   []bool
		Nested  inner
		hidden  int // unexported: ignored
		PtrView *inner
	}
	_ = cfg{}.hidden
	hash := func(c cfg) Key {
		b := NewBuilder()
		if err := AddStruct(b, "cfg", c); err != nil {
			t.Fatal(err)
		}
		return b.Sum()
	}
	base := cfg{Name: "mesi", Cores: 16, Ratio: 0.5, Flags: []bool{true}, Nested: inner{3}}
	if hash(base) != hash(base) {
		t.Fatal("not deterministic")
	}
	vary := []cfg{
		{Name: "mw", Cores: 16, Ratio: 0.5, Flags: []bool{true}, Nested: inner{3}},
		{Name: "mesi", Cores: 4, Ratio: 0.5, Flags: []bool{true}, Nested: inner{3}},
		{Name: "mesi", Cores: 16, Ratio: 0.25, Flags: []bool{true}, Nested: inner{3}},
		{Name: "mesi", Cores: 16, Ratio: 0.5, Flags: []bool{false}, Nested: inner{3}},
		{Name: "mesi", Cores: 16, Ratio: 0.5, Flags: nil, Nested: inner{3}},
		{Name: "mesi", Cores: 16, Ratio: 0.5, Flags: []bool{true}, Nested: inner{4}},
		{Name: "mesi", Cores: 16, Ratio: 0.5, Flags: []bool{true}, Nested: inner{3}, PtrView: &inner{0}},
	}
	seen := map[Key]int{hash(base): -1}
	for i, v := range vary {
		k := hash(v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d", i, prev)
		}
		seen[k] = i
	}
}

func TestAddStructRejectsFuncFields(t *testing.T) {
	type cfg struct {
		Hook func()
	}
	b := NewBuilder()
	if err := AddStruct(b, "cfg", cfg{Hook: func() {}}); err == nil {
		t.Fatal("non-nil func field must be uncacheable")
	}
	b2 := NewBuilder()
	if err := AddStruct(b2, "cfg", cfg{}); err != nil {
		t.Fatalf("nil func field should hash fine: %v", err)
	}
}

func TestTypeFingerprintSensitivity(t *testing.T) {
	type v1 struct{ A, B uint64 }
	type v2 struct{ A, B, C uint64 }
	type v3 struct {
		A uint64
		B uint32
	}
	f1, f2, f3 := TypeFingerprint(v1{}), TypeFingerprint(v2{}), TypeFingerprint(v3{})
	if f1 == f2 || f1 == f3 || f2 == f3 {
		t.Fatalf("fingerprints collide: %s %s %s", f1, f2, f3)
	}
	if f1 != TypeFingerprint(v1{}) {
		t.Fatal("fingerprint not deterministic")
	}
}
