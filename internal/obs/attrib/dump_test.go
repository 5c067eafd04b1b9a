package attrib

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// buildTracker populates a tracker with a mix of patterns: a private
// region, a false-shared region with an offender, a read-only region,
// and a recall invalidation.
func buildTracker() *Tracker {
	t := New(4)
	// Region 1: private to core 0.
	for i := 0; i < 10; i++ {
		t.Access(0, 1, uint8(i%4), i%3 == 0)
	}
	t.Fill(0, 1, 8)
	t.Death(0, 1, Footprint{}, 5, 8)
	// Region 2: word-disjoint writers with heavy churn (false-shared).
	for i := 0; i < 50; i++ {
		t.Access(1, 2, 0, true)
		t.Access(2, 2, 8, true)
		t.Invalidation(2, 1, 2, 4)
		t.Upgrade(1, 2)
	}
	t.Fill(1, 2, 16)
	t.Fill(2, 2, 16)
	t.Death(1, 2, Footprint{}, 2, 16)
	t.Death(2, 2, Footprint{}, 2, 16)
	t.Fanout(2, 3)
	// Region 3: read-only sharing plus a recall invalidation.
	t.Access(0, 3, 0, false)
	t.Access(3, 3, 1, false)
	t.Fill(3, 3, 4)
	t.Death(3, 3, Footprint{}, 4, 4)
	t.Invalidation(3, -1, 3, 2)
	return t
}

func TestDumpRoundTrip(t *testing.T) {
	orig := buildTracker()
	d := orig.Dump()

	// Through JSON, as the result cache stores it.
	enc, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Dump
	if err := json.Unmarshal(enc, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := FromDump(&decoded)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := restored.Summarize(), orig.Summarize(); got != want {
		t.Fatalf("Summarize mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got, want := restored.TopOffenders(0), orig.TopOffenders(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("TopOffenders mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(restored.InvByOffender, orig.InvByOffender) ||
		!reflect.DeepEqual(restored.InvByVictim, orig.InvByVictim) ||
		!reflect.DeepEqual(restored.UpgradesByCore, orig.UpgradesByCore) {
		t.Fatal("per-core slices mismatch")
	}
	if err := restored.Reconcile(); err != nil {
		t.Fatalf("restored tracker fails reconciliation: %v", err)
	}
	// Patterns must recompute identically.
	if got, want := restored.PatternOf(2), orig.PatternOf(2); got != want {
		t.Fatalf("region 2 pattern = %v, want %v", got, want)
	}
}

// TestDumpCanonical pins that dumping the same logical state twice
// yields identical bytes — required for the cache's byte-identical
// warm-output contract.
func TestDumpCanonical(t *testing.T) {
	a, _ := json.Marshal(buildTracker().Dump())
	b, _ := json.Marshal(buildTracker().Dump())
	if string(a) != string(b) {
		t.Fatal("dump encoding is not canonical")
	}
	// And dump-of-restored matches dump-of-original.
	var d Dump
	if err := json.Unmarshal(a, &d); err != nil {
		t.Fatal(err)
	}
	restored, err := FromDump(&d)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(restored.Dump())
	if string(a) != string(c) {
		t.Fatal("restored tracker dumps differently from original")
	}
}

func TestFromDumpValidates(t *testing.T) {
	if _, err := FromDump(&Dump{Cores: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad := buildTracker().Dump()
	bad.Regions[0].Foot = bad.Regions[0].Foot[:1]
	if _, err := FromDump(bad); err == nil {
		t.Fatal("short footprint accepted")
	}
}

// TestFromDumpRejectsCorruptInput pins the decoder's input boundary: a
// dump the result cache read back from disk is untrusted.
func TestFromDumpRejectsCorruptInput(t *testing.T) {
	cases := map[string]func(d *Dump){
		// A repeated region used to decode with a nil error, the second
		// copy overwriting the first.
		"repeated region": func(d *Dump) { d.Regions[1] = d.Regions[0] },
		"unsorted regions": func(d *Dump) {
			d.Regions[0], d.Regions[1] = d.Regions[1], d.Regions[0]
		},
		// Used to panic in makeslice.
		"huge core count":   func(d *Dump) { d.Cores = 1 << 62 },
		"33 cores":          func(d *Dump) { d.Cores = 33 },
		"negative cores":    func(d *Dump) { d.Cores = -4 },
		"short victim list": func(d *Dump) { d.InvByVictim = d.InvByVictim[:2] },
		"long invByCore": func(d *Dump) {
			d.Regions[1].InvByCore = append(d.Regions[1].InvByCore, 1)
		},
		"unreconciled region": func(d *Dump) { d.Regions[2].Used++ },
		"unreconciled totals": func(d *Dump) { d.FetchedWords++ },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			d := buildTracker().Dump()
			corrupt(d)
			if _, err := FromDump(d); err == nil {
				t.Fatal("corrupt dump accepted")
			}
		})
	}
	if _, err := FromDump(buildTracker().Dump()); err != nil {
		t.Fatalf("intact dump rejected: %v", err)
	}
}

// FuzzFromDump feeds arbitrary JSON to the decoder: it must never
// panic, and any dump it accepts must round-trip stably — the dump of
// the rebuilt tracker decodes again and dumps to the same bytes.
func FuzzFromDump(f *testing.F) {
	good, err := json.Marshal(buildTracker().Dump())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	dup := buildTracker().Dump()
	dup.Regions[1] = dup.Regions[0]
	b, _ := json.Marshal(dup)
	f.Add(b)
	f.Add([]byte(`{"Cores":4611686018427387904}`))
	f.Add([]byte(`{"Cores":1,"Regions":[{"ID":3,"Foot":[1,2],"Accesses":1}],` +
		`"InvByOffender":[0],"InvByVictim":[0],"UpgradesByCore":[0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Dump
		if json.Unmarshal(data, &d) != nil {
			return
		}
		tr, err := FromDump(&d)
		if err != nil {
			return
		}
		tr.Summarize()
		tr.TopOffenders(3)
		first, err := json.Marshal(tr.Dump())
		if err != nil {
			t.Fatal(err)
		}
		again, err := FromDump(tr.Dump())
		if err != nil {
			t.Fatalf("a dump of an accepted tracker is rejected: %v", err)
		}
		second, err := json.Marshal(again.Dump())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip unstable:\n%s\n%s", first, second)
		}
	})
}
