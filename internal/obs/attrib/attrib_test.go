package attrib

import (
	"reflect"
	"sync"
	"testing"

	"protozoa/internal/mem"
)

func TestClassification(t *testing.T) {
	const cores = 4
	cases := []struct {
		name string
		feed func(tr *Tracker)
		want Pattern
	}{
		{"untouched", func(tr *Tracker) {
			tr.Fanout(1, 2) // probes create state but record no access
		}, Untouched},
		{"private", func(tr *Tracker) {
			tr.Access(0, 1, 0, false)
			tr.Access(0, 1, 1, true)
		}, Private},
		{"read-only", func(tr *Tracker) {
			tr.Access(0, 1, 0, false)
			tr.Access(1, 1, 0, false)
		}, ReadOnly},
		{"partitioned", func(tr *Tracker) {
			// Word-disjoint writers, no invalidations: the MW view of
			// the Figure 1 counter line.
			tr.Access(0, 1, 0, true)
			tr.Access(0, 1, 0, false)
			tr.Access(1, 1, 1, true)
			tr.Access(1, 1, 1, false)
		}, Partitioned},
		{"false-shared", func(tr *Tracker) {
			// Same footprint, but the protocol invalidated someone:
			// the MESI view of the same line.
			tr.Access(0, 1, 0, true)
			tr.Access(1, 1, 1, true)
			tr.Invalidation(1, 0, 1, 1)
		}, FalseShared},
		{"migratory", func(tr *Tracker) {
			// Every core RMWs the same word (atomic counter).
			tr.Access(0, 1, 0, true)
			tr.Access(0, 1, 0, false)
			tr.Access(1, 1, 0, true)
			tr.Access(1, 1, 0, false)
			tr.Invalidation(1, 1, 0, 1)
		}, Migratory},
		{"read-write", func(tr *Tracker) {
			// Producer/consumer: one writer, distinct readers.
			tr.Access(0, 1, 0, true)
			tr.Access(1, 1, 0, false)
			tr.Access(2, 1, 0, false)
		}, ReadWrite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(cores)
			tc.feed(tr)
			if got := tr.PatternOf(1); got != tc.want {
				t.Errorf("pattern = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestShardTrackersMergeUnderRace mirrors the PDES deployment —
// per-tile trackers recording concurrently, then folded into one — so
// the tier-1 -race pass actually exercises the concurrent publish
// pattern drivers rely on (each shard private to its goroutine, Merge
// on the collector side only).
func TestShardTrackersMergeUnderRace(t *testing.T) {
	const cores, shards = 4, 8
	trackers := make([]*Tracker, shards)
	var wg sync.WaitGroup
	for i := range trackers {
		trackers[i] = New(cores)
		wg.Add(1)
		go func(tr *Tracker, seed int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				region := mem.RegionID(1 + (seed+j)%16)
				core := (seed + j) % cores
				tr.Access(core, region, uint8(j%16), j%3 == 0)
				if j%7 == 0 {
					tr.Fill(core, region, 4)
					tr.Death(core, region, Footprint{}, 2, 4)
				}
				if j%11 == 0 {
					tr.Invalidation(region, core, (core+1)%cores, 2)
				}
			}
		}(trackers[i], i)
	}
	wg.Wait()
	merged := New(cores)
	var wantInv uint64
	for _, tr := range trackers {
		wantInv += tr.Invalidations
		merged.Merge(tr)
	}
	if merged.Invalidations != wantInv {
		t.Errorf("merged invalidations %d, want %d", merged.Invalidations, wantInv)
	}
	if merged.RegionCount() == 0 {
		t.Error("merge dropped all regions")
	}
	if err := merged.Reconcile(); err != nil {
		t.Errorf("merged tracker does not reconcile: %v", err)
	}
}

func TestPatternCountsIncremental(t *testing.T) {
	tr := New(2)
	tr.Access(0, 7, 0, false)
	if c := tr.PatternCounts(); c[Private] != 1 {
		t.Fatalf("counts after first access: %v", c)
	}
	// Second core joins read-only; counts must move, not accumulate.
	tr.Access(1, 7, 1, false)
	c := tr.PatternCounts()
	if c[Private] != 0 || c[ReadOnly] != 1 {
		t.Fatalf("counts after second reader: %v", c)
	}
	// A write flips it again.
	tr.Access(1, 7, 1, true)
	c = tr.PatternCounts()
	if c[ReadOnly] != 0 || c[Partitioned] != 1 {
		t.Fatalf("counts after write: %v", c)
	}
	total := uint64(0)
	for _, n := range c {
		total += n
	}
	if total != uint64(tr.RegionCount()) {
		t.Fatalf("pattern counts sum %d != %d regions", total, tr.RegionCount())
	}
}

func TestFillDeathReconciles(t *testing.T) {
	tr := New(2)
	tr.Fill(0, 3, 8)
	tr.Fill(1, 3, 4)
	tr.Death(0, 3, Footprint{}, 5, 8)
	tr.Death(1, 3, Footprint{}, 1, 4)
	if err := tr.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if tr.FetchedWords != 12 || tr.UsedWords != 6 || tr.UnusedWords != 6 {
		t.Fatalf("totals fetched/used/unused = %d/%d/%d",
			tr.FetchedWords, tr.UsedWords, tr.UnusedWords)
	}
	if got := tr.UtilPct(); got != 50 {
		t.Fatalf("UtilPct = %v, want 50", got)
	}
	if got := tr.WastedBytes(); got != 6*mem.WordBytes {
		t.Fatalf("WastedBytes = %d", got)
	}
	// A fill with no death yet must fail reconciliation.
	tr.Fill(0, 9, 2)
	if err := tr.Reconcile(); err == nil {
		t.Fatal("Reconcile passed with an undied fill outstanding")
	}
}

func TestInvalidationAttribution(t *testing.T) {
	tr := New(4)
	tr.Access(1, 5, 0, true)
	tr.Invalidation(5, 2, 1, 3) // core 2's request took 3 words from core 1
	tr.Invalidation(5, 2, 3, 1)
	tr.Invalidation(5, -1, 1, 2) // inclusion recall: no offender core
	if tr.Invalidations != 3 || tr.InvWordsLost != 6 {
		t.Fatalf("invals/words = %d/%d", tr.Invalidations, tr.InvWordsLost)
	}
	if tr.InvByOffender[2] != 2 || tr.RecallInvalidations != 1 {
		t.Fatalf("offender attribution: %v, recalls %d", tr.InvByOffender, tr.RecallInvalidations)
	}
	if tr.InvByVictim[1] != 2 || tr.InvByVictim[3] != 1 {
		t.Fatalf("victim attribution: %v", tr.InvByVictim)
	}
	infos := tr.TopOffenders(1)
	if len(infos) != 1 || infos[0].Region != 5 || infos[0].Offender != 2 {
		t.Fatalf("top offender: %+v", infos)
	}
}

func TestTopOffendersDeterministicOrder(t *testing.T) {
	tr := New(2)
	// Three regions with identical scores: order must fall back to id.
	for _, id := range []mem.RegionID{30, 10, 20} {
		tr.Fill(0, id, 8)
		tr.Death(0, id, Footprint{}, 4, 8)
	}
	got := tr.TopOffenders(0)
	if len(got) != 3 || got[0].Region != 10 || got[1].Region != 20 || got[2].Region != 30 {
		t.Fatalf("order: %v, %v, %v", got[0].Region, got[1].Region, got[2].Region)
	}
	// A higher-waste region jumps the queue.
	tr.Fill(0, 40, 16)
	tr.Death(0, 40, Footprint{}, 0, 16)
	if got := tr.TopOffenders(2); got[0].Region != 40 {
		t.Fatalf("scored order: %v first, want 40", got[0].Region)
	}
}

func TestSummaryAdd(t *testing.T) {
	a := New(2)
	a.Fill(0, 1, 8)
	a.Death(0, 1, Footprint{}, 8, 8)
	b := New(2)
	b.Fill(0, 2, 8)
	b.Death(0, 2, Footprint{}, 0, 8)
	b.Access(0, 2, 0, false)

	s := a.Summarize()
	s.Add(b.Summarize())
	if s.FetchedWords != 16 || s.UtilPct != 50 {
		t.Fatalf("merged summary: %+v", s)
	}
	if s.Regions != 2 || s.WastedBytes != 8*mem.WordBytes {
		t.Fatalf("merged summary: %+v", s)
	}
}

// TestRegionStorageHoldsNoPointers keeps a tracker's retained
// per-region state out of the garbage collector's mark phase: a
// finished grid holds hundreds of thousands of regions, and a pointer
// in any per-region table would make every collection scan them all.
func TestRegionStorageHoldsNoPointers(t *testing.T) {
	tracker := reflect.TypeOf(Tracker{})
	for _, name := range []string{"states", "foot", "invRows", "dirtyList"} {
		f, ok := tracker.FieldByName(name)
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Fatalf("Tracker.%s is not a slice; update this test with the layout", name)
		}
		if path := pointerPath(f.Type.Elem()); path != "" {
			t.Errorf("Tracker.%s element %v holds a pointer at %s", name, f.Type.Elem(), path)
		}
	}
	f, ok := tracker.FieldByName("index")
	if want := reflect.TypeOf(mem.RegionTable[uint32]{}); !ok || f.Type != want {
		t.Errorf("Tracker.index is not a %v: its values must stay pointer-free", want)
	}
}

// pointerPath returns the path to the first pointer-carrying component
// of typ, or "" when typ holds no pointer.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return typ.String()
	case reflect.Array:
		if p := pointerPath(typ.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerPath(typ.Field(i).Type); p != "" {
				return typ.Field(i).Name + "." + p
			}
		}
	}
	return ""
}
