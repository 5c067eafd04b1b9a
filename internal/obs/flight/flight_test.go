package flight

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"protozoa/internal/engine"
	"protozoa/internal/mem"
)

func TestRingWrapDropsOldest(t *testing.T) {
	r := NewRecorder(4)
	for c := 0; c < 7; c++ {
		r.Record(Record{Cycle: 10 * 7, Region: uint64(c)})
	}
	if r.Len() != 4 {
		t.Fatalf("ring holds %d records, want 4", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", r.Dropped())
	}
	snap := r.Records()
	for i, rec := range snap {
		if rec.Region != uint64(3+i) {
			t.Fatalf("snapshot[%d].Region = %d, want %d (oldest-first after wrap)", i, rec.Region, 3+i)
		}
		if rec.Seq != uint64(3+i) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, rec.Seq, 3+i)
		}
	}
}

func TestStateNames(t *testing.T) {
	if got := L1StateName(L1Code(0, TransIM)); got != "I_IM" {
		t.Errorf("L1 I+IM = %q", got)
	}
	if got := L1StateName(L1Code(3, TransIS)); got != "M_IS" {
		t.Errorf("L1 M+IS = %q (the Figure 6 race state)", got)
	}
	if got := L1StateName(L1Code(1, TransNone)); got != "S" {
		t.Errorf("L1 S = %q", got)
	}
	if got := DirStateName(DirOPlus); got != "O+" {
		t.Errorf("dir O+ = %q", got)
	}
}

func TestFormatRecords(t *testing.T) {
	n := &Names{Msgs: []string{"GETS", "GETX"}}
	send := Record{Cycle: 2041, Tile: 3, Kind: KindMsgSend, Sub: 1,
		Src: 0, Dst: 3, Region: 7, Txn: 12,
		R: mem.Range{Start: 0, End: 3}, Valid: 0xf,
		Flags: FlagDirect}
	line := send.Format(n)
	for _, want := range []string{"@2041", "t3", "msg-send", "GETX", "C0->T3", "region 7", "txn 12", "[0--3]", "4w", "direct"} {
		if !strings.Contains(line, want) {
			t.Errorf("send line %q missing %q", line, want)
		}
	}
	st := Record{Cycle: 9, Tile: 0, Kind: KindL1State, Sub: CauseStore,
		Src: 0, Region: 5, From: L1Code(0, TransNone), To: L1Code(0, TransIM)}
	line = st.Format(n)
	for _, want := range []string{"l1-state", "Store", "core 0", "region 5", "I -> I_IM"} {
		if !strings.Contains(line, want) {
			t.Errorf("state line %q missing %q", line, want)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	recs := []Record{
		{Cycle: 1, Seq: 0, Tile: 2, Kind: KindMsgSend, Sub: 1, Src: 0, Dst: 2,
			Req: -1, Region: 77, Txn: 5, Flags: FlagStillOwner,
			R: mem.Range{Start: 2, End: 6}, Valid: 0x7c, Dirty: 0x40},
		{Cycle: 3, Seq: 1, Tile: 2, Kind: KindDirState, Sub: SubNone,
			Req: 4, Region: 77, From: DirSS, To: DirO},
	}
	var buf bytes.Buffer
	meta := Meta{Protocol: "mw", Cores: 16, RegionBytes: 64,
		Dropped: 9, Msgs: []string{"GETS", "GETX"}}
	if err := WriteLog(&buf, meta, recs); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotRecs, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Protocol != "mw" || gotMeta.Cores != 16 || gotMeta.Dropped != 9 ||
		gotMeta.Records != 2 || len(gotMeta.Kinds) != int(numKinds) {
		t.Fatalf("meta round trip: %+v", gotMeta)
	}
	if !reflect.DeepEqual(gotRecs, recs) {
		t.Fatalf("records round trip:\ngot  %+v\nwant %+v", gotRecs, recs)
	}
	if _, _, err := ReadLog(strings.NewReader("{\"format\":\"nope\"}\n")); err == nil {
		t.Fatal("foreign format accepted")
	}
}

// TestReconstruct pins the phase algebra against a hand-built
// transcript, including the reissue-overwrite + monotone-clamp case
// obs.LatencyBreakdown documents.
func TestReconstruct(t *testing.T) {
	recs := []Record{
		// Core 1: a clean 4-phase miss on region 7.
		{Cycle: 100, Kind: KindMissStart, Src: 1, Req: 1, Region: 7, Sub: 1},
		{Cycle: 110, Kind: KindDirAccept, Req: 1, Region: 7},
		{Cycle: 112, Kind: KindTxnStart, Req: 1, Region: 7},
		{Cycle: 126, Kind: KindTxnProcess, Req: 1, Region: 7},
		{Cycle: 140, Kind: KindTxnLastAck, Req: 1, Region: 7},
		{Cycle: 150, Kind: KindMissEnd, Src: 1, Region: 7},
		// Core 2: stamps from an abandoned round overwritten by a
		// reissue that never reached last-ack; the clamp folds the gap.
		{Cycle: 200, Kind: KindMissStart, Src: 2, Req: 2, Region: 9, Sub: 1},
		{Cycle: 210, Kind: KindDirAccept, Req: 2, Region: 9},
		{Cycle: 212, Kind: KindTxnStart, Req: 2, Region: 9},
		{Cycle: 230, Kind: KindDirAccept, Req: 2, Region: 9}, // reissue
		{Cycle: 232, Kind: KindTxnStart, Req: 2, Region: 9},
		{Cycle: 246, Kind: KindTxnProcess, Req: 2, Region: 9},
		{Cycle: 260, Kind: KindMissEnd, Src: 2, Region: 9},
		// Core 3: still open at end of log.
		{Cycle: 300, Kind: KindMissStart, Src: 3, Req: 3, Region: 1, Sub: 0},
		// A recall transaction (no requesting core) must be ignored.
		{Cycle: 305, Kind: KindTxnStart, Req: -1, Region: 1},
	}
	txns := Reconstruct(recs)
	if len(txns) != 3 {
		t.Fatalf("reconstructed %d txns, want 3", len(txns))
	}
	a := txns[0]
	if a.Core != 1 || a.Total() != 50 {
		t.Fatalf("txn A: %+v", a)
	}
	if want := [NumPhases]uint64{10, 2, 14, 14, 10}; a.Dwell != want {
		t.Fatalf("txn A dwell %v, want %v", a.Dwell, want)
	}
	b := txns[1]
	// last-ack never stamped: clamp pulls it up to process (246), so
	// fanout-acks is 0 and data-fill absorbs 260-246.
	if want := [NumPhases]uint64{30, 2, 14, 0, 14}; b.Dwell != want {
		t.Fatalf("txn B dwell %v, want %v", b.Dwell, want)
	}
	var sum uint64
	for _, d := range b.Dwell {
		sum += d
	}
	if sum != b.Total() {
		t.Fatalf("txn B dwells sum to %d, total %d", sum, b.Total())
	}
	c := txns[2]
	if !c.Open || c.Core != 3 {
		t.Fatalf("txn C should be open for core 3: %+v", c)
	}
}

func TestRecorderNoWrap(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(Record{Cycle: engine.Cycle(i), Kind: KindMissStart, Src: int16(i)})
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 5/0", r.Len(), r.Dropped())
	}
	for i, rec := range r.Records() {
		if rec.Cycle != engine.Cycle(i) {
			t.Fatalf("record %d at cycle %d, want %d", i, rec.Cycle, i)
		}
	}
}

func TestRecorderWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Record{Cycle: engine.Cycle(i), Kind: KindMsgSend})
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want 4/6", r.Len(), r.Dropped())
	}
	for i, rec := range r.Records() {
		if want := engine.Cycle(6 + i); rec.Cycle != want {
			t.Fatalf("records[%d] cycle %d, want %d (oldest-first after wrap)", i, rec.Cycle, want)
		}
	}
}

func TestRecorderDefaultCap(t *testing.T) {
	if got := NewRecorder(0).cap; got != DefaultCap {
		t.Fatalf("default capacity %d, want %d", got, DefaultCap)
	}
}

// TestRecorderGrow: several views size one recorder; the largest
// request wins and a smaller later request never shrinks it.
func TestRecorderGrow(t *testing.T) {
	r := NewRecorder(40)
	r.Grow(400)
	r.Grow(8)
	if r.cap != 400 {
		t.Fatalf("capacity %d after Grow(400), Grow(8); want 400", r.cap)
	}
	r.Grow(0)
	if r.cap != DefaultCap {
		t.Fatalf("Grow(0) capacity %d, want the default %d", r.cap, DefaultCap)
	}
}

// TestRecordDoesNotAllocate is the zero-cost contract: once the ring
// has grown to capacity, recording performs no heap allocation.
func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(1024)
	rec := Record{Cycle: 1, Kind: KindMsgSend, Src: 3}
	for i := 0; i < 1024; i++ {
		r.Record(rec)
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(rec) }); allocs != 0 {
		t.Fatalf("Record allocates %.1f objects per call, want 0", allocs)
	}
}

func TestKindNames(t *testing.T) {
	if KindMsgSend.String() != "msg-send" || KindLinkStall.String() != "link-stall" {
		t.Fatal("kind names wrong")
	}
	if numKinds != Kind(len(kindNames)) {
		t.Fatal("kindNames out of sync with kinds")
	}
	// Codes are append-only: recorded logs key on them.
	if KindDirState != 13 || KindLinkStall != 14 {
		t.Fatalf("kind codes moved: dir-state %d, link-stall %d", KindDirState, KindLinkStall)
	}
}

// TestReadLogEarlierVocabulary reads a log recorded before link-stall
// existed: its header's kind list is a prefix of this build's.
func TestReadLogEarlierVocabulary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "recorded.pzfl"))
	if err != nil {
		t.Fatal(err)
	}
	meta, recs, err := ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Kinds) != int(KindLinkStall) || len(recs) != meta.Records || len(recs) == 0 {
		t.Fatalf("read %d records (header %d) with %d kinds", len(recs), meta.Records, len(meta.Kinds))
	}
	// Re-written by this build, the record lines are unchanged and the
	// header's vocabulary gains link-stall at the end.
	var out bytes.Buffer
	if err := WriteLog(&out, meta, recs); err != nil {
		t.Fatal(err)
	}
	oldHead, oldRows, _ := strings.Cut(string(raw), "\n")
	newHead, newRows, _ := strings.Cut(out.String(), "\n")
	if oldRows != newRows {
		t.Error("record lines changed on re-write")
	}
	if want := strings.Replace(oldHead, `"dir-state"]`, `"dir-state","link-stall"]`, 1); newHead != want {
		t.Errorf("re-written header:\n%s\nwant:\n%s", newHead, want)
	}
}

func TestReadLogRejectsBadInput(t *testing.T) {
	head := func(extra string) string {
		return `{"format":"protozoa-flight","version":1,"cores":4,"kinds":["msg-send","msg-deliver"]` + extra + "}\n"
	}
	row := "[1,0,2,1,0,0,3,-1,7,0,0,0,0,0,0,0,0]\n"
	for _, tc := range []struct{ name, log, want string }{
		{"negative records", head(`,"records":-1`), "bad header"},
		{"foreign kind name", `{"format":"protozoa-flight","version":1,"kinds":["msg-send","nope"]}` + "\n", `kind 1 is "nope"`},
		{"negative cycle", head("") + "[-5,0,2,1,0,0,3,-1,7,0,0,0,0,0,0,0,0]\n", "line 2: cycle -5"},
		{"tile overflow", head("") + row + "[1,0,70000,1,0,0,3,-1,7,0,0,0,0,0,0,0,0]\n", "line 3: tile 70000"},
		{"tile beyond cores", head("") + "[1,0,4,1,0,0,3,-1,7,0,0,0,0,0,0,0,0]\n", "tile 4 out of range for 4 cores"},
		{"kind beyond header", head("") + "[1,0,2,2,0,0,3,-1,7,0,0,0,0,0,0,0,0]\n", "kind 2 outside"},
		{"kind beyond uint8", head("") + "[1,0,2,300,0,0,3,-1,7,0,0,0,0,0,0,0,0]\n", "kind 300 out of range"},
		{"src below none", head("") + "[1,0,2,1,0,-2,3,-1,7,0,0,0,0,0,0,0,0]\n", "src -2"},
		{"valid overflow", head("") + "[1,0,2,1,0,0,3,-1,7,0,0,0,0,0,0,65536,0]\n", "valid 65536"},
	} {
		_, _, err := ReadLog(strings.NewReader(tc.log))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	if _, recs, err := ReadLog(strings.NewReader(head("") + row)); err != nil || len(recs) != 1 {
		t.Fatalf("valid row rejected: %v", err)
	}
}

// FuzzReadLog: arbitrary input never panics, and whatever ReadLog
// accepts round-trips through WriteLog — the re-written log reads back
// to the same records and re-writes to the same bytes.
func FuzzReadLog(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "recorded.pzfl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	var cur bytes.Buffer
	if err := WriteLog(&cur, Meta{Cores: 4, Msgs: []string{"GETS"}}, []Record{
		{Cycle: 3, Tile: 1, Kind: KindLinkStall, Sub: 0, Src: 1, Dst: 2, Req: -1, Txn: 6},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(cur.Bytes())
	f.Add([]byte(`{"format":"protozoa-flight","version":1,"records":-1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, recs, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := WriteLog(&once, meta, recs); err != nil {
			t.Fatal(err)
		}
		meta2, recs2, err := ReadLog(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-written log rejected: %v", err)
		}
		if len(recs2) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(recs2, recs)) {
			t.Fatalf("records changed across the round trip")
		}
		var twice bytes.Buffer
		if err := WriteLog(&twice, meta2, recs2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("WriteLog not stable across a round trip:\n%s\n---\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
