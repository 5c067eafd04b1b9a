package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"protozoa/internal/engine"
	"protozoa/internal/obs/flight"
)

func msgPair(sendAt, deliverAt uint64, sub uint8, src, dst int16, region uint64) []flight.Record {
	return []flight.Record{
		{Cycle: engine.Cycle(sendAt), Tile: src, Kind: flight.KindMsgSend, Sub: sub, Src: src, Dst: dst, Region: region},
		{Cycle: engine.Cycle(deliverAt), Tile: dst, Kind: flight.KindMsgDeliver, Sub: sub, Src: src, Dst: dst, Region: region},
	}
}

func TestChromeTracePairsSlices(t *testing.T) {
	var recs []flight.Record
	recs = append(recs, flight.Record{Cycle: 10, Tile: 2, Kind: flight.KindMissStart, Sub: 1, Src: 2, Dst: 5, Req: 2, Region: 7})
	recs = append(recs, msgPair(10, 24, 1, 2, 5, 7)...)
	// Spine kinds the trace does not show must not disturb the pairing.
	recs = append(recs, flight.Record{Cycle: 24, Tile: 5, Kind: flight.KindDirAccept, Sub: 1, Src: 5, Dst: -1, Req: 2, Region: 7})
	recs = append(recs, flight.Record{Cycle: 24, Tile: 5, Kind: flight.KindTxnStart, Sub: 1, Src: 5, Dst: -1, Req: 2, Region: 7, Txn: 3})
	recs = append(recs, flight.Record{Cycle: 55, Tile: 2, Kind: flight.KindMissEnd, Sub: flight.SubNone, Src: 2, Dst: -1, Req: 2, Region: 7})
	recs = append(recs, flight.Record{Cycle: 60, Tile: 5, Kind: flight.KindTxnEnd, Sub: flight.SubNone, Src: 5, Dst: -1, Req: -1, Region: 7, Txn: 3})
	recs = append(recs, flight.Record{Cycle: 61, Tile: 5, Kind: flight.KindLinkStall, Sub: 1, Src: 5, Dst: 2, Req: -1, Txn: 4})

	tr := BuildChromeTrace(recs, 0, TraceOptions{
		Names: &flight.Names{Msgs: []string{"GETS", "GETX"}},
	})

	var miss, msg, txn *ChromeEvent
	for i := range tr.TraceEvents {
		e := &tr.TraceEvents[i]
		switch e.Name {
		case "miss GETX":
			miss = e
		case "GETX":
			msg = e
		case "txn GETX":
			txn = e
		}
	}
	if miss == nil || miss.Ph != "X" || miss.Ts != 10 || miss.Dur != 45 || miss.Tid != 2 {
		t.Fatalf("miss slice wrong: %+v", miss)
	}
	if msg == nil || msg.Ph != "X" || msg.Ts != 10 || msg.Dur != 14 || msg.Tid != 5 {
		t.Fatalf("message flight wrong: %+v", msg)
	}
	if txn == nil || txn.Ph != "X" || txn.Ts != 24 || txn.Dur != 36 || txn.Tid != DirTrackBase+5 {
		t.Fatalf("txn slice wrong: %+v", txn)
	}
	// Miss and transaction args carry no route; message and link-stall
	// args do, and the stall length rides in txn.
	if _, ok := miss.Args["dst"]; ok {
		t.Errorf("miss slice args carry a route: %v", miss.Args)
	}
	var stall *ChromeEvent
	for i := range tr.TraceEvents {
		if tr.TraceEvents[i].Name == "link-stall" {
			stall = &tr.TraceEvents[i]
		}
	}
	if stall == nil || stall.Ph != "i" || stall.Tid != 5 ||
		stall.Args["dst"] != int16(2) || stall.Args["txn"] != uint64(4) {
		t.Fatalf("link-stall instant wrong: %+v", stall)
	}
	// Track metadata: core 2, dir 5, and the dst core 5 must be named.
	names := map[int]string{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			names[e.Tid] = e.Args["name"].(string)
		}
	}
	if names[2] != "core 2" || names[DirTrackBase+5] != "dir 5" {
		t.Fatalf("track names wrong: %v", names)
	}
}

func TestChromeTraceUnmatchedDegradesToInstant(t *testing.T) {
	recs := []flight.Record{
		// A deliver whose send was evicted by ring wrap, and starts
		// still open when recording stopped.
		{Cycle: 5, Kind: flight.KindMsgDeliver, Sub: 0, Src: 1, Dst: 2},
		{Cycle: 9, Kind: flight.KindTxnStart, Sub: 0, Tile: 3, Src: 3, Dst: -1, Region: 4},
		{Cycle: 9, Kind: flight.KindMsgSend, Sub: 0, Src: 2, Dst: 3},
		{Cycle: 9, Kind: flight.KindMissStart, Sub: 0, Src: 4, Dst: 1},
		{Cycle: 10, Kind: flight.KindMsgSend, Sub: 1, Src: 0, Dst: 3},
	}
	tr := BuildChromeTrace(recs, 12, TraceOptions{})
	var instants []string
	for _, e := range tr.TraceEvents {
		if e.Ph == "i" {
			instants = append(instants, e.Name)
		}
		if e.Ph == "X" {
			t.Fatalf("unmatched records must not produce slices: %+v", e)
		}
	}
	// Unmatched starts degrade in record order, so the output is
	// deterministic however the pending starts were held.
	want := []string{"sub#0", "txn-start", "sub#0", "miss-start", "sub#1"}
	if len(instants) != len(want) {
		t.Fatalf("instants %v, want %v", instants, want)
	}
	for i := range want {
		if instants[i] != want[i] {
			t.Fatalf("instants %v, want %v", instants, want)
		}
	}
	if tr.OtherData["dropped_events"] != uint64(12) {
		t.Fatalf("dropped_events missing: %v", tr.OtherData)
	}
}

// TestChromeTraceRoundTrip is the acceptance check: the written JSON
// parses back into the same document.
func TestChromeTraceRoundTrip(t *testing.T) {
	var recs []flight.Record
	recs = append(recs, msgPair(0, 9, 2, 0, 3, 11)...)
	recs = append(recs, msgPair(12, 30, 5, 3, 0, 11)...)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs, 0, TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	var parsed ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("written trace does not parse: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" || len(parsed.TraceEvents) == 0 {
		t.Fatalf("parsed trace incomplete: %+v", parsed)
	}
	again, err := json.Marshal(parsed)
	if err != nil {
		t.Fatal(err)
	}
	var reparsed ChromeTrace
	if err := json.Unmarshal(again, &reparsed); err != nil {
		t.Fatalf("re-marshalled trace does not parse: %v", err)
	}
	if len(reparsed.TraceEvents) != len(parsed.TraceEvents) {
		t.Fatalf("round trip lost events: %d vs %d", len(reparsed.TraceEvents), len(parsed.TraceEvents))
	}
}
