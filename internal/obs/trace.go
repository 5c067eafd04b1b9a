package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"protozoa/internal/obs/flight"
)

// Chrome trace-event export: a view over the flight spine's records,
// rendered as a JSON trace loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Simulated cycles map 1:1 onto trace microseconds.
// Layout:
//
//   - one track per core (tid = core): L1 miss slices, named by the
//     request type, plus every message arriving at the tile and the
//     link stalls of messages it sends;
//   - one track per directory slice (tid = DirTrackBase + tile):
//     transaction-occupancy slices from activation to region reopen;
//   - message flights as complete events on the destination track,
//     spanning send to delivery, with src/dst/region/txn in args.
//
// Only the send/deliver, miss, transaction and link-stall kinds appear;
// the rest of the spine (frees, directory phase edges, state changes)
// is the flight log's to show. Start/end records are paired here (the
// hot path records flat instants only); ends whose start was evicted
// by ring wrap degrade to instant events rather than being dropped.

// DirTrackBase offsets directory-track thread IDs past any plausible
// core ID so the two groups sort apart in the viewer.
const DirTrackBase = 4096

// TraceOptions names the trace's process and message types.
type TraceOptions struct {
	// Names renders a record's Sub field (the coherence message type)
	// for slice names; nil falls back to a numeric form.
	Names *flight.Names
	// Process names the trace's single process; empty = "protozoa".
	Process string
}

// ChromeEvent is one trace-event JSON object. Exported so tests (and
// the trace-smoke tool) can round-trip a written trace.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON document.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// BuildChromeTrace pairs flight records into slices and returns the
// trace document. Records must be cycle-ordered (Recorder.Records
// order); dropped is the ring-wrap eviction count the header reports.
func BuildChromeTrace(recs []flight.Record, dropped uint64, opt TraceOptions) *ChromeTrace {
	tr := &ChromeTrace{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"clock":          "1 simulated cycle = 1us",
			"dropped_events": dropped,
		},
	}
	if opt.Process == "" {
		opt.Process = "protozoa"
	}
	tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": opt.Process},
	})
	namedTracks := map[int]bool{}
	track := func(tid int) {
		if namedTracks[tid] {
			return
		}
		namedTracks[tid] = true
		name := fmt.Sprintf("core %d", tid)
		if tid >= DirTrackBase {
			name = fmt.Sprintf("dir %d", tid-DirTrackBase)
		}
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}

	type msgKey struct {
		src, dst int16
		sub      uint8
	}
	type txnKey struct {
		tile   int16
		region uint64
	}
	// Pending starts awaiting their end record, by index into recs.
	// Message channels are FIFO per (src, dst, type) — the mesh's
	// ordering guarantee — so a queue per key pairs sends to deliveries
	// in order.
	msgQ := map[msgKey][]int{}
	missOpen := map[int16]int{}
	txnOpen := map[txnKey]int{}

	emit := func(ev ChromeEvent) {
		track(ev.Tid)
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}
	instant := func(r flight.Record, name string, tid int) {
		emit(ChromeEvent{
			Name: name, Ph: "i", Ts: uint64(r.Cycle), Pid: 0, Tid: tid, S: "t",
			Args: recordArgs(r),
		})
	}
	subName := opt.Names.Sub

	for i, r := range recs {
		switch r.Kind {
		case flight.KindMsgSend:
			k := msgKey{r.Src, r.Dst, r.Sub}
			msgQ[k] = append(msgQ[k], i)
		case flight.KindMsgDeliver:
			k := msgKey{r.Src, r.Dst, r.Sub}
			name := subName(r.Sub)
			if q := msgQ[k]; len(q) > 0 {
				send := recs[q[0]]
				msgQ[k] = q[1:]
				emit(ChromeEvent{
					Name: name, Ph: "X", Ts: uint64(send.Cycle),
					Dur: uint64(r.Cycle - send.Cycle), Pid: 0, Tid: int(r.Dst),
					Args: recordArgs(r),
				})
			} else {
				// The matching send was evicted by ring wrap.
				instant(r, name, int(r.Dst))
			}
		case flight.KindMissStart:
			missOpen[r.Src] = i
		case flight.KindMissEnd:
			if si, ok := missOpen[r.Src]; ok {
				delete(missOpen, r.Src)
				start := recs[si]
				emit(ChromeEvent{
					Name: "miss " + subName(start.Sub),
					Ph:   "X", Ts: uint64(start.Cycle),
					Dur: uint64(r.Cycle - start.Cycle), Pid: 0, Tid: int(r.Src),
					Args: recordArgs(start),
				})
			} else {
				instant(r, "miss-end", int(r.Src))
			}
		case flight.KindTxnStart:
			txnOpen[txnKey{r.Tile, r.Region}] = i
		case flight.KindTxnEnd:
			k := txnKey{r.Tile, r.Region}
			if si, ok := txnOpen[k]; ok {
				delete(txnOpen, k)
				start := recs[si]
				emit(ChromeEvent{
					Name: "txn " + subName(start.Sub),
					Ph:   "X", Ts: uint64(start.Cycle),
					Dur: uint64(r.Cycle - start.Cycle), Pid: 0,
					Tid:  DirTrackBase + int(r.Tile),
					Args: recordArgs(start),
				})
			} else {
				instant(r, "txn-end", DirTrackBase+int(r.Tile))
			}
		case flight.KindLinkStall:
			instant(r, "link-stall", int(r.Src))
		}
	}
	// Starts with no recorded end (in flight when recording stopped, or
	// their end evicted by ring wrap) degrade to instants, in record
	// order so the output is deterministic, and nothing silently
	// vanishes.
	var unmatched []int
	for _, q := range msgQ {
		unmatched = append(unmatched, q...)
	}
	for _, i := range missOpen {
		unmatched = append(unmatched, i)
	}
	for _, i := range txnOpen {
		unmatched = append(unmatched, i)
	}
	sort.Ints(unmatched)
	for _, i := range unmatched {
		r := recs[i]
		switch r.Kind {
		case flight.KindMsgSend:
			instant(r, subName(r.Sub), int(r.Src))
		case flight.KindMissStart:
			instant(r, "miss-start", int(r.Src))
		case flight.KindTxnStart:
			instant(r, "txn-start", DirTrackBase+int(r.Tile))
		}
	}
	return tr
}

// recordArgs is a trace event's args: the region, the route for
// message and link-stall records, and the transaction ID (the stall
// length for link stalls) when set.
func recordArgs(r flight.Record) map[string]any {
	a := map[string]any{"region": r.Region}
	switch r.Kind {
	case flight.KindMsgSend, flight.KindMsgDeliver, flight.KindLinkStall:
		a["src"] = r.Src
		a["dst"] = r.Dst
	}
	if r.Txn != 0 {
		a["txn"] = r.Txn
	}
	return a
}

// WriteChromeTrace builds the trace and writes it as indented JSON.
func WriteChromeTrace(w io.Writer, recs []flight.Record, dropped uint64, opt TraceOptions) error {
	return EncodeChromeTrace(w, BuildChromeTrace(recs, dropped, opt))
}

// EncodeChromeTrace writes an already-built trace document as indented
// JSON — the shared writer behind the machine trace and the selfprof
// meta-trace.
func EncodeChromeTrace(w io.Writer, tr *ChromeTrace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tr)
}
