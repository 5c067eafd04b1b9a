package flight

import "sort"

// Transaction reconstruction: fold the ring's record stream back into
// per-miss timelines with per-phase dwell times. The phase algebra —
// Chain — is shared with the online obs.LatencyBreakdown fold: stamps
// are overwritten as records arrive (so an abandoned round's stamps
// fold away exactly like a reissued upgrade's do) and then clamped into
// a monotone chain. The reconstructed dwell sums therefore reconcile
// exactly against the latency breakdown: summed per phase over
// completed transactions they equal LatencyBreakdown.PhaseSum, and each
// transaction's dwells sum to its complete-issue latency.

// NumPhases and PhaseNames are the phase vocabulary obs.Phase indexes.
const NumPhases = 5

// PhaseNames names the five phases in order.
var PhaseNames = [NumPhases]string{
	"req-noc", "dir-queue", "l2-access", "fanout-acks", "data-fill",
}

// Chain is one miss's phase-edge stamps: issue, dir-accept, activate,
// process, last-ack, complete.
type Chain [NumPhases + 1]uint64

// Stamp overwrites the edge a directory-phase record marks (dir-accept,
// txn-start, txn-process, txn-last-ack); other kinds leave the chain
// alone. Overwriting is the reissue semantics: a later round's stamp
// replaces the abandoned round's, and Close folds the gap into req-noc.
func (c *Chain) Stamp(r *Record) {
	switch r.Kind {
	case KindDirAccept:
		c[1] = uint64(r.Cycle)
	case KindTxnStart:
		c[2] = uint64(r.Cycle)
	case KindTxnProcess:
		c[3] = uint64(r.Cycle)
	case KindTxnLastAck:
		c[4] = uint64(r.Cycle)
	}
}

// Close stamps completion, clamps the chain monotone — so a stale or
// missing stamp can never produce a negative phase — and returns the
// per-phase dwells, which sum to complete - c[0].
func (c *Chain) Close(complete uint64) (dwell [NumPhases]uint64) {
	c[NumPhases] = complete
	for i := 1; i <= NumPhases; i++ {
		if c[i] < c[i-1] {
			c[i] = c[i-1]
		}
	}
	for p := range dwell {
		dwell[p] = c[p+1] - c[p]
	}
	return dwell
}

// Txn is one reconstructed miss transaction.
type Txn struct {
	Core   int
	Region uint64
	Sub    uint8 // request message code at issue
	Issue  uint64
	// Complete is the fill/grant cycle; zero when Open.
	Complete uint64
	// Chain is the monotone-clamped stamp chain: issue, dir-accept,
	// activate, process, last-ack, complete.
	Chain Chain
	// Dwell[p] = Chain[p+1] - Chain[p]; the dwells sum to
	// Complete - Issue exactly.
	Dwell [NumPhases]uint64
	// Open marks a transaction still outstanding when the log ended —
	// the stall watchdog's quarry.
	Open bool
}

// Total is the transaction's full latency (0 while Open).
func (t *Txn) Total() uint64 {
	if t.Open {
		return 0
	}
	return t.Complete - t.Issue
}

// Reconstruct folds a cycle-ordered record stream (Recorder.Records or
// a parsed log) into per-miss transactions, in completion order, with
// still-open transactions appended last. The in-order cores have at
// most one miss outstanding each, so tracking is a per-core slot, like
// obs.LatencyBreakdown's fold. Directory-phase records tie to
// the requesting core via Req; inclusion recalls (Req < 0) have no
// requesting miss and are skipped.
func Reconstruct(recs []Record) []Txn {
	open := map[int]*Txn{}
	var out []Txn
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case KindMissStart:
			open[int(r.Src)] = &Txn{
				Core: int(r.Src), Region: r.Region, Sub: r.Sub,
				Issue: uint64(r.Cycle), Chain: Chain{uint64(r.Cycle)}, Open: true,
			}
		case KindDirAccept, KindTxnStart, KindTxnProcess, KindTxnLastAck:
			if t := open[int(r.Req)]; t != nil && t.Region == r.Region {
				t.Chain.Stamp(r)
			}
		case KindMissEnd:
			t := open[int(r.Src)]
			if t == nil {
				continue
			}
			delete(open, int(r.Src))
			t.Complete = uint64(r.Cycle)
			t.Open = false
			t.Dwell = t.Chain.Close(t.Complete)
			out = append(out, *t)
		}
	}
	// Still-open transactions keep Open=true and their raw stamps; sort
	// order (by issue) is deterministic because map iteration is not.
	stalled := len(out)
	for _, t := range open {
		out = append(out, *t)
	}
	tail := out[stalled:]
	sort.Slice(tail, func(i, j int) bool {
		return tail[i].Issue < tail[j].Issue || tail[i].Issue == tail[j].Issue && tail[i].Core < tail[j].Core
	})
	return out
}
