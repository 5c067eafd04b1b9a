package obs

import (
	"testing"

	"protozoa/internal/engine"
	"protozoa/internal/obs/flight"
)

// fold feeds one phase record for core at cycle.
func fold(l *LatencyBreakdown, core int16, k flight.Kind, cycle uint64) {
	l.Fold(&flight.Record{Cycle: engine.Cycle(cycle), Kind: k, Src: core, Req: core})
}

// miss folds a whole miss with no directory stamps.
func miss(l *LatencyBreakdown, core int16, issue, complete uint64) {
	fold(l, core, flight.KindMissStart, issue)
	fold(l, core, flight.KindMissEnd, complete)
}

func TestLatencyPhasesSumToTotal(t *testing.T) {
	l := NewLatencyBreakdown(2)
	fold(l, 0, flight.KindMissStart, 100)
	fold(l, 0, flight.KindDirAccept, 110)
	fold(l, 0, flight.KindTxnStart, 110)
	fold(l, 0, flight.KindTxnProcess, 124)
	fold(l, 0, flight.KindTxnLastAck, 160)
	fold(l, 0, flight.KindMissEnd, 175)
	if l.Count != 1 {
		t.Fatalf("count %d right after miss-end, want 1", l.Count)
	}
	want := map[Phase]uint64{
		PhaseReqNoC:   10,
		PhaseDirQueue: 0,
		PhaseL2Access: 14,
		PhaseFanOut:   36,
		PhaseData:     15,
	}
	var sum uint64
	for p, w := range want {
		if l.PhaseSum[p] != w {
			t.Errorf("%s = %d, want %d", p, l.PhaseSum[p], w)
		}
		sum += l.PhaseSum[p]
	}
	if sum != 75 || l.TotalSum != 75 {
		t.Fatalf("phase sum %d / total %d, want 75", sum, l.TotalSum)
	}
}

// TestLatencyStaleStampClamped models the upgrade-reissue race: the
// second round's directory stamps come after a stale last-ack from the
// abandoned first round. The clamped chain must keep every phase
// non-negative and still sum to the full latency.
func TestLatencyStaleStampClamped(t *testing.T) {
	l := NewLatencyBreakdown(1)
	fold(l, 0, flight.KindMissStart, 0)
	fold(l, 0, flight.KindDirAccept, 10)
	fold(l, 0, flight.KindTxnStart, 10)
	fold(l, 0, flight.KindTxnProcess, 24)
	fold(l, 0, flight.KindTxnLastAck, 50) // first round's fan-out
	// Grant failed; retry observed by the directory:
	fold(l, 0, flight.KindDirAccept, 80)
	fold(l, 0, flight.KindTxnStart, 81)
	fold(l, 0, flight.KindTxnProcess, 95)
	// No probes this round: last-ack (50) is now stale, behind process.
	fold(l, 0, flight.KindMissEnd, 120)

	var sum uint64
	for p := Phase(0); p < NumPhases; p++ {
		sum += l.PhaseSum[p]
	}
	if sum != 120 || l.TotalSum != 120 {
		t.Fatalf("phases sum to %d (total %d), want 120", sum, l.TotalSum)
	}
	if l.PhaseSum[PhaseFanOut] != 0 {
		t.Errorf("stale last-ack produced fan-out time %d, want 0", l.PhaseSum[PhaseFanOut])
	}
	if l.PhaseSum[PhaseData] != 25 {
		t.Errorf("data phase %d, want 25 (120-95)", l.PhaseSum[PhaseData])
	}
}

func TestLatencyCompleteWithoutIssueIgnored(t *testing.T) {
	l := NewLatencyBreakdown(1)
	fold(l, 0, flight.KindMissEnd, 99)
	if l.Count != 0 {
		t.Fatal("complete without live miss must not accrue")
	}
	// Double-complete: second is a no-op.
	fold(l, 0, flight.KindMissStart, 0)
	fold(l, 0, flight.KindMissEnd, 10)
	fold(l, 0, flight.KindMissEnd, 20)
	// Records with no requesting core (recalls) or outside the table,
	// and kinds the fold does not consume, are ignored.
	fold(l, -1, flight.KindMissStart, 30)
	fold(l, 5, flight.KindMissStart, 30)
	fold(l, 0, flight.KindMsgSend, 40)
	if l.Count != 1 || l.TotalSum != 10 {
		t.Fatalf("count=%d total=%d after double complete", l.Count, l.TotalSum)
	}
}

func TestLatencyPercentilesAndMerge(t *testing.T) {
	a := NewLatencyBreakdown(2)
	// 90 fast misses at ~16 cycles, 10 slow at ~1000, split across two
	// cores' fold slots.
	for i := 0; i < 90; i++ {
		miss(a, int16(i%2), 0, 16)
	}
	b := NewLatencyBreakdown(1)
	for i := 0; i < 10; i++ {
		miss(b, 0, 0, 1000)
	}
	a.Merge(b)
	if a.Count != 100 {
		t.Fatalf("merged count %d", a.Count)
	}
	if p50 := a.Percentile(50); p50 != LatBucketWidth {
		t.Errorf("p50 = %d, want %d (upper bound of the first bucket)", p50, LatBucketWidth)
	}
	if p95 := a.Percentile(95); p95 != 1000 {
		t.Errorf("p95 = %d, want 1000", p95)
	}
	if p99 := a.Percentile(99); p99 != 1000 {
		t.Errorf("p99 = %d, want 1000", p99)
	}
	if got := a.AvgTotal(); got != (90*16+10*1000)/100.0 {
		t.Errorf("avg %f", got)
	}
}

func TestLatencyOverflowBucket(t *testing.T) {
	l := NewLatencyBreakdown(1)
	huge := uint64(LatBuckets*LatBucketWidth) * 3
	miss(l, 0, 0, huge)
	if l.Hist[LatBuckets-1] != 1 {
		t.Fatal("overflow latency not in last bucket")
	}
	if p := l.Percentile(99); p != huge {
		t.Fatalf("overflow percentile %d, want clamped max %d", p, huge)
	}
}
