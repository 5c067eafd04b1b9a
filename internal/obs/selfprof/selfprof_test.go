package selfprof

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestReportCopiesQueueCounters(t *testing.T) {
	p := New()
	p.Queue.RingPushes = 50
	p.Queue.FarPushes = 10
	p.Queue.RingHigh = 9
	p.Queue.FarHigh = 2
	p.MicroHits = 20
	p.TotalEvents = 80
	p.TotalNs = 1000

	r := p.Report()
	want := QueueTotals{RingPushes: 50, FarPushes: 10, MicroHits: 20, RingHigh: 9, FarHigh: 2}
	if r.Queue != want || r.TotalEvents != 80 || r.TotalNs != 1000 {
		t.Errorf("report = %+v, want queue %+v, 80 events, 1000 ns", r, want)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if round.Queue != want || round.TotalEvents != 80 {
		t.Errorf("round-tripped report lost fields: %+v", round)
	}

	buf.Reset()
	r.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"self-profile: 80 events", "zero-delay 20", "high ring/far 9/2"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorConcurrentAdd(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(&Report{
					TotalEvents: 10,
					Queue:       QueueTotals{RingPushes: 3, MicroHits: 1, RingHigh: j},
				})
			}
		}()
	}
	wg.Wait()
	if c.Runs() != 800 {
		t.Fatalf("runs = %d, want 800", c.Runs())
	}
	agg := c.Totals()
	if agg.TotalEvents != 8000 || agg.Queue.RingPushes != 2400 || agg.Queue.MicroHits != 800 {
		t.Errorf("totals wrong: %+v", agg)
	}
	if agg.Queue.RingHigh != 99 {
		t.Errorf("RingHigh = %d, want max 99", agg.Queue.RingHigh)
	}
	var buf bytes.Buffer
	c.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "800 simulated cells") {
		t.Errorf("summary: %s", buf.String())
	}
}
