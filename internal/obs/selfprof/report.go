package selfprof

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// Report is the serializable snapshot of a Profile — what -self-prof
// dumps as JSON and renders as the summary table. Take it only after
// Run has returned (the live shards are not synchronized for readers
// outside the window loop's happens-before chain).
type Report struct {
	Mode       string `json:"mode"`
	Workers    int    `json:"workers"`
	LookaheadW uint64 `json:"lookahead_w"`

	Rounds             uint64 `json:"rounds"`
	InlineRounds       uint64 `json:"inline_rounds"`
	SoloExtendedRounds uint64 `json:"solo_extended_rounds"`
	BarrierReleases    uint64 `json:"barrier_releases"`
	InjectedMsgs       uint64 `json:"injected_msgs"`
	SkippedTileRounds  uint64 `json:"skipped_tile_rounds"`

	WidthAvg  float64       `json:"width_avg_cycles"`
	WidthP50  uint64        `json:"width_p50_cycles"`
	WidthMax  uint64        `json:"width_max_cycles"`
	WidthHist []WidthBucket `json:"width_hist,omitempty"`

	LoopNs        int64 `json:"loop_ns"`
	RunNs         int64 `json:"run_ns"`
	CoordWaitNs   int64 `json:"coord_wait_ns"`
	BookkeepingNs int64 `json:"bookkeeping_ns"`
	MergeNs       int64 `json:"merge_ns"`
	TotalNs       int64 `json:"total_ns"`

	TotalEvents uint64 `json:"total_events"`

	Queue      QueueTotals    `json:"queue"`
	WorkerWait []WorkerReport `json:"worker_wait,omitempty"`
	Tiles      []TileReport   `json:"tiles,omitempty"`
}

// WidthBucket is one log2 histogram bucket: rounds whose window width
// was <= Le cycles (and > the previous bucket's Le).
type WidthBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// QueueTotals aggregates the engine introspection counters across all
// tile queues.
type QueueTotals struct {
	RingPushes uint64 `json:"ring_pushes"`
	FarPushes  uint64 `json:"far_pushes"`
	MicroHits  uint64 `json:"micro_hits"`
	Refusals   uint64 `json:"refusals"`
	LimitCuts  uint64 `json:"limit_cuts"`
	RingHigh   int    `json:"ring_high"`
	FarHigh    int    `json:"far_high"`
}

func (q *QueueTotals) add(ts *TileShard) {
	q.RingPushes += ts.Queue.RingPushes
	q.FarPushes += ts.Queue.FarPushes
	q.MicroHits += ts.MicroHits
	q.Refusals += ts.Queue.Refusals
	q.LimitCuts += ts.Queue.LimitCuts
	if ts.Queue.RingHigh > q.RingHigh {
		q.RingHigh = ts.Queue.RingHigh
	}
	if ts.Queue.FarHigh > q.FarHigh {
		q.FarHigh = ts.Queue.FarHigh
	}
}

// WorkerReport is one crew worker's wall-clock split.
type WorkerReport struct {
	Worker int    `json:"worker"`
	SpinNs int64  `json:"spin_ns"`
	BusyNs int64  `json:"busy_ns"`
	Rounds uint64 `json:"rounds"`
}

// TileReport is one tile's accumulated telemetry.
type TileReport struct {
	ID              int     `json:"id"`
	BusyRounds      uint64  `json:"busy_rounds"`
	IdleRounds      uint64  `json:"idle_rounds"`
	SkippedWithWork uint64  `json:"skipped_with_work"`
	Events          uint64  `json:"events"`
	EvPerRound      float64 `json:"ev_per_round"`
	WallNs          int64   `json:"wall_ns"`
	RingPushes      uint64  `json:"ring_pushes"`
	FarPushes       uint64  `json:"far_pushes"`
	MicroHits       uint64  `json:"micro_hits"`
	Refusals        uint64  `json:"refusals"`
	LimitCuts       uint64  `json:"limit_cuts"`
	RingHigh        int     `json:"ring_high"`
	FarHigh         int     `json:"far_high"`
	SpansKept       int     `json:"spans_kept"`
	SpansDropped    uint64  `json:"spans_dropped"`
}

// Report snapshots the profile. Call after Run.
func (p *Profile) Report() *Report {
	r := &Report{
		Mode:               p.Mode,
		Workers:            p.Workers,
		LookaheadW:         p.LookaheadW,
		Rounds:             p.Rounds,
		InlineRounds:       p.InlineRounds,
		SoloExtendedRounds: p.SoloExtendedRounds,
		BarrierReleases:    p.BarrierReleases,
		InjectedMsgs:       p.InjectedMsgs,
		LoopNs:             p.LoopNs,
		RunNs:              p.RunNs,
		CoordWaitNs:        p.CoordWaitNs,
		MergeNs:            p.MergeNs,
		TotalNs:            p.TotalNs,
		TotalEvents:        p.TotalEvents,
	}
	if r.LoopNs > r.RunNs {
		r.BookkeepingNs = r.LoopNs - r.RunNs
	}
	if p.Width.N > 0 {
		r.WidthAvg = float64(p.Width.Sum) / float64(p.Width.N)
		r.WidthP50 = p.Width.Quantile(0.5)
		r.WidthMax = p.Width.Max
		for i, c := range p.Width.Buckets {
			if c > 0 {
				r.WidthHist = append(r.WidthHist, WidthBucket{Le: 1 << i, Count: c})
			}
		}
	}
	for w := 1; w < len(p.WorkerWait); w++ {
		ws := &p.WorkerWait[w]
		r.WorkerWait = append(r.WorkerWait, WorkerReport{
			Worker: w, SpinNs: ws.SpinNs, BusyNs: ws.BusyNs, Rounds: ws.Rounds,
		})
	}
	for i := range p.Tiles {
		ts := &p.Tiles[i]
		r.Queue.add(ts)
		r.SkippedTileRounds += ts.SkippedWithWork
		tr := TileReport{
			ID:              i,
			BusyRounds:      ts.BusyRounds,
			IdleRounds:      ts.IdleRounds,
			SkippedWithWork: ts.SkippedWithWork,
			Events:          ts.Events,
			WallNs:          ts.WallNs,
			RingPushes:      ts.Queue.RingPushes,
			FarPushes:       ts.Queue.FarPushes,
			MicroHits:       ts.MicroHits,
			Refusals:        ts.Queue.Refusals,
			LimitCuts:       ts.Queue.LimitCuts,
			RingHigh:        ts.Queue.RingHigh,
			FarHigh:         ts.Queue.FarHigh,
			SpansKept:       len(ts.Spans()),
			SpansDropped:    ts.spans.dropped(),
		}
		if ts.BusyRounds > 0 {
			tr.EvPerRound = float64(ts.Events) / float64(ts.BusyRounds)
		}
		r.Tiles = append(r.Tiles, tr)
	}
	return r
}

// WriteJSON dumps the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

func ns(d int64) string {
	return time.Duration(d).Round(10 * time.Microsecond).String()
}

// WriteSummary renders the human-readable table -self-prof prints.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "self-profile (%s", r.Mode)
	if r.Mode == "pdes" {
		fmt.Fprintf(w, ", workers=%d, W=%d", r.Workers, r.LookaheadW)
	}
	fmt.Fprintf(w, "): %d events in %s\n", r.TotalEvents, ns(r.TotalNs))

	if r.Mode == "pdes" {
		fmt.Fprintf(w, " rounds %d (inline %d, solo-extended %d, barrier releases %d, injected msgs %d, skipped tile-rounds %d)\n",
			r.Rounds, r.InlineRounds, r.SoloExtendedRounds, r.BarrierReleases,
			r.InjectedMsgs, r.SkippedTileRounds)
		fmt.Fprintf(w, " window width: avg %.1f cycles, p50 <=%d, max %d\n",
			r.WidthAvg, r.WidthP50, r.WidthMax)
		fmt.Fprintf(w, " wall: loop %s = run %s + bookkeeping %s; coord-wait %s; merge %s\n",
			ns(r.LoopNs), ns(r.RunNs), ns(r.BookkeepingNs), ns(r.CoordWaitNs), ns(r.MergeNs))
	}
	fmt.Fprintf(w, " queue: ring %d, far %d, zero-delay %d, refusals %d, limit-cuts %d, high ring/far %d/%d\n",
		r.Queue.RingPushes, r.Queue.FarPushes, r.Queue.MicroHits,
		r.Queue.Refusals, r.Queue.LimitCuts,
		r.Queue.RingHigh, r.Queue.FarHigh)

	if len(r.WorkerWait) > 0 {
		tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
		fmt.Fprintln(tw, " worker\tspin\tbusy\trounds")
		for _, ws := range r.WorkerWait {
			fmt.Fprintf(tw, " %d\t%s\t%s\t%d\n", ws.Worker, ns(ws.SpinNs), ns(ws.BusyNs), ws.Rounds)
		}
		tw.Flush()
	}
	if r.Mode == "pdes" && len(r.Tiles) > 0 {
		tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
		fmt.Fprintln(tw, " tile\tbusy\tidle\tskip\tevents\tev/round\twall\trefusals\tlimit-cuts")
		for _, t := range r.Tiles {
			fmt.Fprintf(tw, " %d\t%d\t%d\t%d\t%d\t%.1f\t%s\t%d\t%d\n",
				t.ID, t.BusyRounds, t.IdleRounds, t.SkippedWithWork,
				t.Events, t.EvPerRound, ns(t.WallNs), t.Refusals, t.LimitCuts)
		}
		tw.Flush()
	}
}
