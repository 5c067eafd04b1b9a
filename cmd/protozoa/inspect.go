package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"protozoa/internal/obs/flight"
)

// inspectOpts holds inspect's flags.
type inspectOpts struct {
	region  int64
	addr    string
	core    int
	cycles  string
	records bool
	last    int
	summary bool
	check   bool
}

// inspect reads a flight log recorded by protozoa sim -flight and
// reconstructs what the protocol did: per-transaction timelines with
// per-phase dwell times, raw record transcripts, or a validity check.
// Filters cut the log down to one region, address, core, or cycle
// window before rendering.
//
//	protozoa inspect flight.pzfl                 per-transaction timelines
//	protozoa inspect -records flight.pzfl        raw record transcript
//	protozoa inspect -summary flight.pzfl        header + per-kind counts
//	protozoa inspect -check flight.pzfl          validate, exit nonzero if corrupt
//	protozoa inspect -region 17 -records f.pzfl  one region's causal history
//	protozoa inspect -addr 0x4400 f.pzfl         filter by address (maps to its region)
//	protozoa inspect -core 3 -cycles 1000:2000 f.pzfl
func inspect(args []string) error {
	f := newFlags("inspect")
	var opt inspectOpts
	f.Int64Var(&opt.region, "region", -1, "keep only records for this region id")
	f.StringVar(&opt.addr, "addr", "", "keep only records for the region containing this byte address (hex ok)")
	f.IntVar(&opt.core, "core", -1, "keep only records involving this core (as source or requester)")
	f.StringVar(&opt.cycles, "cycles", "", "keep only records in this cycle window, as START:END (either side may be empty)")
	f.BoolVar(&opt.records, "records", false, "print the raw record transcript instead of transaction timelines")
	f.IntVar(&opt.last, "last", 0, "print only the last N entries (0 = all)")
	f.BoolVar(&opt.summary, "summary", false, "print the log header and per-kind record counts, then exit")
	f.BoolVar(&opt.check, "check", false, "validate the log (format, field counts, cycle order) and print one status line")
	if err := f.parse(args); err != nil {
		return err
	}
	if f.NArg() != 1 {
		return errors.New("want one flight log argument: protozoa inspect [flags] flight.pzfl (or - for stdin)")
	}
	var in io.Reader = os.Stdin
	if path := f.Arg(0); path != "-" {
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		defer file.Close()
		in = file
	}
	meta, recs, err := flight.ReadLog(in)
	if err != nil {
		return err
	}
	if opt.check {
		return checkLog(&meta, recs)
	}
	if opt.summary {
		printSummary(&meta, recs)
		return nil
	}

	recs, err = filter(&meta, recs, opt)
	if err != nil {
		return err
	}
	names := meta.Names()
	if opt.records {
		if opt.last > 0 && len(recs) > opt.last {
			recs = recs[len(recs)-opt.last:]
		}
		return flight.WriteTranscript(os.Stdout, recs, names)
	}
	printTxns(flight.Reconstruct(recs), names, opt.last)
	return nil
}

// checkLog validates what ReadLog does not: the record count matches
// the header and the merged stream is cycle-ordered (the worker-count
// invariance guarantee). Parse errors already surfaced in ReadLog.
func checkLog(meta *flight.Meta, recs []flight.Record) error {
	if len(recs) != meta.Records {
		return fmt.Errorf("header says %d records, file has %d", meta.Records, len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Cycle < recs[i-1].Cycle {
			return fmt.Errorf("record %d: cycle %d after %d — log is not cycle-ordered",
				i, recs[i].Cycle, recs[i-1].Cycle)
		}
	}
	txns := flight.Reconstruct(recs)
	open := 0
	for i := range txns {
		if txns[i].Open {
			open++
		}
	}
	var span string
	if len(recs) > 0 {
		span = fmt.Sprintf(", cycles %d..%d", recs[0].Cycle, recs[len(recs)-1].Cycle)
	}
	fmt.Printf("ok: %s %s, %d cores, %d records%s, %d txns (%d open), %d dropped at record time\n",
		meta.Protocol, meta.Format, meta.Cores, len(recs), span, len(txns), open, meta.Dropped)
	return nil
}

func printSummary(meta *flight.Meta, recs []flight.Record) {
	fmt.Printf("protocol    %s\n", meta.Protocol)
	fmt.Printf("cores       %d\n", meta.Cores)
	fmt.Printf("region      %d bytes\n", meta.RegionBytes)
	fmt.Printf("records     %d (%d dropped at record time)\n", len(recs), meta.Dropped)
	if len(recs) > 0 {
		fmt.Printf("cycles      %d..%d\n", recs[0].Cycle, recs[len(recs)-1].Cycle)
	}
	counts := make([]int, len(meta.Kinds))
	for i := range recs {
		if k := int(recs[i].Kind); k < len(counts) {
			counts[k]++
		}
	}
	fmt.Printf("by kind:\n")
	for k, n := range counts {
		if n > 0 {
			fmt.Printf("  %-14s %d\n", meta.Kinds[k], n)
		}
	}
}

func filter(meta *flight.Meta, recs []flight.Record, opt inspectOpts) ([]flight.Record, error) {
	region := opt.region
	if opt.addr != "" {
		a, err := strconv.ParseUint(opt.addr, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -addr %q (decimal or 0x-prefixed hex): %w", opt.addr, err)
		}
		if meta.RegionBytes <= 0 {
			return nil, fmt.Errorf("log header has no region size; cannot map -addr")
		}
		r := int64(a / uint64(meta.RegionBytes))
		if region >= 0 && region != r {
			return nil, fmt.Errorf("-region %d and -addr %s (region %d) disagree", region, opt.addr, r)
		}
		region = r
	}
	lo, hi, err := parseWindow(opt.cycles)
	if err != nil {
		return nil, err
	}
	out := recs[:0]
	for i := range recs {
		r := recs[i]
		if region >= 0 && r.Region != uint64(region) {
			continue
		}
		if opt.core >= 0 && int(r.Src) != opt.core && int(r.Req) != opt.core {
			continue
		}
		if uint64(r.Cycle) < lo || uint64(r.Cycle) > hi {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

func parseWindow(s string) (lo, hi uint64, err error) {
	hi = ^uint64(0)
	if s == "" {
		return lo, hi, nil
	}
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -cycles %q: want START:END", s)
	}
	if a != "" {
		if lo, err = strconv.ParseUint(a, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad -cycles start %q: %w", a, err)
		}
	}
	if b != "" {
		if hi, err = strconv.ParseUint(b, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad -cycles end %q: %w", b, err)
		}
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("bad -cycles %q: start after end", s)
	}
	return lo, hi, nil
}

// printTxns renders reconstructed transactions, one line each plus the
// phase dwell breakdown. The dwells sum to the total latency exactly
// (the same clamp algebra as the simulator's latency breakdown), so
// summing a column over a run reproduces the per-phase report.
func printTxns(txns []flight.Txn, names *flight.Names, last int) {
	if last > 0 && len(txns) > last {
		txns = txns[len(txns)-last:]
	}
	if len(txns) == 0 {
		fmt.Println("no transactions in the filtered window")
		return
	}
	fmt.Printf("%-6s %-5s %-8s %-10s %-10s %-10s %8s | %s\n",
		"txn", "core", "region", "request", "issue", "complete", "total",
		strings.Join(flight.PhaseNames[:], " "))
	for i := range txns {
		t := &txns[i]
		req := names.Sub(t.Sub)
		if req == "" {
			req = "?"
		}
		if t.Open {
			fmt.Printf("%-6d %-5d %-8d %-10s %-10d %-10s %8s | still open\n",
				i, t.Core, t.Region, req, t.Issue, "-", "-")
			continue
		}
		var dwells []string
		for p, d := range t.Dwell {
			dwells = append(dwells, fmt.Sprintf("%s=%d", flight.PhaseNames[p], d))
		}
		fmt.Printf("%-6d %-5d %-8d %-10s %-10d %-10d %8d | %s\n",
			i, t.Core, t.Region, req, t.Issue, t.Complete, t.Total(),
			strings.Join(dwells, " "))
	}
}
