package main

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The runner writes one line per finished cell and one summary line
// per grid to Options.Progress:
//
//	[3/112] barnes/MESI: ok (48213 events, 52ms)
//	112 cells (0 failed, 0 cached), 5402113 events, 91822310 simulated cycles, 5.412s wall on 2 jobs
//
// The parser below accepts exactly these shapes and rejects anything
// else, so a drift in the format fails the run instead of reading zero.
var (
	cellLineRE    = regexp.MustCompile(`^\[(\d+)/(\d+)\] (.+?): (ok|cached|FAIL: .*) \((\d+) events, ([^()]+)\)$`)
	summaryLineRE = regexp.MustCompile(`^(\d+) cells \((\d+) failed, (\d+) cached\), (\d+) events, (\d+) simulated cycles, (\S+) wall on (\d+) jobs$`)
)

// cellLine is one parsed per-cell completion line.
type cellLine struct {
	label  string
	failed bool
	cached bool
	events uint64
	wall   time.Duration
}

// gridSummary is one parsed grid: its cell lines and summary line.
type gridSummary struct {
	cells                 []cellLine
	total, failed, cached int
	events, simCycles     uint64
	wall                  time.Duration
	jobs                  int
}

// parseProgress parses the Progress output of one or more consecutive
// grids. Every line must be a cell line or a summary line; each grid
// must end in a summary whose cell count matches its cell lines.
func parseProgress(out string) ([]gridSummary, error) {
	var (
		grids []gridSummary
		cur   gridSummary
	)
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if m := cellLineRE.FindStringSubmatch(line); m != nil {
			c := cellLine{label: m[3], failed: strings.HasPrefix(m[4], "FAIL"), cached: m[4] == "cached"}
			var err error
			if c.events, err = strconv.ParseUint(m[5], 10, 64); err != nil {
				return nil, fmt.Errorf("progress line %d: events: %w", n, err)
			}
			if c.wall, err = time.ParseDuration(m[6]); err != nil {
				return nil, fmt.Errorf("progress line %d: wall: %w", n, err)
			}
			cur.cells = append(cur.cells, c)
			continue
		}
		m := summaryLineRE.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("progress line %d is neither a cell nor a summary line: %q", n, line)
		}
		ints := make([]uint64, 0, 6)
		for _, s := range []string{m[1], m[2], m[3], m[4], m[5], m[7]} {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("progress line %d: %w", n, err)
			}
			ints = append(ints, v)
		}
		wall, err := time.ParseDuration(m[6])
		if err != nil {
			return nil, fmt.Errorf("progress line %d: wall: %w", n, err)
		}
		cur.total, cur.failed, cur.cached = int(ints[0]), int(ints[1]), int(ints[2])
		cur.events, cur.simCycles, cur.wall, cur.jobs = ints[3], ints[4], wall, int(ints[5])
		if len(cur.cells) != cur.total {
			return nil, fmt.Errorf("progress line %d: summary counts %d cells, saw %d cell lines", n, cur.total, len(cur.cells))
		}
		grids = append(grids, cur)
		cur = gridSummary{}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("progress: %w", err)
	}
	if len(cur.cells) > 0 {
		return nil, fmt.Errorf("progress: %d cell lines after the last summary", len(cur.cells))
	}
	return grids, nil
}

// lockedBuffer collects Progress output; the runner's workers write to
// it from several goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
