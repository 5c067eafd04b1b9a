// Package stats collects the measurements reported in the paper's
// evaluation: traffic broken down into Used DATA / Unused DATA /
// control-by-class (Figures 9 and 10), miss rates in MPKI (Figure 13,
// Table 1), invalidation counts (Table 1), block-granularity
// distribution (Figure 12), directory owner-state occupancy
// (Figure 11), flit-hops as the interconnect dynamic-energy proxy
// (Figure 15), and execution cycles (Figure 14).
//
// The simulator is single-goroutine per run, so the counters are plain
// integers.
package stats

import "fmt"

// Class labels a control-message byte category, matching the paper's
// Figure 10 breakdown (REQ, FWD, INV, ACK, NACK) plus the identifier
// headers of data-bearing messages, which the paper folds into
// "message and data identifiers".
type Class uint8

const (
	ClassREQ  Class = iota // GETS/GETX/UPGRADE request headers
	ClassFWD               // directory-forwarded requests
	ClassINV               // invalidation probes
	ClassACK               // ACK, ACK-S, GRANT, WB_ACK
	ClassNACK              // negative acks from stale or non-overlapping sharers
	ClassDATA              // headers of DATA/DATA_E messages
	ClassWB                // headers of WBACK/WBACK_LAST messages
	numClasses
)

// String returns the paper's label for the class.
func (c Class) String() string {
	switch c {
	case ClassREQ:
		return "REQ"
	case ClassFWD:
		return "FWD"
	case ClassINV:
		return "INV"
	case ClassACK:
		return "ACK"
	case ClassNACK:
		return "NACK"
	case ClassDATA:
		return "DATAHDR"
	case ClassWB:
		return "WBHDR"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// NumClasses is the number of control classes.
const NumClasses = int(numClasses)

// MaxBlockWords bounds the block-size histogram (128-byte regions have
// 16 words).
const MaxBlockWords = 16

// Stats accumulates one simulation run's measurements.
type Stats struct {
	// Core-side activity.
	Instructions uint64 // retired instructions (memory + think)
	Accesses     uint64 // memory references issued
	Loads        uint64
	Stores       uint64 // includes RMWs (they acquire write permission)
	RMWs         uint64 // atomic read-modify-writes (subset of Stores)

	// L1 behaviour.
	L1Hits   uint64
	L1Misses uint64
	// Miss classification (region granularity): first-ever touch by
	// the core (cold), re-miss after a capacity eviction (capacity),
	// re-miss after a coherence invalidation or upgrade (coherence —
	// the false- and true-sharing misses adaptive coherence targets),
	// or a miss on a word of a partially resident region (granularity
	// — the underfetch cost unique to adaptive storage).
	MissesCold        uint64
	MissesCapacity    uint64
	MissesCoherence   uint64
	MissesGranularity uint64
	Invalidations     uint64 // INV/FWD probes that removed at least one block
	InvMsgs           uint64 // INV probes received, whether or not they hit
	Evictions         uint64 // capacity evictions at the L1
	Writebacks        uint64 // dirty blocks written back (eviction or snoop)
	UpgradeMisses     uint64 // write misses satisfied without data transfer

	// Traffic at the L1s, in bytes (sent plus received), split the way
	// Figure 9 reports it.
	UsedDataBytes   uint64
	UnusedDataBytes uint64
	ControlBytes    [NumClasses]uint64

	// Data-word bookkeeping used to attribute used/unused bytes.
	DataWordsIn  uint64 // words delivered to L1s in DATA messages
	DataWordsOut uint64 // words leaving L1s in WBACK messages

	// Network.
	FlitHops uint64 // Figure 15 energy proxy
	Flits    uint64
	Messages uint64

	// DirectForwards counts 3-hop owner-to-requester data transfers
	// (zero unless the 3-hop option is enabled).
	DirectForwards uint64

	// LinkStallCycles accumulates queueing delay beyond the uncontended
	// latency (zero unless NoC contention modeling is enabled).
	LinkStallCycles uint64

	// MemWritebacks counts L2 regions written back to memory on
	// inclusion evictions (zero with an unbounded L2).
	MemWritebacks uint64
	// Recalls counts L2 inclusion-victim recall transactions.
	Recalls uint64
	// MemFetches counts responses a non-inclusive L2 had to assemble
	// with words re-fetched from memory (Section 6).
	MemFetches uint64
	// MemReads counts first-touch memory fetches at the L2.
	MemReads uint64

	// Fill-granularity histogram, indexed by words-1 (Figure 12).
	BlockSizeHist [MaxBlockWords]uint64

	// Miss latency: total cycles, maximum, and a log2-bucket histogram
	// (bucket k counts misses with latency in [2^k, 2^(k+1))). The
	// paper's Figure 14 argument — parallelism hides the extra misses'
	// latency — is quantified by comparing these across protocols.
	MissLatencySum  uint64
	MissLatencyMax  uint64
	MissLatencyHist [24]uint64

	// Directory owner-state occupancy (Figure 11): every time a request
	// reaches a directory entry in Owned state, record the sharer mix.
	DirOwnerOneOnly     uint64 // 1 owner, no other sharers
	DirOwnerPlusSharers uint64 // 1 owner plus >=1 sharers
	DirMultiOwner       uint64 // >1 owners (Protozoa-MW only)

	// Simulator self-observability (properties of the run's execution,
	// not of the simulated machine): the event queue's deepest
	// occupancy and the count of events scheduled with zero delay (at
	// the current cycle). Both are deterministic for a given schedule.
	// Set once at the end of Run.
	EventQueueHighWater uint64
	ZeroDelayHits       uint64

	// Outcome.
	ExecCycles uint64

	// PerCore breaks the core-side counters down by core (allocated by
	// the system at construction); the per-core values always sum to
	// the aggregates above.
	PerCore []CoreStats
}

// CoreStats is one core's slice of the run.
type CoreStats struct {
	Accesses      uint64
	Loads         uint64
	Stores        uint64
	Hits          uint64
	Misses        uint64
	Invalidations uint64 // probes that removed blocks from this core's L1
}

// AddControl accrues control bytes of the given class.
func (s *Stats) AddControl(c Class, bytes int) {
	s.ControlBytes[c] += uint64(bytes)
}

// ControlTotal is the sum over all control classes.
func (s *Stats) ControlTotal() uint64 {
	var t uint64
	for _, v := range s.ControlBytes {
		t += v
	}
	return t
}

// DataTotal is used plus unused data bytes.
func (s *Stats) DataTotal() uint64 { return s.UsedDataBytes + s.UnusedDataBytes }

// TrafficTotal is all bytes sent or received at the L1s.
func (s *Stats) TrafficTotal() uint64 { return s.DataTotal() + s.ControlTotal() }

// MPKI is misses per kilo-instruction.
func (s *Stats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L1Misses) / (float64(s.Instructions) / 1000.0)
}

// UsedPct is the fraction of transferred data the application touched,
// as a percentage (Table 1's USED%).
func (s *Stats) UsedPct() float64 {
	d := s.DataTotal()
	if d == 0 {
		return 0
	}
	return 100 * float64(s.UsedDataBytes) / float64(d)
}

// MissRatePct is misses per access, as a percentage.
func (s *Stats) MissRatePct() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 100 * float64(s.L1Misses) / float64(s.Accesses)
}

// RecordFill updates the block-granularity histogram for a fill of the
// given word count.
func (s *Stats) RecordFill(words int) {
	if words >= 1 && words <= MaxBlockWords {
		s.BlockSizeHist[words-1]++
	}
}

// BlockDistBuckets aggregates the histogram into the paper's Figure 12
// buckets: 1-2, 3-4, 5-6 and 7-8 words (wider blocks from 128-byte
// geometries fold into the last bucket), returned as percentages.
func (s *Stats) BlockDistBuckets() [4]float64 {
	var counts [4]uint64
	var total uint64
	for i, n := range s.BlockSizeHist {
		words := i + 1
		b := (words - 1) / 2
		if b > 3 {
			b = 3
		}
		counts[b] += n
		total += n
	}
	var out [4]float64
	if total == 0 {
		return out
	}
	for i := range counts {
		out[i] = 100 * float64(counts[i]) / float64(total)
	}
	return out
}

// RecordMissLatency accrues one miss's latency in cycles.
func (s *Stats) RecordMissLatency(cycles uint64) {
	s.MissLatencySum += cycles
	if cycles > s.MissLatencyMax {
		s.MissLatencyMax = cycles
	}
	b := 0
	for v := cycles; v > 1 && b < len(s.MissLatencyHist)-1; v >>= 1 {
		b++
	}
	s.MissLatencyHist[b]++
}

// AvgMissLatency is the mean L1 miss latency in cycles.
func (s *Stats) AvgMissLatency() float64 {
	if s.L1Misses == 0 {
		return 0
	}
	return float64(s.MissLatencySum) / float64(s.L1Misses)
}

// MissLatencyP (p in (0,100]) approximates a latency percentile from
// the log2 histogram: the upper bound of the bucket containing it,
// clamped to the observed maximum so 0/1-cycle latencies and the
// overflow bucket never report a bound above any recorded latency.
func (s *Stats) MissLatencyP(p float64) uint64 {
	var total uint64
	for _, c := range s.MissLatencyHist {
		total += c
	}
	if total == 0 {
		return 0
	}
	threshold := uint64(float64(total) * p / 100)
	if threshold == 0 {
		threshold = 1
	}
	var cum uint64
	for b, c := range s.MissLatencyHist {
		cum += c
		if cum >= threshold {
			bound := uint64(1) << uint(b+1)
			if bound > s.MissLatencyMax {
				bound = s.MissLatencyMax
			}
			return bound
		}
	}
	return s.MissLatencyMax
}

// OwnerMix returns the Figure 11 percentages: accesses to Owned-state
// directory entries with exactly one owner and no sharers, one owner
// plus sharers, and more than one owner.
func (s *Stats) OwnerMix() (oneOnly, onePlus, multi float64) {
	total := s.DirOwnerOneOnly + s.DirOwnerPlusSharers + s.DirMultiOwner
	if total == 0 {
		return 0, 0, 0
	}
	f := func(v uint64) float64 { return 100 * float64(v) / float64(total) }
	return f(s.DirOwnerOneOnly), f(s.DirOwnerPlusSharers), f(s.DirMultiOwner)
}
