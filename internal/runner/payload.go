package runner

import (
	"encoding/json"
	"fmt"

	"protozoa/internal/core"
	"protozoa/internal/obs"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/stats"
)

// cachedResult is the on-disk shape of one cell's outcome. Every field
// it stores is integral or text (stats counters, attribution word
// counts, latency histogram buckets, the checker's counts and
// violation messages), so a JSON round-trip reproduces the
// simulated values exactly — which is what lets a warm run render
// byte-identical CSV/report output. Schema changes are caught by the
// key's payload fingerprint, not by versioning the payload itself.
type cachedResult struct {
	Events  uint64
	Stats   *stats.Stats
	Latency *obs.LatencyBreakdown `json:",omitempty"`
	Attrib  *attrib.Dump          `json:",omitempty"`
	Checker *core.CheckerSummary  `json:",omitempty"`
}

// encodeResult serializes a successful result for the cache.
func encodeResult(r *Result) ([]byte, error) {
	cr := cachedResult{
		Events:  r.Events,
		Stats:   r.Stats,
		Latency: r.Latency,
		Checker: r.Checker,
	}
	if r.Attrib != nil {
		cr.Attrib = r.Attrib.Dump()
	}
	return json.Marshal(cr)
}

// decodePayload parses a cached payload.
func decodePayload(payload []byte) (*cachedResult, error) {
	var cr cachedResult
	if err := json.Unmarshal(payload, &cr); err != nil {
		return nil, fmt.Errorf("decode cached result: %w", err)
	}
	if cr.Stats == nil {
		return nil, fmt.Errorf("cached result has no stats")
	}
	return &cr, nil
}

// covers reports whether the payload holds every observation cell c
// needs.
func (cr *cachedResult) covers(c Cell) bool {
	return (!c.NeedAttrib || cr.Attrib != nil) && (!c.NeedLatency || cr.Latency != nil) &&
		(!c.NeedChecker || cr.Checker != nil)
}

// result reconstructs cell c's result from a payload that covers it.
// Observations the payload holds beyond the cell's needs are left out,
// so the result equals what simulating the cell would give.
func (cr *cachedResult) result(c Cell) (Result, error) {
	r := Result{
		Cell:   c,
		Stats:  cr.Stats,
		Events: cr.Events,
		Cached: true,
	}
	if c.NeedAttrib {
		tr, err := attrib.FromDump(cr.Attrib)
		if err != nil {
			return Result{}, err
		}
		r.Attrib = tr
	}
	if c.NeedLatency {
		r.Latency = cr.Latency
	}
	if c.NeedChecker {
		r.Checker = cr.Checker
	}
	return r, nil
}
