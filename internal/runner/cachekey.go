package runner

import (
	"strconv"

	"protozoa/internal/core"
	"protozoa/internal/obs"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/resultcache"
	"protozoa/internal/stats"
)

// CellSpec is everything that determines a cell's result: the fully
// resolved machine configuration and the workload/trace identity. It
// exists to derive the cell's content-addressed cache key. Which
// observations a cell asks for is not part of it: an entry serves
// every request its payload holds enough for (see Pool.Cache).
type CellSpec struct {
	// Config is the resolved machine configuration — after defaults,
	// core counts, and knobs have been applied. Workers is excluded
	// from the hash: the field is inert (NewSystem ignores it), so every
	// setting shares one entry.
	Config core.Config

	// Workload names the trace source; Scale and Seed parameterize the
	// deterministic stream generators. Drivers with bespoke streams
	// (protozoa verify) describe them in Extra instead.
	Workload string
	Scale    int
	Seed     uint64

	// Extra carries driver-specific identity as ordered name/value
	// pairs — e.g. verify's access-count/store-percentage/region-pool
	// parameters that aren't part of Config.
	Extra [][2]string

	// Extract names the driver's Extract serialization ("" when the
	// cell has none); the name doubles as that codec's version tag.
	Extract string
}

// ConfigHash canonically hashes the spec — configuration and workload
// identity, but not the code version. This is
// the stable half of the key: it changes exactly when the cell's
// inputs change, and the golden test pins it. A spec whose config
// can't be canonicalized (an injected PredictorOverride hook) is
// uncacheable and reports the error.
func (s CellSpec) ConfigHash() (resultcache.Key, error) {
	b := resultcache.NewBuilder()
	hc := s.Config
	hc.Workers = 0 // inert: NewSystem ignores it
	if err := resultcache.AddStruct(b, "config", hc); err != nil {
		return resultcache.Key{}, err
	}
	b.Field("workload", s.Workload)
	b.Field("scale", strconv.Itoa(s.Scale))
	b.Field("seed", strconv.FormatUint(s.Seed, 10))
	for _, kv := range s.Extra {
		b.Field("extra."+kv[0], kv[1])
	}
	b.Field("extract", s.Extract)
	return b.Sum(), nil
}

// payloadFingerprint pins the shape of everything a cached payload can
// carry: a field added to (or removed from) any of these types changes
// every key, so stale payloads from older schemas are never decoded.
var payloadFingerprint = func() string {
	return resultcache.TypeFingerprint(stats.Stats{}) +
		resultcache.TypeFingerprint(attrib.Dump{}) +
		resultcache.TypeFingerprint(obs.LatencyBreakdown{})
}()

// Key derives the cell's cache key: the ConfigHash plus the code
// version stamp and the payload schema fingerprint. The zero Key
// (spec uncacheable) disables caching for the cell.
func (s CellSpec) Key() resultcache.Key {
	ch, err := s.ConfigHash()
	if err != nil {
		return resultcache.Key{}
	}
	b := resultcache.NewBuilder()
	b.Field("confighash", ch.String())
	b.Field("codestamp", resultcache.CodeStamp())
	b.Field("payloadfp", payloadFingerprint)
	return b.Sum()
}
