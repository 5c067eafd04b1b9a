package runner

import (
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/workloads"
)

// FuzzDecodePayload feeds arbitrary bytes to the result-cache payload
// decoder: every input either fails to decode or decodes to a payload
// that answers every cell it covers without panicking, with each
// observation the cell needs present in the result. The corpus starts
// from a real entry holding stats, attribution, the latency breakdown
// and a checker summary.
func FuzzDecodePayload(f *testing.F) {
	cfg := core.DefaultConfig(core.ProtozoaSWMR)
	if err := ConfigureCores(&cfg, 4); err != nil {
		f.Fatal(err)
	}
	r := simCell(Cell{
		Label:      "fuzz seed",
		NeedAttrib: true, NeedLatency: true, NeedChecker: true,
		Build: func() (*core.System, error) {
			return core.NewSystem(cfg, workloads.RandomRecords(4, 200, 6, 40, 5))
		},
	})
	if r.Err != nil {
		f.Fatal(r.Err)
	}
	good, err := encodeResult(&r)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"Stats":{}}`))
	f.Add([]byte(`{"Stats":{},"Checker":{"Loads":-1,"Violations":[""]},"Attrib":{"Cores":1}}`))
	f.Add([]byte(`{"Events":1,"Stats":null}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		cr, err := decodePayload(payload)
		if err != nil {
			return
		}
		for needs := 0; needs < 8; needs++ {
			c := Cell{NeedAttrib: needs&1 != 0, NeedLatency: needs&2 != 0, NeedChecker: needs&4 != 0}
			if !cr.covers(c) {
				continue
			}
			r, err := cr.result(c)
			if err != nil {
				continue
			}
			if r.Stats == nil || !r.Cached ||
				c.NeedAttrib != (r.Attrib != nil) ||
				c.NeedLatency != (r.Latency != nil) ||
				c.NeedChecker != (r.Checker != nil) {
				t.Fatalf("needs %03b: result stats %v, attrib %v, latency %v, checker %v",
					needs, r.Stats != nil, r.Attrib != nil, r.Latency != nil, r.Checker != nil)
			}
			if c.NeedChecker {
				r.Checker.Err()
			}
		}
	})
}
