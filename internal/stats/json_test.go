package stats

import (
	"encoding/json"
	"testing"
)

// Stats is plain exported data, so it must round-trip through JSON for
// external tooling (protozoa sim -json).
func TestStatsJSONRoundTrip(t *testing.T) {
	s := Stats{
		Instructions: 1000, Accesses: 500, Loads: 300, Stores: 200,
		L1Hits: 400, L1Misses: 100, Invalidations: 7,
		UsedDataBytes: 800, UnusedDataBytes: 200,
		FlitHops: 999, ExecCycles: 12345,
		PerCore: []CoreStats{{Accesses: 500, Hits: 400, Misses: 100}},
	}
	s.AddControl(ClassREQ, 8)
	s.RecordFill(4)

	buf, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Accesses != s.Accesses || got.ControlBytes != s.ControlBytes ||
		got.BlockSizeHist != s.BlockSizeHist || len(got.PerCore) != 1 ||
		got.PerCore[0] != s.PerCore[0] {
		t.Errorf("round trip mismatch:\n%+v\n%+v", s, got)
	}
	if got.MPKI() != s.MPKI() {
		t.Errorf("derived MPKI differs after round trip")
	}
}
