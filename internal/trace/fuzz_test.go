package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadTraces: arbitrary bytes must never panic the trace parser —
// they either parse or return an error.
func FuzzReadTraces(f *testing.F) {
	// Seed with a valid file and a few near-misses.
	var valid bytes.Buffer
	_ = WriteTraces(&valid, [][]Access{
		{{Kind: Load, Addr: 0x1000, PC: 0x400, Think: 2}, {Kind: Barrier}},
		{{Kind: Store, Addr: 0x40, PC: 0x8}},
	})
	f.Add(valid.Bytes())
	f.Add([]byte("PZTR"))
	f.Add([]byte("PZTR\x01\x01\x01\x09\x00"))
	f.Add([]byte{})
	f.Add(pcDeltaTrace(math.MaxUint32)) // the largest PC
	f.Add(pcDeltaTrace(1 << 32))        // one past it
	f.Fuzz(func(t *testing.T, data []byte) {
		perCore, err := ReadTraces(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must round-trip.
		var buf bytes.Buffer
		if err := WriteTraces(&buf, perCore); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadTraces(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(perCore) {
			t.Fatalf("round trip changed core count")
		}
	})
}
