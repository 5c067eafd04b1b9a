package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"protozoa/internal/mem"
)

func roundTrip(t *testing.T, perCore [][]Access) [][]Access {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTraces(&buf, perCore); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestFileRoundTrip(t *testing.T) {
	perCore := [][]Access{
		{
			{Kind: Load, Addr: 0x1000, PC: 0x400, Think: 2},
			{Kind: Store, Addr: 0x1008, PC: 0x404, Think: 0},
			{Kind: Barrier, Think: 1},
			{Kind: Load, Addr: 0x40, PC: 0x500}, // negative address delta
		},
		{}, // an idle core
		{
			{Kind: Store, Addr: 0xFFFF_FFF8, PC: 0x99999, Think: 65535},
		},
	}
	got := roundTrip(t, perCore)
	if len(got) != len(perCore) {
		t.Fatalf("cores = %d, want %d", len(got), len(perCore))
	}
	for c := range perCore {
		if len(got[c]) != len(perCore[c]) {
			t.Fatalf("core %d: %d records, want %d", c, len(got[c]), len(perCore[c]))
		}
		for i := range perCore[c] {
			if got[c][i] != perCore[c][i] {
				t.Fatalf("core %d record %d: %+v != %+v", c, i, got[c][i], perCore[c][i])
			}
		}
	}
}

func TestFileRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"bad magic": "NOPE\x01\x01",
		"truncated": "PZTR\x01",
	}
	for name, in := range cases {
		if _, err := ReadTraces(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestFileRejectsBadKind(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("PZTR")
	buf.WriteByte(1) // version
	buf.WriteByte(1) // cores
	buf.WriteByte(1) // records
	buf.WriteByte(9) // bad kind
	buf.WriteByte(0) // think
	if _, err := ReadTraces(&buf); err == nil {
		t.Error("bad kind accepted")
	}
}

// TestFileRejectsOversizedThink: think is a uint16 in memory, so a
// larger value must be an error naming the record, not a silent wrap
// (70000 would otherwise decode as 4464).
func TestFileRejectsOversizedThink(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("PZTR")
	buf.WriteByte(1) // version
	buf.WriteByte(2) // cores
	buf.WriteByte(0) // core 0: no records
	buf.WriteByte(2) // core 1: two records
	buf.WriteByte(byte(Barrier))
	buf.WriteByte(0) // think
	buf.WriteByte(byte(Load))
	buf.Write([]byte{0xF0, 0xA2, 0x04}) // think = 70000
	buf.Write([]byte{0x10, 0x08})       // addr, pc deltas
	_, err := ReadTraces(&buf)
	if err == nil || !strings.Contains(err.Error(), "core 1 record 1: think 70000") {
		t.Errorf("err = %v, want the out-of-range think named by core and record", err)
	}
}

// pcDeltaTrace encodes a two-core trace whose core 1 holds one load
// per PC delta, each at the next word address.
func pcDeltaTrace(deltas ...int64) []byte {
	var buf bytes.Buffer
	put := func(v uint64) { buf.Write(binary.AppendUvarint(nil, v)) }
	buf.WriteString(fileMagic)
	put(fileVersion)
	put(2)                   // cores
	put(0)                   // core 0: no records
	put(uint64(len(deltas))) // core 1
	for _, d := range deltas {
		buf.WriteByte(byte(Load))
		put(0)         // think
		put(zigzag(8)) // addr delta
		put(zigzag(d)) // pc delta
	}
	return buf.Bytes()
}

// TestFilePCRange: a PC is 32 bits, so the running sum of a core's PC
// deltas must stay in [0, 2^32-1]. A record that leaves it is an error
// naming the core and the record, never a silent truncation; the
// range's ends round-trip.
func TestFilePCRange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		deltas []int64
		pcs    []uint32 // the decoded PCs, when the file is valid
		err    string   // the error's tail, when it is not
	}{
		{name: "max", deltas: []int64{math.MaxUint32}, pcs: []uint32{math.MaxUint32}},
		{name: "max then zero", deltas: []int64{math.MaxUint32, -math.MaxUint32}, pcs: []uint32{math.MaxUint32, 0}},
		{name: "delta reaches 2^32", deltas: []int64{1 << 32},
			err: "core 1 record 0: pc 4294967296 outside [0, 4294967295]"},
		{name: "sum reaches 2^32", deltas: []int64{math.MaxUint32, 1},
			err: "core 1 record 1: pc 4294967296 outside [0, 4294967295]"},
		{name: "negative", deltas: []int64{0x400, -0x401},
			err: "core 1 record 1: pc -1 outside [0, 4294967295]"},
		{name: "huge delta", deltas: []int64{math.MaxInt64},
			err: "core 1 record 0: pc 9223372036854775807 outside [0, 4294967295]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadTraces(bytes.NewReader(pcDeltaTrace(tc.deltas...)))
			if tc.err != "" {
				if err == nil || !strings.HasSuffix(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one ending %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, pc := range tc.pcs {
				if got[1][i].PC != pc {
					t.Errorf("record %d: pc %#x, want %#x", i, got[1][i].PC, pc)
				}
			}
			if again := roundTrip(t, got); !slices.Equal(again[1], got[1]) {
				t.Errorf("round trip changed the records: %+v, want %+v", again[1], got[1])
			}
		})
	}
}

func TestFileRejectsImplausibleCoreCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("PZTR")
	buf.WriteByte(1)                 // version
	buf.Write([]byte{0xFF, 0xFF, 3}) // cores = huge varint
	if _, err := ReadTraces(&buf); err == nil {
		t.Error("implausible core count accepted")
	}
}

func TestQuickFileRoundTrip(t *testing.T) {
	f := func(seed uint64, nCores uint8) bool {
		rng := NewRNG(seed)
		cores := int(nCores%4) + 1
		perCore := make([][]Access, cores)
		for c := range perCore {
			n := rng.Intn(50)
			for i := 0; i < n; i++ {
				a := Access{
					Kind:  Kind(rng.Intn(3)),
					Think: uint16(rng.Intn(100)),
				}
				if a.Kind != Barrier {
					a.Addr = mem.Addr(rng.Next() % (1 << 40))
					a.PC = uint32(rng.Next() % (1 << 30))
				}
				perCore[c] = append(perCore[c], a)
			}
		}
		var buf bytes.Buffer
		if err := WriteTraces(&buf, perCore); err != nil {
			return false
		}
		got, err := ReadTraces(&buf)
		if err != nil || len(got) != cores {
			return false
		}
		for c := range perCore {
			if len(got[c]) != len(perCore[c]) {
				return false
			}
			for i := range perCore[c] {
				if got[c][i] != perCore[c][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
