package trace

import (
	"bytes"
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
					a.PC = rng.Next() % (1 << 30)
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
