package trace

// Trace file format: the serialized equivalent of the paper's
// Pin-generated traces, so workloads can be captured once and replayed
// into the simulator (or inspected offline with protozoa trace).
//
// Layout (little-endian, varint-compressed):
//
//	magic   "PZTR"         4 bytes
//	version uvarint        (currently 1)
//	cores   uvarint
//	for each core:
//	    records uvarint
//	    records x {
//	        kind  byte       (Load/Store/Barrier/RMW)
//	        think uvarint    (at most 65535)
//	        addr  uvarint    (delta-from-previous, zig-zag)  [not for Barrier]
//	        pc    uvarint    (delta-from-previous, zig-zag)  [not for Barrier]
//	    }
//
// Address and PC streams are delta-encoded because real traces are
// dominated by small strides; zig-zag keeps negative deltas short.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"protozoa/internal/mem"
)

const (
	fileMagic   = "PZTR"
	fileVersion = 1
)

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WriteTraces serializes per-core record slices to w.
func WriteTraces(w io.Writer, perCore [][]Access) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(fileVersion); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(perCore))); err != nil {
		return err
	}
	for _, recs := range perCore {
		if err := putUvarint(uint64(len(recs))); err != nil {
			return err
		}
		var prevAddr, prevPC int64
		for _, a := range recs {
			if err := bw.WriteByte(byte(a.Kind)); err != nil {
				return err
			}
			if err := putUvarint(uint64(a.Think)); err != nil {
				return err
			}
			if a.Kind == Barrier {
				continue
			}
			if err := putUvarint(zigzag(int64(a.Addr) - prevAddr)); err != nil {
				return err
			}
			prevAddr = int64(a.Addr)
			if err := putUvarint(zigzag(int64(a.PC) - prevPC)); err != nil {
				return err
			}
			prevPC = int64(a.PC)
		}
	}
	return bw.Flush()
}

// ReadTraces parses a trace file into per-core record slices.
func ReadTraces(r io.Reader) ([][]Access, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if version != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	cores, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading core count: %w", err)
	}
	if cores > 1024 {
		return nil, fmt.Errorf("trace: implausible core count %d", cores)
	}
	out := make([][]Access, cores)
	for c := range out {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: core %d record count: %w", c, err)
		}
		if count > 1<<28 {
			return nil, fmt.Errorf("trace: implausible record count %d for core %d", count, c)
		}
		// Grow incrementally: the count is untrusted input, so never
		// preallocate more than a bounded chunk up front.
		prealloc := count
		if prealloc > 4096 {
			prealloc = 4096
		}
		recs := make([]Access, 0, prealloc)
		var prevAddr, prevPC int64
		for i := uint64(0); i < count; i++ {
			kind, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: core %d record %d kind: %w", c, i, err)
			}
			if Kind(kind) > RMW {
				return nil, fmt.Errorf("trace: core %d record %d: bad kind %d", c, i, kind)
			}
			think, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: core %d record %d think: %w", c, i, err)
			}
			if think > math.MaxUint16 {
				return nil, fmt.Errorf("trace: core %d record %d: think %d exceeds %d", c, i, think, math.MaxUint16)
			}
			a := Access{Kind: Kind(kind), Think: uint16(think)}
			if a.Kind != Barrier {
				d, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("trace: core %d record %d addr: %w", c, i, err)
				}
				prevAddr += unzigzag(d)
				a.Addr = mem.Addr(prevAddr)
				d, err = binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("trace: core %d record %d pc: %w", c, i, err)
				}
				prevPC += unzigzag(d)
				a.PC = uint64(prevPC)
			}
			recs = append(recs, a)
		}
		out[c] = recs
	}
	return out, nil
}

// ReadStreams is ReadTraces adapted to the Stream interface.
func ReadStreams(r io.Reader) ([]Stream, error) {
	perCore, err := ReadTraces(r)
	if err != nil {
		return nil, err
	}
	streams := make([]Stream, len(perCore))
	for i, recs := range perCore {
		streams[i] = NewSliceStream(recs)
	}
	return streams, nil
}
