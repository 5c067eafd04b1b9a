package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"protozoa/internal/engine"
	"protozoa/internal/mem"
)

// On-disk flight-log format (.pzfl): one JSON object header line
// carrying the machine shape and the name tables, then one compact JSON
// array per record. Line-oriented so logs stream, diff, and grep; the
// header's vocabularies make the file self-describing, so
// protozoa inspect needs no knowledge of the recording binary's enums.
//
// The header deliberately omits anything that varies with the execution
// strategy (worker count, wall time): a log recorded at -workers 1 and
// -workers 4 must be byte-identical.

// FormatName / FormatVersion identify the file format.
const (
	FormatName    = "protozoa-flight"
	FormatVersion = 1
)

// Meta is the log header.
type Meta struct {
	Format      string   `json:"format"`
	Version     int      `json:"version"`
	Protocol    string   `json:"protocol"`
	Cores       int      `json:"cores"`
	RegionBytes int      `json:"region_bytes"`
	Records     int      `json:"records"`
	Dropped     uint64   `json:"dropped"`
	Kinds       []string `json:"kinds"`
	Msgs        []string `json:"msgs"`
	L1States    []string `json:"l1_states"`
	DirStates   []string `json:"dir_states"`
	Fields      []string `json:"fields"`
}

// recordFields documents the per-record array layout, in order.
var recordFields = []string{
	"cycle", "seq", "tile", "kind", "sub", "src", "dst", "req",
	"region", "txn", "from", "to", "flags", "r_start", "r_end",
	"valid", "dirty",
}

const numFields = 17

// fieldMin / fieldMax bound each record field, in recordFields order,
// to what the Record field it decodes into can hold (src/dst/req use -1
// for "none"). ReadLog rejects a row outside them instead of silently
// wrapping it into a different value.
var (
	fieldMin = [numFields]int64{5: -1, 6: -1, 7: -1}
	fieldMax = [numFields]int64{
		math.MaxInt64, math.MaxInt64, math.MaxInt16, math.MaxUint8,
		math.MaxUint8, math.MaxInt16, math.MaxInt16, math.MaxInt16,
		math.MaxInt64, math.MaxInt64, math.MaxUint8, math.MaxUint8,
		math.MaxUint8, math.MaxUint8, math.MaxUint8,
		math.MaxUint16, math.MaxUint16,
	}
)

// maxPrealloc caps the record slice ReadLog sizes from the header's
// record count, so a corrupt or hostile header cannot force a huge
// allocation up front; longer logs grow the slice as they parse.
const maxPrealloc = 1 << 16

// Names returns the header's Sub vocabulary for rendering.
func (m *Meta) Names() *Names { return &Names{Msgs: m.Msgs} }

// WriteLog writes the header and records. meta's Records/Dropped/Kinds/
// Fields are filled in here; the caller supplies the machine shape and
// message vocabulary.
func WriteLog(w io.Writer, meta Meta, recs []Record) error {
	meta.Format = FormatName
	meta.Version = FormatVersion
	meta.Records = len(recs)
	meta.Kinds = KindNames()
	meta.L1States = L1StateNames()
	meta.DirStates = DirStateNames()
	meta.Fields = recordFields
	bw := bufio.NewWriter(w)
	head, err := json.Marshal(&meta)
	if err != nil {
		return err
	}
	bw.Write(head)
	bw.WriteByte('\n')
	for i := range recs {
		r := &recs[i]
		fmt.Fprintf(bw, "[%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d]\n",
			r.Cycle, r.Seq, r.Tile, r.Kind, r.Sub, r.Src, r.Dst, r.Req,
			r.Region, r.Txn, r.From, r.To, r.Flags, r.R.Start, r.R.End,
			r.Valid, r.Dirty)
	}
	return bw.Flush()
}

// ReadLog parses a flight log written by WriteLog — by this build or an
// earlier one whose kind vocabulary is a prefix of this build's. It
// rejects, with a line-numbered error, any record field outside its
// type's range, a tile or core index outside the header's core count,
// and a kind outside the header's or this build's vocabulary.
func ReadLog(r io.Reader) (Meta, []Record, error) {
	var meta Meta
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return meta, nil, err
		}
		return meta, nil, fmt.Errorf("flight: empty log")
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return meta, nil, fmt.Errorf("flight: bad header: %w", err)
	}
	if meta.Format != FormatName {
		return meta, nil, fmt.Errorf("flight: not a flight log (format %q)", meta.Format)
	}
	if meta.Version != FormatVersion {
		return meta, nil, fmt.Errorf("flight: unsupported version %d (want %d)", meta.Version, FormatVersion)
	}
	if meta.Records < 0 || meta.Cores < 0 {
		return meta, nil, fmt.Errorf("flight: bad header: %d records, %d cores", meta.Records, meta.Cores)
	}
	kinds := len(meta.Kinds)
	if kinds > int(numKinds) {
		kinds = int(numKinds)
	}
	for k := 0; k < kinds; k++ {
		if meta.Kinds[k] != kindNames[k] {
			return meta, nil, fmt.Errorf("flight: bad header: kind %d is %q, this build's is %q",
				k, meta.Kinds[k], kindNames[k])
		}
	}
	recs := make([]Record, 0, min(meta.Records, maxPrealloc))
	line := 1
	for sc.Scan() {
		line++
		var f [numFields]int64
		v := f[:0]
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return meta, nil, fmt.Errorf("flight: line %d: %w", line, err)
		}
		if len(v) != numFields {
			return meta, nil, fmt.Errorf("flight: line %d: %d fields (want %d)", line, len(v), numFields)
		}
		for i, x := range v {
			if x < fieldMin[i] || x > fieldMax[i] {
				return meta, nil, fmt.Errorf("flight: line %d: %s %d out of range", line, recordFields[i], x)
			}
		}
		if v[3] >= int64(kinds) {
			return meta, nil, fmt.Errorf("flight: line %d: kind %d outside the log's %d-kind vocabulary", line, v[3], kinds)
		}
		if meta.Cores > 0 {
			for _, i := range [...]int{2, 5, 6, 7} {
				if v[i] >= int64(meta.Cores) {
					return meta, nil, fmt.Errorf("flight: line %d: %s %d out of range for %d cores",
						line, recordFields[i], v[i], meta.Cores)
				}
			}
		}
		recs = append(recs, Record{
			Cycle: engine.Cycle(v[0]), Seq: uint64(v[1]), Tile: int16(v[2]),
			Kind: Kind(v[3]), Sub: uint8(v[4]),
			Src: int16(v[5]), Dst: int16(v[6]), Req: int16(v[7]),
			Region: uint64(v[8]), Txn: uint64(v[9]),
			From: uint8(v[10]), To: uint8(v[11]), Flags: uint8(v[12]),
			R:     mem.Range{Start: uint8(v[13]), End: uint8(v[14])},
			Valid: mem.Bitmap(v[15]), Dirty: mem.Bitmap(v[16]),
		})
	}
	if err := sc.Err(); err != nil {
		return meta, nil, err
	}
	return meta, recs, nil
}
