// Package flight is the simulator's event spine: fixed-size records
// capturing every protocol step the machine takes — message
// send/deliver/free, MSHR open/retire, directory
// accept/park/unpark/activate/process/last-ack/end, L1 / directory state
// transitions (stable + transient), and NoC link stalls — and the
// bounded ring that keeps them. The machine emits each record once, to
// every view subscribed to its kind: the ring (behind the .pzfl log,
// protozoa inspect, the Chrome trace and the message log), the online
// miss-latency breakdown, the transition audit (which counts the
// state-transition records' codes, self-loops included), the
// random-tester checker and the attribution tracker. A machine with no
// view subscribed to a kind pays one mask test per potential record.
//
// The ring keeps records in execution order, stamping each with a
// sequence number, so the transcript is deterministic.
package flight

import (
	"protozoa/internal/engine"
	"protozoa/internal/mem"
)

// Kind classifies one flight record.
type Kind uint8

const (
	// KindMsgSend / KindMsgDeliver / KindMsgFree bracket a message's
	// lifecycle: put on the mesh, handed to its destination controller,
	// and recycled into a pool. Free records are emitted before the
	// message is zeroed, so a record never aliases a recycled message.
	KindMsgSend Kind = iota
	KindMsgDeliver
	KindMsgFree
	// KindMissStart / KindMissEnd bracket an L1 MSHR's life (Src = the
	// core; Sub = the request type at issue).
	KindMissStart
	KindMissEnd
	// KindDirAccept marks the home directory receiving a request
	// (stamped even when the region is busy and the request parks).
	KindDirAccept
	// KindQueuePark / KindQueueUnpark bracket a request's wait in a busy
	// region's directory queue.
	KindQueuePark
	KindQueueUnpark
	// KindTxnStart / KindTxnProcess / KindTxnLastAck / KindTxnEnd are
	// the directory transaction's phase edges: activation (L2 access
	// begins), state-machine processing (probes fly), the final probe
	// ack, and the region reopening.
	KindTxnStart
	KindTxnProcess
	KindTxnLastAck
	KindTxnEnd
	// KindL1State / KindDirState record a stable+transient state change
	// (From/To are codes; see L1StateName / DirStateName).
	KindL1State
	KindDirState
	// KindLinkStall marks a message queued behind busy mesh links (NoC
	// contention model only): Src/Dst/Sub are the message's and Txn
	// carries the stall length in cycles. A stall belongs to the links
	// on the path, not to a region, so Region is 0. Appended last so
	// earlier codes — and logs recorded before it existed — keep their
	// meaning.
	KindLinkStall

	// NumKinds is the size of the ring's vocabulary (KindNames). A
	// machine may emit kinds past it to its own views; no ring or log
	// ever carries them.
	NumKinds
)

var kindNames = [NumKinds]string{
	"msg-send", "msg-deliver", "msg-free",
	"miss-start", "miss-end",
	"dir-accept", "queue-park", "queue-unpark",
	"txn-start", "txn-process", "txn-last-ack", "txn-end",
	"l1-state", "dir-state", "link-stall",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// KindNames returns the kind vocabulary in code order (for log headers).
func KindNames() []string { return append([]string(nil), kindNames[:]...) }

// Flags bits carried by message records.
const (
	FlagStillSharer uint8 = 1 << iota
	FlagStillOwner
	FlagDirect
	FlagForwarded
)

// SubNone marks a record whose Sub field carries no message or cause
// code (e.g. miss-end).
const SubNone uint8 = 0xff

// Cause codes for state-transition records whose trigger is not a
// message type: a core-side load/store, or the L1 re-issuing a GETX
// after a Grant raced with an invalidation. They live above any
// realistic message-type code so the two vocabularies share Sub.
const (
	CauseLoad uint8 = 0x40 + iota
	CauseStore
	CauseReissue
)

// L1 transient codes (the MSHR's contribution to an L1 state code).
const (
	TransNone uint8 = iota
	TransIS
	TransIM
	TransSM
)

// L1Code packs an L1 region state: the strongest resident stable state
// (0..3 = I/S/E/M, matching cache.State) in the low bits, the MSHR
// transient above it.
func L1Code(stable, transient uint8) uint8 { return stable&3 | transient<<2 }

var l1Stable = [4]string{"I", "S", "E", "M"}
var l1Trans = [4]string{"", "_IS", "_IM", "_SM"}

// L1StateName renders an L1 state code like the protocol tables
// ("I_IM", "S_SM", "M_IS" — the Figure 6 race state).
func L1StateName(c uint8) string { return l1Stable[c&3] + l1Trans[(c>>2)&3] }

// Directory state codes (Table 2: O+ is Protozoa-MW's multi-owner).
const (
	DirI uint8 = iota
	DirSS
	DirO
	DirOPlus
)

var dirNames = [4]string{"I", "SS", "O", "O+"}

// DirStateName renders a directory state code.
func DirStateName(c uint8) string { return dirNames[c&3] }

// L1StateNames / DirStateNames return the state vocabularies in code
// order (for log headers). L1 names cover the full packed code space.
func L1StateNames() []string {
	out := make([]string, 16)
	for c := range out {
		out[c] = L1StateName(uint8(c))
	}
	return out
}

func DirStateNames() []string { return append([]string(nil), dirNames[:]...) }

// Record is one fixed-size flight-recorder entry. Field meaning varies
// by Kind; unused fields are zero (Req is -1 when no core is behind the
// step, e.g. inclusion recalls).
type Record struct {
	Cycle  engine.Cycle
	Seq    uint64 // sequence number, stamped by Recorder.Record
	Region uint64
	Txn    uint64 // directory transaction ID (0 = none)
	Valid  mem.Bitmap
	Dirty  mem.Bitmap
	Tile   int16 // tile that recorded the step
	Src    int16 // message source / core for miss records
	Dst    int16 // message destination (-1 when none)
	Req    int16 // requesting core for txn-phase records (-1 = none)
	Kind   Kind
	Sub    uint8 // message type or transition cause (SubNone = none)
	From   uint8 // state code before (state-transition records)
	To     uint8 // state code after
	Flags  uint8
	R      mem.Range
}

// DefaultCap is the record capacity when the caller passes <= 0
// (~32k records, a few MiB once populated).
const DefaultCap = 1 << 15

// Recorder is the machine's bounded record ring. Capacity bounds
// memory; the buffer grows lazily up to it and then wraps, evicting the
// oldest record (counted in dropped). Single-goroutine by construction.
type Recorder struct {
	buf     []Record
	cap     int
	next    int
	seq     uint64
	dropped uint64
}

// NewRecorder builds a recorder keeping the most recent capacity
// records (<= 0 selects DefaultCap).
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{}
	r.Grow(capacity)
	return r
}

// Grow raises the recorder's capacity to at least capacity records
// (<= 0 selects DefaultCap). Capacity never shrinks, so the largest
// request among several views wins. Call before recording starts: the
// ring allocates lazily, so growing an unused recorder costs nothing.
func (r *Recorder) Grow(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	if capacity > r.cap {
		r.cap = capacity
	}
}

// Record appends one record, stamping its sequence number.
func (r *Recorder) Record(rec Record) {
	rec.Seq = r.seq
	r.seq++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, rec)
		return
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// Len reports the records currently held.
func (r *Recorder) Len() int { return len(r.buf) }

// Dropped reports records evicted by ring wrap.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Records returns the held records oldest-first (once the ring wraps,
// the oldest sits at next).
func (r *Recorder) Records() []Record {
	return append(append([]Record(nil), r.buf[r.next:]...), r.buf[:r.next]...)
}
