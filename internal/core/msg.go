// Package core implements the paper's primary contribution: the
// Protozoa family of adaptive-granularity coherence protocols, built
// as extensions of a 4-hop MESI directory protocol over a tiled,
// inclusive shared L2 with an in-cache directory.
//
// The four protocols (Section 3):
//
//   - MESI: fixed-granularity baseline. Storage, communication, and
//     coherence all happen at the region (cache block) granularity.
//   - Protozoa-SW: adaptive storage/communication granularity
//     (variable Amoeba blocks move through the network) with fixed
//     REGION coherence granularity — a single writer per region.
//   - Protozoa-SW+MR: multiple concurrent readers may coexist with one
//     writer as long as their sub-blocks do not overlap.
//   - Protozoa-MW: multiple concurrent non-overlapping writers and
//     readers; the SWMR invariant is maintained at word granularity.
//
// Stable states follow Table 2 (L1: M/E/S/I; directory: O, SS, I with
// dirty-at-L2 tracked alongside), and the message vocabulary is the
// MESI set plus the Table 3 additions: WBACK vs WBACK_LAST from an L1
// that evicts one of several resident sub-blocks of a region, the
// non-overlapping acknowledgment ACK-S, and NACKs from stale sharers.
package core

import (
	"fmt"

	"protozoa/internal/mem"
	"protozoa/internal/stats"
)

// Protocol selects a member of the protocol family.
type Protocol uint8

const (
	// MESI is the conventional fixed-granularity 4-hop directory
	// baseline (64-byte blocks in the paper's evaluation).
	MESI Protocol = iota
	// ProtozoaSW adapts storage/communication granularity but keeps
	// region-granularity coherence with a single writer.
	ProtozoaSW
	// ProtozoaSWMR allows multiple non-overlapping readers concurrent
	// with a single writer.
	ProtozoaSWMR
	// ProtozoaMW allows multiple non-overlapping writers and readers:
	// word-granularity SWMR.
	ProtozoaMW
)

// AllProtocols lists the family in the order the paper's figures use.
var AllProtocols = []Protocol{MESI, ProtozoaSW, ProtozoaSWMR, ProtozoaMW}

// String returns the paper's name for the protocol.
func (p Protocol) String() string {
	switch p {
	case MESI:
		return "MESI"
	case ProtozoaSW:
		return "Protozoa-SW"
	case ProtozoaSWMR:
		return "Protozoa-SW+MR"
	case ProtozoaMW:
		return "Protozoa-MW"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// Adaptive reports whether the protocol uses variable-granularity
// storage/communication (everything except the MESI baseline).
func (p Protocol) Adaptive() bool { return p != MESI }

// MsgType enumerates the coherence messages. The first block is the
// conventional MESI vocabulary; the rest are the Table 3 additions.
type MsgType uint8

const (
	// MsgGetS is a read miss request (L1 -> directory).
	MsgGetS MsgType = iota
	// MsgGetX is a write miss request.
	MsgGetX
	// MsgUpgrade asks for write permission on data already cached clean.
	MsgUpgrade
	// MsgFwdGetS is a directory-forwarded read probe to an owner.
	MsgFwdGetS
	// MsgFwdGetX is a directory-forwarded write probe to an owner.
	MsgFwdGetX
	// MsgInv is an invalidation probe to a (non-owner) sharer.
	MsgInv
	// MsgData carries words to a requester, granting Shared.
	MsgData
	// MsgDataE carries words, granting Exclusive (no other sharers).
	MsgDataE
	// MsgDataM carries words, granting Modified (write permission).
	MsgDataM
	// MsgGrant grants write permission without data (upgrade hit).
	MsgGrant
	// MsgAck acknowledges a probe; the responder dropped its last block
	// of the region (or was only partially resident and kept nothing).
	MsgAck
	// MsgAckS is the paper's ACK-S: the probe is acknowledged but the
	// responder retains non-overlapping sub-blocks and must remain a
	// sharer (and, under Protozoa-MW, possibly an owner).
	MsgAckS
	// MsgNack reports that the probed node holds nothing of the region
	// (a stale directory entry after a silent clean eviction).
	MsgNack
	// MsgWback carries dirty words back to the shared L2 while other
	// sub-blocks of the region remain cached at the sender.
	MsgWback
	// MsgWbackLast is a WBACK for the final resident sub-block of a
	// region: the directory may stop tracking the sender.
	MsgWbackLast
	// MsgUnblock tells the directory the requester installed its fill,
	// letting the next queued transaction for the region proceed. This
	// closes the fill-versus-next-probe race the same way the GEMS
	// MESI_CMP_directory protocol does.
	MsgUnblock
	// MsgRecall is a directory-internal transaction marker for L2
	// inclusion evictions (the probes it triggers are ordinary INVs);
	// it never travels on the network.
	MsgRecall
)

var msgNames = [...]string{
	"GETS", "GETX", "UPGRADE", "FWD_GETS", "FWD_GETX", "INV",
	"DATA", "DATA_E", "DATA_M", "GRANT", "ACK", "ACK_S", "NACK",
	"WBACK", "WBACK_LAST", "UNBLOCK", "RECALL",
}

// String returns the protocol-diagram name of the message type.
func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// CtrlBytes is the fixed control/header cost of every message
// (8 bytes, matching the paper's base protocol metadata).
const CtrlBytes = 8

// Msg is one coherence message. Data-bearing messages carry the words
// flagged in Valid; Dirty flags the subset that must be patched into
// the shared L2.
type Msg struct {
	Type     MsgType
	Src, Dst int // NoC nodes (tile IDs; L1 i and directory slice i share tile i)

	Region mem.RegionID
	R      mem.Range // requested or supplied range

	Valid mem.Bitmap // words present in the payload
	Dirty mem.Bitmap // words that are dirty (writebacks)
	// Words holds the payload's values, indexed by region offset. A
	// machine whose values are armed (a value view) gives every message
	// an array; on any other machine Words is nil.
	Words *[mem.MaxRegionWords]uint64

	Requester int    // original requester, echoed through probes
	TxnID     uint64 // directory transaction ID; 0 = spontaneous writeback

	// Probe-reply bookkeeping: whether the responder still holds any
	// sub-block of the region (remain in the sharer vector) and whether
	// it still holds dirty/exclusive sub-blocks (remain in the owner
	// vector under Protozoa-MW).
	StillSharer bool
	StillOwner  bool

	// 3-hop support (Section 6, "3-hop vs 4-hop"): Direct marks a probe
	// whose receiver should forward data straight to Requester when its
	// resident blocks fully cover R; ForwardedData on the reply tells
	// the directory the requester was already supplied, so it must not
	// send data itself. Partial or no coverage falls back to 4-hop.
	Direct        bool
	ForwardedData bool

	// Scheduling state for the allocation-free hot path: messages come
	// from the owning System's free list and double as their own engine
	// events (phase selects what Run does next). Not protocol state.
	sys   *System
	phase msgPhase
}

// msgPhase is the next scheduled action for a pooled message acting as
// its own engine event.
type msgPhase uint8

const (
	// phaseDeliver hands the message to its destination controller
	// (the mesh's delivery callback).
	phaseDeliver msgPhase = iota
	// phaseSend puts the message on the mesh after a scheduled delay
	// (e.g. the multi-block gather penalty).
	phaseSend
	// phaseActivate starts the directory transaction for a queued
	// request after the 1-cycle dequeue delay.
	phaseActivate
	// phaseProcess runs the directory state machine after the L2
	// access latency.
	phaseProcess
)

// Run dispatches the message's scheduled action; Msg implements
// engine.Runner so the hot path schedules no closures.
func (m *Msg) Run() {
	switch m.phase {
	case phaseDeliver:
		m.sys.deliver(m)
	case phaseSend:
		m.sys.send(m)
	case phaseActivate:
		d := m.sys.dirs[m.Dst]
		d.activate(d.mustEntry(m.Region), m)
	case phaseProcess:
		d := m.sys.dirs[m.Dst]
		d.process(d.mustEntry(m.Region), m)
	}
}

// PayloadWords is the number of data words the message carries.
func (m *Msg) PayloadWords() int { return m.Valid.Count() }

// Bytes is the message's total size on the network.
func (m *Msg) Bytes() int { return CtrlBytes + mem.WordBytes*m.PayloadWords() }

// Class maps the message to its Figure 10 control-byte category.
func (m *Msg) Class() stats.Class {
	switch m.Type {
	case MsgGetS, MsgGetX, MsgUpgrade:
		return stats.ClassREQ
	case MsgFwdGetS, MsgFwdGetX:
		return stats.ClassFWD
	case MsgInv:
		return stats.ClassINV
	case MsgAck, MsgAckS, MsgGrant, MsgUnblock:
		return stats.ClassACK
	case MsgNack:
		return stats.ClassNACK
	case MsgData, MsgDataE, MsgDataM:
		return stats.ClassDATA
	case MsgWback, MsgWbackLast:
		return stats.ClassWB
	}
	panic(fmt.Sprintf("core: unclassified message type %v", m.Type))
}

// Virtual networks: requests, forwards, and responses travel on
// separate networks so responses are never blocked behind requests —
// the standard directory-protocol deadlock-avoidance discipline.
const (
	VnetRequest  = 0
	VnetForward  = 1
	VnetResponse = 2
)

// VNet returns the virtual network the message travels on.
func (m *Msg) VNet() int {
	switch m.Type {
	case MsgGetS, MsgGetX, MsgUpgrade:
		return VnetRequest
	case MsgFwdGetS, MsgFwdGetX, MsgInv:
		return VnetForward
	default:
		return VnetResponse
	}
}
