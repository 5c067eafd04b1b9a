package core

import (
	"fmt"
	"strings"

	"protozoa/internal/engine"
	"protozoa/internal/mem"
	"protozoa/internal/obs/flight"
)

// The message log is a view over the flight recorder: EnableMessageLog
// arms the recorder (sized in records to hold at least the requested
// message count) and MessageLog reconstructs MsgEvents from its
// msg-send records.

// MsgEvent is one logged coherence message.
type MsgEvent struct {
	Cycle engine.Cycle
	Msg   Msg // reconstructed from the flight record (no payload words)
}

// String renders the event like the paper's transaction diagrams:
// "GETX C0->T1 region 5 [0--3]".
func (e MsgEvent) String() string {
	m := &e.Msg
	var b strings.Builder
	fmt.Fprintf(&b, "@%-8d %-10s C%d->T%d region %d", e.Cycle, m.Type, m.Src, m.Dst, m.Region)
	switch m.Type {
	case MsgGetS, MsgGetX, MsgUpgrade, MsgFwdGetS, MsgFwdGetX, MsgInv,
		MsgData, MsgDataE, MsgDataM:
		fmt.Fprintf(&b, " [%s]", m.R)
	}
	if m.PayloadWords() > 0 {
		fmt.Fprintf(&b, " %dw", m.PayloadWords())
	}
	if m.Type == MsgAckS || m.Type == MsgAck || m.Type == MsgNack || m.Type == MsgWback || m.Type == MsgWbackLast {
		fmt.Fprintf(&b, " sharer=%v owner=%v", m.StillSharer, m.StillOwner)
	}
	if m.Direct {
		b.WriteString(" direct")
	}
	if m.ForwardedData {
		b.WriteString(" forwarded")
	}
	return b.String()
}

// EnableMessageLog starts recording the most recent capacity messages
// sent on the mesh — the protocol-transcript facility used by the
// golden flow tests and protozoa sim's -msglog flag. Call before Run.
// Implemented on the flight recorder's ring. If the flight
// recorder is already enabled its sizing wins.
func (s *System) EnableMessageLog(capacity int) {
	if capacity <= 0 {
		capacity = 4096
	}
	s.msgCap = capacity
	s.EnableFlightRecorder(capacity * flightRecordsPerMsg)
}

// msgEvent rebuilds a MsgEvent from a msg-send flight record. Payload
// word values are not retained by the recorder, only the Valid/Dirty
// masks — every transcript consumer keys on types, routes, ranges, and
// flags.
func msgEvent(r flight.Record) MsgEvent {
	return MsgEvent{
		Cycle: r.Cycle,
		Msg: Msg{
			Type: MsgType(r.Sub), Src: int(r.Src), Dst: int(r.Dst),
			Region: mem.RegionID(r.Region), R: r.R,
			Valid: r.Valid, Dirty: r.Dirty,
			Requester: int(r.Req), TxnID: r.Txn,
			StillSharer:   r.Flags&flight.FlagStillSharer != 0,
			StillOwner:    r.Flags&flight.FlagStillOwner != 0,
			Direct:        r.Flags&flight.FlagDirect != 0,
			ForwardedData: r.Flags&flight.FlagForwarded != 0,
		},
	}
}

// MessageLog returns the recorded messages in send order (oldest
// first, bounded by the enabled capacity).
func (s *System) MessageLog() []MsgEvent {
	if s.msgCap == 0 || s.flight == nil {
		return nil
	}
	var out []MsgEvent
	for _, r := range s.flight.Records() {
		if r.Kind == flight.KindMsgSend {
			out = append(out, msgEvent(r))
		}
	}
	if len(out) > s.msgCap {
		out = out[len(out)-s.msgCap:]
	}
	return out
}

// MessagesForRegion filters the log to one region's transcript.
func (s *System) MessagesForRegion(r mem.RegionID) []MsgEvent {
	var out []MsgEvent
	for _, e := range s.MessageLog() {
		if e.Msg.Region == r {
			out = append(out, e)
		}
	}
	return out
}
