package flight

import (
	"fmt"
	"io"
	"strings"
)

// Names resolves the Sub codes a machine recorded with. The flight
// package is protocol-agnostic: the coherence message vocabulary is
// supplied by the machine (internal/core passes its MsgType names).
type Names struct {
	Msgs []string
}

// Sub renders a Sub code: a message-type name, a cause name, or empty.
func (n *Names) Sub(sub uint8) string {
	switch {
	case sub == SubNone:
		return ""
	case n != nil && int(sub) < len(n.Msgs):
		return n.Msgs[sub]
	case sub == CauseLoad:
		return "Load"
	case sub == CauseStore:
		return "Store"
	case sub == CauseReissue:
		return "GrantReissue"
	}
	return fmt.Sprintf("sub#%d", sub)
}

// Format renders one record as a transcript line, in the style of the
// paper's transaction diagrams:
//
//	@2041     t3  msg-send     GETX       C0->T3 region 7 txn 12 [0--3]
//	@2055     t3  l1-state     GETX       core 3 region 7 I -> I_IM
func (r Record) Format(n *Names) string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%-8d t%-2d %-12s %-10s", r.Cycle, r.Tile, r.Kind, n.Sub(r.Sub))
	switch r.Kind {
	case KindMsgSend, KindMsgDeliver, KindMsgFree:
		fmt.Fprintf(&b, " C%d->T%d region %d", r.Src, r.Dst, r.Region)
		if r.Txn != 0 {
			fmt.Fprintf(&b, " txn %d", r.Txn)
		}
		fmt.Fprintf(&b, " [%s]", r.R)
		if c := r.Valid.Count(); c > 0 {
			fmt.Fprintf(&b, " %dw", c)
		}
		if r.Flags&(FlagStillSharer|FlagStillOwner) != 0 {
			fmt.Fprintf(&b, " sharer=%v owner=%v",
				r.Flags&FlagStillSharer != 0, r.Flags&FlagStillOwner != 0)
		}
		if r.Flags&FlagDirect != 0 {
			b.WriteString(" direct")
		}
		if r.Flags&FlagForwarded != 0 {
			b.WriteString(" forwarded")
		}
	case KindMissStart, KindMissEnd:
		fmt.Fprintf(&b, " core %d region %d", r.Src, r.Region)
		if r.Kind == KindMissStart {
			fmt.Fprintf(&b, " [%s]", r.R)
		}
	case KindDirAccept, KindQueuePark, KindQueueUnpark,
		KindTxnStart, KindTxnProcess, KindTxnLastAck, KindTxnEnd:
		fmt.Fprintf(&b, " dir %d region %d", r.Tile, r.Region)
		if r.Txn != 0 {
			fmt.Fprintf(&b, " txn %d", r.Txn)
		}
		if r.Req >= 0 {
			fmt.Fprintf(&b, " req C%d", r.Req)
		}
	case KindL1State:
		fmt.Fprintf(&b, " core %d region %d %s -> %s",
			r.Src, r.Region, L1StateName(r.From), L1StateName(r.To))
	case KindDirState:
		fmt.Fprintf(&b, " dir %d region %d %s -> %s",
			r.Tile, r.Region, DirStateName(r.From), DirStateName(r.To))
	case KindLinkStall:
		fmt.Fprintf(&b, " C%d->T%d stalled %d cycles", r.Src, r.Dst, r.Txn)
	}
	return b.String()
}

// WriteTranscript renders records one per line.
func WriteTranscript(w io.Writer, recs []Record, n *Names) error {
	for _, r := range recs {
		if _, err := fmt.Fprintln(w, r.Format(n)); err != nil {
			return err
		}
	}
	return nil
}

// Transcript renders records into one string (convenience for error
// messages and goldens).
func Transcript(recs []Record, n *Names) string {
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(r.Format(n))
		b.WriteByte('\n')
	}
	return b.String()
}
