package wire

// The session admission rule shared by both ends of the wire. Heartbeat
// frames (reporter → server) and command frames (server → reporter)
// carry the same (epoch, seq) pair with the same meaning: the epoch
// names one incarnation of the sender, larger = newer, and seq numbers
// that incarnation's frames from 1. The receiver keeps one Session per
// sender and asks it whether each frame may be applied. The rule is a
// pure function of the state and the pair — no clock, socket or lock —
// so callers serialize access themselves and tests drive it directly.

import "time"

// Verdict is Session.Admit's classification of one (epoch, seq) pair.
type Verdict uint8

const (
	// First is the first frame of a Session that has seen none. It is
	// admitted; no gap is counted, whatever its seq.
	First Verdict = iota
	// Next is a frame of the current epoch beyond the last admitted
	// seq. It is admitted; gap counts the seq numbers skipped.
	Next
	// Restart is a frame of a newer epoch: the sender restarted and the
	// seq tracking starts over. It is admitted; gap counts the new
	// epoch's leading frames lost in flight (seq - 1).
	Restart
	// Duplicate is a frame of the current epoch at or below the last
	// admitted seq: duplicated or re-ordered delivery. It is refused.
	Duplicate
	// Stale is a frame of an older epoch, a late datagram of a
	// superseded incarnation. It is refused.
	Stale
)

// Session is the receiver-side state of one sender's (epoch, seq)
// stream: the epoch of the current incarnation and the last admitted
// seq within it. The zero value means "no frame admitted yet"; decoded
// frames and commands never carry epoch 0 or seq 0, so it needs no
// separate flag.
type Session struct {
	Epoch, Seq uint64
}

// Admit classifies one frame's (epoch, seq) pair and, for First, Next
// and Restart, advances the session to it. Duplicate and Stale leave
// the session unchanged. gap is non-zero only for Next and Restart.
func (s *Session) Admit(epoch, seq uint64) (v Verdict, gap uint64) {
	switch {
	case s.Epoch == 0:
		v = First
	case epoch < s.Epoch:
		return Stale, 0
	case epoch == s.Epoch:
		if seq <= s.Seq {
			return Duplicate, 0
		}
		v, gap = Next, seq-s.Seq-1
	default:
		v, gap = Restart, seq-1
	}
	s.Epoch, s.Seq = epoch, seq
	return v, gap
}

// NewEpoch returns the epoch of a new sender incarnation: the wall clock
// in nanoseconds, which is strictly larger across restarts (the
// property Admit's epoch comparison relies on), and never 0.
func NewEpoch() uint64 {
	if e := uint64(time.Now().UnixNano()); e != 0 {
		return e
	}
	return 1
}
