package wire

import (
	"encoding/binary"
	"testing"
)

func TestSessionAdmit(t *testing.T) {
	type step struct {
		epoch, seq uint64
		want       Verdict
		gap        uint64
		after      Session
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"first frame", []step{
			{5, 1, First, 0, Session{5, 1}},
		}},
		{"first frame mid-session counts no gap", []step{
			{5, 9, First, 0, Session{5, 9}},
		}},
		{"in order", []step{
			{5, 1, First, 0, Session{5, 1}},
			{5, 2, Next, 0, Session{5, 2}},
			{5, 3, Next, 0, Session{5, 3}},
		}},
		{"gap", []step{
			{5, 1, First, 0, Session{5, 1}},
			{5, 5, Next, 3, Session{5, 5}},
		}},
		{"duplicate and re-ordered", []step{
			{5, 1, First, 0, Session{5, 1}},
			{5, 3, Next, 1, Session{5, 3}},
			{5, 3, Duplicate, 0, Session{5, 3}},
			{5, 2, Duplicate, 0, Session{5, 3}},
			{5, 4, Next, 0, Session{5, 4}},
		}},
		{"restart", []step{
			{5, 1, First, 0, Session{5, 1}},
			{5, 40, Next, 38, Session{5, 40}},
			{6, 1, Restart, 0, Session{6, 1}},
			{6, 2, Next, 0, Session{6, 2}},
		}},
		{"restart with lost leading frames", []step{
			{5, 7, First, 0, Session{5, 7}},
			{9, 4, Restart, 3, Session{9, 4}},
		}},
		{"stale after restart", []step{
			{5, 1, First, 0, Session{5, 1}},
			{6, 1, Restart, 0, Session{6, 1}},
			{5, 2, Stale, 0, Session{6, 1}},
			{5, 99, Stale, 0, Session{6, 1}},
			{6, 2, Next, 0, Session{6, 2}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Session
			for i, st := range tc.steps {
				v, gap := s.Admit(st.epoch, st.seq)
				if v != st.want || gap != st.gap || s != st.after {
					t.Fatalf("step %d Admit(%d, %d) = %d gap %d, session %+v; want %d gap %d, session %+v",
						i, st.epoch, st.seq, v, gap, s, st.want, st.gap, st.after)
				}
			}
		})
	}
}

// The two rules Session replaced, kept verbatim as references:
// ingestRef is the heartbeat rule of the ingestion server, clientRef the
// command rule of the reporter library.

// ingestRef is the server's per-node sequence state and the counters
// its rule moved.
type ingestRef struct {
	epoch   uint64
	lastSeq uint64
	haveSeq bool

	staleEpochs, dupDrops, seqGaps, gapEvents, restarts uint64
}

// admit reports whether the frame replays and whether it advanced the
// node's session epoch.
func (ns *ingestRef) admit(epoch, seq uint64) (accepted, restarted bool) {
	if ns.haveSeq {
		switch {
		case epoch < ns.epoch:
			ns.staleEpochs++
			return false, false
		case epoch == ns.epoch:
			if seq <= ns.lastSeq {
				ns.dupDrops++
				return false, false
			}
			if gap := seq - ns.lastSeq - 1; gap > 0 {
				ns.seqGaps += gap
				ns.gapEvents++
			}
		default: // epoch > ns.epoch: the reporter restarted
			restarted = true
			ns.restarts++
			if seq > 1 {
				ns.seqGaps += seq - 1
				ns.gapEvents++
			}
		}
	}
	ns.epoch = epoch
	ns.lastSeq = seq
	ns.haveSeq = true
	return true, restarted
}

// clientRef is the reporter's command epoch+seq pair.
type clientRef struct {
	cmdEpoch uint64
	cmdSeq   uint64
}

// admit reports whether the command is applied.
func (c *clientRef) admit(epoch, seq uint64) bool {
	if epoch < c.cmdEpoch {
		return false
	}
	if epoch > c.cmdEpoch {
		c.cmdEpoch = epoch
		c.cmdSeq = 0
	}
	if seq <= c.cmdSeq {
		return false
	}
	c.cmdSeq = seq
	return true
}

// FuzzSessionEquivalent checks that Session.Admit, with the verdict
// mapped the way the server and the reporter map it, reproduces both
// reference rules step for step: the same admissions, the same
// counters and the same tracked (epoch, seq). The input is read as a
// sequence of uvarint (epoch, seq) pairs, each raised to at least 1 —
// the domain DecodeFrame and DecodeCommand admit.
func FuzzSessionEquivalent(f *testing.F) {
	pairs := func(ps ...uint64) []byte {
		var b []byte
		for _, p := range ps {
			b = binary.AppendUvarint(b, p)
		}
		return b
	}
	f.Add(pairs(5, 1, 5, 2, 5, 2, 5, 7, 6, 1, 5, 8, 6, 3))
	f.Add(pairs(5, 9, 9, 4, 9, 4, 1, 1))
	f.Add(pairs(1<<63, 1, 1<<63, 1<<62, 1<<64-1, 1<<64-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Session
		var srv ingestRef
		var cli clientRef
		var stale, dup, gaps, gapEvents, restarts uint64
		for step := 0; ; step++ {
			epoch, n := binary.Uvarint(data)
			if n <= 0 {
				return
			}
			seq, m := binary.Uvarint(data[n:])
			if m <= 0 {
				return
			}
			data = data[n+m:]
			epoch, seq = max(epoch, 1), max(seq, 1)

			v, gap := s.Admit(epoch, seq)
			switch v {
			case Stale:
				stale++
			case Duplicate:
				dup++
			case Restart:
				restarts++
			}
			if gap > 0 {
				gaps += gap
				gapEvents++
			}
			admitted := v == First || v == Next || v == Restart

			accepted, restarted := srv.admit(epoch, seq)
			if accepted != admitted || restarted != (v == Restart) {
				t.Fatalf("step %d (%d, %d): verdict %d, server rule accepted=%v restarted=%v", step, epoch, seq, v, accepted, restarted)
			}
			if srv.staleEpochs != stale || srv.dupDrops != dup || srv.seqGaps != gaps ||
				srv.gapEvents != gapEvents || srv.restarts != restarts {
				t.Fatalf("step %d (%d, %d): counters stale=%d dup=%d gaps=%d events=%d restarts=%d, server rule %+v",
					step, epoch, seq, stale, dup, gaps, gapEvents, restarts, srv)
			}
			if srv.epoch != s.Epoch || srv.lastSeq != s.Seq {
				t.Fatalf("step %d: session %+v, server rule tracks (%d, %d)", step, s, srv.epoch, srv.lastSeq)
			}

			if applied := cli.admit(epoch, seq); applied != admitted {
				t.Fatalf("step %d (%d, %d): verdict %d, reporter rule applied=%v", step, epoch, seq, v, applied)
			}
			if cli.cmdEpoch != s.Epoch || cli.cmdSeq != s.Seq {
				t.Fatalf("step %d: session %+v, reporter rule acks (%d, %d)", step, s, cli.cmdEpoch, cli.cmdSeq)
			}
		}
	})
}

func TestNewEpoch(t *testing.T) {
	if e := NewEpoch(); e == 0 {
		t.Fatal("NewEpoch = 0, want the wall clock in nanoseconds")
	}
}
