package ingest

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/sim"
	"swwd/internal/wire"
)

// encode builds one frame's bytes.
func encode(t *testing.T, f *wire.Frame) []byte {
	t.Helper()
	if f.Epoch == 0 {
		f.Epoch = 1
	}
	if f.IntervalMs == 0 {
		f.IntervalMs = 100
	}
	buf, err := wire.AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return buf
}

// inject pushes raw bytes through the read loop's ingest path.
func inject(s *Server, buf []byte) {
	var frame wire.Frame
	s.ingestFrame(buf, &frame, netip.AddrPort{})
}

func TestLinkHypothesis(t *testing.T) {
	h := LinkHypothesis(100*time.Millisecond, 10*time.Millisecond, 3)
	if h.AlivenessCycles != 30 || h.MinHeartbeats != 1 {
		t.Fatalf("hypothesis = %+v, want 30 cycles / 1 beat", h)
	}
	// Rounding up and the floor of 2.
	h = LinkHypothesis(15*time.Millisecond, 10*time.Millisecond, 1)
	if h.AlivenessCycles != 2 {
		t.Fatalf("AlivenessCycles = %d, want 2", h.AlivenessCycles)
	}
	h = LinkHypothesis(time.Millisecond, 10*time.Millisecond, 1)
	if h.AlivenessCycles != 2 {
		t.Fatalf("floor: AlivenessCycles = %d, want 2", h.AlivenessCycles)
	}
}

func TestIngestReplaysBeatsAndLink(t *testing.T) {
	f := newFixture(t, 2, 3)
	spec := f.Specs[0]
	inject(f.Server, encode(t, &wire.Frame{
		Node: 0, Seq: 1,
		Beats: []wire.BeatRec{{Runnable: 0, Beats: 5}, {Runnable: 2, Beats: 1}},
	}))
	for i, want := range []int{5, 0, 1} {
		c, err := f.Watchdog.CounterSnapshot(spec.Runnables[i])
		if err != nil {
			t.Fatal(err)
		}
		if c.AC != want {
			t.Errorf("runnable %d AC = %d, want %d", i, c.AC, want)
		}
	}
	c, _ := f.Watchdog.CounterSnapshot(spec.Link)
	if c.AC != 1 {
		t.Errorf("link AC = %d, want 1 (one accepted frame = one link beat)", c.AC)
	}
	st := f.Server.Stats()
	if st.Accepted != 1 || st.Frames != 1 || st.DecodeErrors != 0 {
		t.Errorf("stats = %+v, want 1 accepted / 1 frame / 0 decode errors", st)
	}
	// The second node saw nothing.
	c, _ = f.Watchdog.CounterSnapshot(f.Specs[1].Link)
	if c.AC != 0 {
		t.Errorf("node 1 link AC = %d, want 0", c.AC)
	}
}

func TestIngestSequenceDiscipline(t *testing.T) {
	f := newFixture(t, 1, 1)
	spec := f.Specs[0]
	beat1 := func(seq uint64) []byte {
		return encode(t, &wire.Frame{Node: 0, Seq: seq, Beats: []wire.BeatRec{{Runnable: 0, Beats: 1}}})
	}
	ac := func() int {
		c, _ := f.Watchdog.CounterSnapshot(spec.Runnables[0])
		return c.AC
	}

	inject(f.Server, beat1(1))
	inject(f.Server, beat1(2))
	if got := ac(); got != 2 {
		t.Fatalf("AC after seq 1,2 = %d, want 2", got)
	}
	// Duplicate: dropped without replay — a beat never counts twice.
	inject(f.Server, beat1(2))
	// Out-of-order (old): dropped too.
	inject(f.Server, beat1(1))
	if got := ac(); got != 2 {
		t.Fatalf("AC after dup + stale = %d, want 2 (no double count)", got)
	}
	st := f.Server.Stats()
	if st.DuplicateDrops != 2 {
		t.Fatalf("DuplicateDrops = %d, want 2", st.DuplicateDrops)
	}
	if st.SeqGaps != 0 {
		t.Fatalf("SeqGaps = %d, want 0 so far", st.SeqGaps)
	}
	// Jump 2→5: two frames lost in flight; the frame itself replays.
	inject(f.Server, beat1(5))
	if got := ac(); got != 3 {
		t.Fatalf("AC after gap frame = %d, want 3", got)
	}
	st = f.Server.Stats()
	if st.SeqGaps != 2 || st.SeqGapEvents != 1 {
		t.Fatalf("gaps = %d/%d events, want 2/1", st.SeqGaps, st.SeqGapEvents)
	}
	// Link beat once per *accepted* frame: 3 accepted of 5 handed over.
	c, _ := f.Watchdog.CounterSnapshot(spec.Link)
	if c.AC != 3 || st.Accepted != 3 {
		t.Fatalf("link AC = %d, accepted = %d; want 3, 3", c.AC, st.Accepted)
	}
}

// TestIngestReporterRestart is the session-epoch discipline: a restarted
// reporter (fresh epoch, sequence numbers starting again at 1) must have
// its frames replayed immediately — not discarded as duplicates of the
// old session — while stale datagrams from the superseded session are
// dropped without replay.
func TestIngestReporterRestart(t *testing.T) {
	f := newFixture(t, 1, 1)
	spec := f.Specs[0]
	send := func(epoch, seq uint64) {
		inject(f.Server, encode(t, &wire.Frame{Node: 0, Epoch: epoch, Seq: seq,
			Beats: []wire.BeatRec{{Runnable: 0, Beats: 1}}}))
	}
	ac := func() int {
		c, _ := f.Watchdog.CounterSnapshot(spec.Runnables[0])
		return c.AC
	}

	// First session: epoch 10, frames 1..3.
	for s := uint64(1); s <= 3; s++ {
		send(10, s)
	}
	if got := ac(); got != 3 {
		t.Fatalf("AC after first session = %d, want 3", got)
	}

	// The reporter restarts: epoch 20, Seq back at 1 — far below the old
	// session's lastSeq. Without epoch handling this frame (and every one
	// after it, for 3 frames' worth of sequence numbers) would be dropped
	// as a duplicate and the healthy node declared link-dead.
	send(20, 1)
	if got := ac(); got != 4 {
		t.Fatalf("AC after restart frame = %d, want 4 (frame must replay)", got)
	}
	st := f.Server.Stats()
	if st.NodeRestarts != 1 {
		t.Fatalf("NodeRestarts = %d, want 1", st.NodeRestarts)
	}
	if st.DuplicateDrops != 0 {
		t.Fatalf("DuplicateDrops = %d, want 0 — restart misread as duplicate", st.DuplicateDrops)
	}
	if st.SeqGaps != 0 {
		t.Fatalf("SeqGaps = %d, want 0 (restart at Seq 1 lost nothing)", st.SeqGaps)
	}
	// The restarted session's link heartbeat flows like any other.
	c, _ := f.Watchdog.CounterSnapshot(spec.Link)
	if c.AC != 4 {
		t.Fatalf("link AC = %d, want 4", c.AC)
	}

	// A late datagram from the dead session (old epoch, any seq) must be
	// dropped: its beats may already have been counted.
	send(10, 4)
	if got := ac(); got != 4 {
		t.Fatalf("AC after stale-epoch frame = %d, want 4 (no replay)", got)
	}
	if st := f.Server.Stats(); st.StaleEpochDrops != 1 {
		t.Fatalf("StaleEpochDrops = %d, want 1", st.StaleEpochDrops)
	}

	// Ordinary sequence discipline continues within the new session.
	send(20, 2)
	send(20, 2) // duplicate
	st = f.Server.Stats()
	if got := ac(); got != 5 || st.DuplicateDrops != 1 {
		t.Fatalf("AC = %d, DuplicateDrops = %d; want 5, 1", got, st.DuplicateDrops)
	}

	// A restart whose first frames were lost in flight (epoch 30 arriving
	// at Seq 3) counts the new session's missing prefix as a gap.
	send(30, 3)
	st = f.Server.Stats()
	if st.NodeRestarts != 2 || st.SeqGaps != 2 || st.SeqGapEvents != 1 {
		t.Fatalf("restart with loss: restarts=%d gaps=%d events=%d, want 2/2/1",
			st.NodeRestarts, st.SeqGaps, st.SeqGapEvents)
	}
}

// TestIngestIntervalMismatch: the registration interval is authoritative
// for the link hypothesis; a frame declaring a different flush cadence
// still replays but is counted as a configuration diagnostic.
func TestIngestIntervalMismatch(t *testing.T) {
	f := newFixture(t, 1, 1) // registered at 100ms
	inject(f.Server, encode(t, &wire.Frame{Node: 0, Seq: 1, IntervalMs: 100,
		Beats: []wire.BeatRec{{Runnable: 0, Beats: 1}}}))
	if st := f.Server.Stats(); st.IntervalMismatch != 0 {
		t.Fatalf("matching interval counted as mismatch: %+v", st)
	}
	inject(f.Server, encode(t, &wire.Frame{Node: 0, Seq: 2, IntervalMs: 250,
		Beats: []wire.BeatRec{{Runnable: 0, Beats: 1}}}))
	st := f.Server.Stats()
	if st.IntervalMismatch != 1 {
		t.Fatalf("IntervalMismatch = %d, want 1", st.IntervalMismatch)
	}
	if st.Accepted != 2 {
		t.Fatalf("Accepted = %d, want 2 (mismatch must not drop the frame)", st.Accepted)
	}
}

func TestIngestRejectsWithoutPartialReplay(t *testing.T) {
	f := newFixture(t, 1, 2)
	spec := f.Specs[0]
	ac0 := func() int {
		c, _ := f.Watchdog.CounterSnapshot(spec.Runnables[0])
		return c.AC
	}

	// Unknown node ID.
	inject(f.Server, encode(t, &wire.Frame{Node: 99, Seq: 1, Beats: []wire.BeatRec{{Runnable: 0, Beats: 1}}}))
	if st := f.Server.Stats(); st.UnknownNode != 1 {
		t.Fatalf("UnknownNode = %d, want 1", st.UnknownNode)
	}

	// Unknown runnable index: counted as decode error, frame dropped
	// whole — the valid first record must not have been applied.
	inject(f.Server, encode(t, &wire.Frame{Node: 0, Seq: 1, Beats: []wire.BeatRec{
		{Runnable: 0, Beats: 7}, {Runnable: 9, Beats: 1},
	}}))
	if got := ac0(); got != 0 {
		t.Fatalf("AC after rejected frame = %d, want 0 (no partial replay)", got)
	}
	// Same for an unknown flow index.
	inject(f.Server, encode(t, &wire.Frame{Node: 0, Seq: 1, Beats: []wire.BeatRec{{Runnable: 0, Beats: 3}}, Flow: []uint32{9}}))
	if got := ac0(); got != 0 {
		t.Fatalf("AC after rejected flow frame = %d, want 0", got)
	}

	// Truncated garbage.
	inject(f.Server, []byte{0x57, 0x53, 1})
	st := f.Server.Stats()
	if st.DecodeErrors != 3 {
		t.Fatalf("DecodeErrors = %d, want 3", st.DecodeErrors)
	}
	if st.Accepted != 0 {
		t.Fatalf("Accepted = %d, want 0", st.Accepted)
	}
	// Rejected frames never advance the sequence: seq 1 still usable.
	inject(f.Server, encode(t, &wire.Frame{Node: 0, Seq: 1, Beats: []wire.BeatRec{{Runnable: 0, Beats: 2}}}))
	if got := ac0(); got != 2 {
		t.Fatalf("AC after clean frame = %d, want 2", got)
	}
}

// TestIngestLinkFaultPerWindow drives cycles by hand: a node that stops
// reporting raises exactly one aliveness fault on its link runnable per
// monitoring window, while a healthy node stays clean.
func TestIngestLinkFaultPerWindow(t *testing.T) {
	f := newFixture(t, 2, 2) // window = 3*100ms/10ms = 30 cycles
	const window = 30
	send := func(node uint32, seq uint64) {
		inject(f.Server, encode(t, &wire.Frame{Node: node, Seq: seq,
			Beats: []wire.BeatRec{{Runnable: 0, Beats: 2}, {Runnable: 1, Beats: 2}}}))
	}
	linkFaults := func(n int) uint64 {
		a, _, _, err := f.Watchdog.RunnableErrors(f.Specs[n].Link)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	// One healthy window: both nodes report every 10 cycles.
	seq := uint64(0)
	for c := 0; c < window; c++ {
		if c%10 == 0 {
			seq++
			send(0, seq)
			send(1, seq)
		}
		f.Watchdog.Cycle()
	}
	if got := f.Watchdog.Results(); got != (core.Results{}) {
		t.Fatalf("healthy window produced detections: %+v", got)
	}

	// Node 1 dies. Node 0 keeps reporting.
	for w := 1; w <= 2; w++ {
		for c := 0; c < window; c++ {
			if c%10 == 0 {
				seq++
				send(0, seq)
			}
			f.Watchdog.Cycle()
		}
		if got := linkFaults(1); got != uint64(w) {
			t.Fatalf("after %d silent windows: link faults = %d, want exactly %d", w, got, w)
		}
		if got := linkFaults(0); got != 0 {
			t.Fatalf("healthy node accumulated %d link faults", got)
		}
	}

	// The fault is journaled with the link runnable attributed.
	var found bool
	for _, e := range f.Watchdog.Journal() {
		if e.Kind == core.AlivenessError && e.Runnable == f.Specs[1].Link {
			found = true
		}
	}
	if !found {
		t.Fatal("no aliveness journal entry for the dead node's link runnable")
	}
}

func TestIngestFlowReplay(t *testing.T) {
	// Hand-build a model with a PFC-enrolled pair so flow records replay
	// through the look-up-table check.
	model := runnable.NewModel()
	app, _ := model.AddApp("a", runnable.SafetyCritical)
	task, _ := model.AddTask(app, "t", 1)
	r0, _ := model.AddRunnable(task, "r0", time.Millisecond, runnable.SafetyCritical)
	r1, _ := model.AddRunnable(task, "r1", time.Millisecond, runnable.SafetyCritical)
	link, _ := model.AddRunnable(task, "link", time.Millisecond, runnable.SafetyCritical)
	if err := model.Freeze(); err != nil {
		t.Fatal(err)
	}
	w, err := core.New(core.Config{Model: model, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFlowSequence(r0, r1); err != nil {
		t.Fatal(err)
	}
	srv, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterNode(NodeSpec{Node: 0, Interval: 100 * time.Millisecond,
		Runnables: []runnable.ID{r0, r1}, Link: link}); err != nil {
		t.Fatal(err)
	}

	// Legal order r0→r1→r0: no flow errors.
	inject(srv, encode(t, &wire.Frame{Node: 0, Seq: 1, Flow: []uint32{0, 1, 0}}))
	if got := w.Results().ProgramFlow; got != 0 {
		t.Fatalf("legal order produced %d flow errors", got)
	}
	// Illegal r0→r0 (r0 may only follow r1).
	inject(srv, encode(t, &wire.Frame{Node: 0, Seq: 2, Flow: []uint32{0}}))
	if got := w.Results().ProgramFlow; got != 1 {
		t.Fatalf("illegal order produced %d flow errors, want 1", got)
	}
}

func TestRegisterNodeValidation(t *testing.T) {
	f := newFixture(t, 1, 1)
	spec := f.Specs[0]
	if err := f.Server.RegisterNode(spec); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate registration err = %v, want ErrNodeExists", err)
	}
	if err := f.Server.RegisterNode(NodeSpec{Node: 7, Interval: time.Second,
		Runnables: []runnable.ID{999}, Link: spec.Link}); !errors.Is(err, core.ErrUnknownRunnable) {
		t.Fatalf("unknown runnable err = %v, want ErrUnknownRunnable", err)
	}
	if err := f.Server.RegisterNode(NodeSpec{Node: 8, Interval: 0,
		Runnables: spec.Runnables, Link: spec.Link}); err == nil {
		t.Fatal("zero interval accepted")
	}
}

// TestIngestFrameZeroAlloc pins the steady-state cost contract of the
// ingest path: decode + validate + sequence check + replay allocates
// nothing per frame.
func TestIngestFrameZeroAlloc(t *testing.T) {
	f := newFixture(t, 1, 10)
	frame := &wire.Frame{Node: 0, Epoch: 1, Seq: 0, IntervalMs: 100}
	for i := uint32(0); i < 10; i++ {
		frame.Beats = append(frame.Beats, wire.BeatRec{Runnable: i, Beats: 3})
	}
	var dec wire.Frame
	seq := uint64(0)
	bufs := make([][]byte, 200)
	for i := range bufs {
		seq++
		frame.Seq = seq
		b, err := wire.AppendFrame(nil, frame)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	i := 0
	f.Server.ingestFrame(bufs[i], &dec, netip.AddrPort{}) // warm the decoder slices
	i++
	allocs := testing.AllocsPerRun(100, func() {
		f.Server.ingestFrame(bufs[i], &dec, netip.AddrPort{})
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state ingestFrame allocates %.1f/op, want 0", allocs)
	}
}
