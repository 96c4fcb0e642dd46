package ingest

import (
	"encoding/binary"
	"net/netip"
	"testing"

	"swwd/internal/wire"
)

// BenchmarkIngestFrame measures the full replay-side cost of one
// accepted heartbeat frame: decode, node lookup, sequence check, the
// batched beat replay for every runnable and the link beat. The frame
// is the steady-state shape of a 10-runnable reporter; the benchmark
// re-encodes nothing and must not allocate.
func BenchmarkIngestFrame(b *testing.B) {
	const rpn = 10
	f := newFixture(b, 1, rpn)

	frame := wire.Frame{Node: 0, Epoch: 1, IntervalMs: 100}
	for i := 0; i < rpn; i++ {
		frame.Beats = append(frame.Beats, wire.BeatRec{Runnable: uint32(i), Beats: 5})
	}
	// Pre-encode one frame per iteration so the monotonically increasing
	// sequence number survives the duplicate-drop discipline.
	bufs := make([][]byte, b.N)
	for i := range bufs {
		frame.Seq = uint64(i + 1)
		buf, err := wire.AppendFrame(nil, &frame)
		if err != nil {
			b.Fatalf("AppendFrame: %v", err)
		}
		bufs[i] = buf
	}

	var scratch wire.Frame
	b.SetBytes(int64(len(bufs[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Server.ingestFrame(bufs[i], &scratch, netip.AddrPort{})
	}
	b.StopTimer()
	if st := f.Server.Stats(); st.Accepted != uint64(b.N) {
		b.Fatalf("accepted %d of %d frames (stats %+v)", st.Accepted, b.N, st)
	}
}

// flowFrameFixture builds a one-node fleet in the wide benchmark's
// shape — 256 runnables, the first 4 enrolled as a PFC sequence — and
// one encoded frame carrying a beat record per runnable and 1,024 flow
// records walking the sequence. next ingests that frame once more under
// a fresh sequence number, written in place into the header's Seq field
// (bytes 16–24, see wire.AppendFrame), so no iteration re-encodes.
func flowFrameFixture(tb testing.TB) (srv *Server, next func()) {
	tb.Helper()
	const rpn, seqLen, flowRecs = 256, 4, 1024
	f := newFixture(tb, 1, rpn)
	if err := f.Watchdog.AddFlowSequence(f.Specs[0].Runnables[:seqLen]...); err != nil {
		tb.Fatalf("AddFlowSequence: %v", err)
	}
	frame := wire.Frame{Node: 0, Epoch: 1, Seq: 1, IntervalMs: 100}
	for i := 0; i < rpn; i++ {
		frame.Beats = append(frame.Beats, wire.BeatRec{Runnable: uint32(i), Beats: 5})
	}
	for i := 0; i < flowRecs; i++ {
		frame.Flow = append(frame.Flow, uint32(i%seqLen))
	}
	buf, err := wire.AppendFrame(nil, &frame)
	if err != nil {
		tb.Fatalf("AppendFrame: %v", err)
	}
	var scratch wire.Frame
	seq := uint64(0)
	return f.Server, func() {
		seq++
		binary.LittleEndian.PutUint64(buf[16:24], seq)
		f.Server.ingestFrame(buf, &scratch, netip.AddrPort{})
	}
}

// BenchmarkIngestFrameFlow measures the replay-side cost of one accepted
// wide frame with a program-flow section: decode, 256 batched beat
// replays and 1,024 flow records checked by one FlowEventN call. It must
// not allocate (TestIngestFrameFlowAllocs pins that) and must raise no
// program-flow error, since the records walk the installed sequence.
func BenchmarkIngestFrameFlow(b *testing.B) {
	srv, next := flowFrameFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
	b.StopTimer()
	if st := srv.Stats(); st.Accepted != uint64(b.N) {
		b.Fatalf("accepted %d of %d frames (stats %+v)", st.Accepted, b.N, st)
	}
	if got := srv.w.Results().ProgramFlow; got != 0 {
		b.Fatalf("legal flow records raised %d program-flow errors", got)
	}
}

// TestIngestFrameFlowAllocs pins BenchmarkIngestFrameFlow's frame path
// at zero allocations.
func TestIngestFrameFlowAllocs(t *testing.T) {
	srv, next := flowFrameFixture(t)
	next() // the first frame sets up the node's sequence tracking
	if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
		t.Fatalf("ingesting a flow frame allocates %.1f times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before its 100 measured ones.
	if st := srv.Stats(); st.Accepted != 102 {
		t.Fatalf("accepted %d of 102 frames (stats %+v)", st.Accepted, st)
	}
	if got := srv.w.Results().ProgramFlow; got != 0 {
		t.Fatalf("legal flow records raised %d program-flow errors", got)
	}
}
