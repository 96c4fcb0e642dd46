package swwdclient

import (
	"errors"
	"net"
	"testing"
	"time"

	"swwd/internal/wire"
)

// loopback opens a local UDP sink and returns it plus its address.
func loopback(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// dialQuiet connects a client whose ticker never fires inside a test, so
// frames leave only on manual Flush.
func dialQuiet(t *testing.T, addr string, runnables int, opts ...Option) *Client {
	t.Helper()
	all := append([]Option{WithNode(7), WithRunnables(runnables), WithInterval(time.Hour)}, opts...)
	c, err := Dial(addr, all...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// recvFrame reads and decodes one datagram from the sink.
func recvFrame(t *testing.T, conn *net.UDPConn) *wire.Frame {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, wire.MaxFrameSize)
	n, _, err := conn.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("ReadFromUDP: %v", err)
	}
	var f wire.Frame
	if err := wire.DecodeFrame(buf[:n], &f); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	return &f
}

func TestClientCoalescesBeatsIntoOneFrame(t *testing.T) {
	sink := loopback(t)
	c := dialQuiet(t, sink.LocalAddr().String(), 4)

	c.Beat(0)
	c.Beat(0)
	c.Beat(0)
	c.BeatN(1, 5)
	c.Exec(2)
	c.Beat(99) // out of range: ignored
	c.Flush()

	f := recvFrame(t, sink)
	if f.Node != 7 || f.Seq != 1 {
		t.Fatalf("frame node/seq = %d/%d, want 7/1", f.Node, f.Seq)
	}
	want := []wire.BeatRec{{Runnable: 0, Beats: 3}, {Runnable: 1, Beats: 5}, {Runnable: 2, Beats: 1}}
	if len(f.Beats) != len(want) {
		t.Fatalf("beats = %v, want %v", f.Beats, want)
	}
	for i := range want {
		if f.Beats[i] != want[i] {
			t.Fatalf("beats = %v, want %v", f.Beats, want)
		}
	}
	if len(f.Flow) != 1 || f.Flow[0] != 2 {
		t.Fatalf("flow = %v, want [2]", f.Flow)
	}

	// Counters were swapped out: the next flush carries only new beats.
	c.Beat(3)
	c.Flush()
	f = recvFrame(t, sink)
	if f.Seq != 2 || len(f.Beats) != 1 || f.Beats[0] != (wire.BeatRec{Runnable: 3, Beats: 1}) {
		t.Fatalf("second frame = %+v, want seq 2 with beats [{3 1}]", f)
	}
	if st := c.Stats(); st.FramesSent != 2 || st.Seq != 2 || st.SendErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientIdleFlushSendsEmptyFrame(t *testing.T) {
	sink := loopback(t)
	c := dialQuiet(t, sink.LocalAddr().String(), 2)
	c.Flush()
	f := recvFrame(t, sink)
	if f.Seq != 1 || len(f.Beats) != 0 || len(f.Flow) != 0 {
		t.Fatalf("idle frame = %+v, want empty seq 1", f)
	}
}

func TestClientFlowBacklogCap(t *testing.T) {
	sink := loopback(t)
	c := dialQuiet(t, sink.LocalAddr().String(), 2, WithMaxFlowBacklog(4))
	for i := 0; i < 6; i++ {
		c.FlowEvent(i % 2)
	}
	if st := c.Stats(); st.FlowDropped != 2 {
		t.Fatalf("FlowDropped = %d, want 2", st.FlowDropped)
	}
	c.Flush()
	if f := recvFrame(t, sink); len(f.Flow) != 4 {
		t.Fatalf("flow = %v, want 4 events", f.Flow)
	}
}

// failingConn always errors on Read and Write, standing in for a broken
// link; the command reader may pick it up while it is installed.
type failingConn struct{ net.Conn }

func (failingConn) Read([]byte) (int, error)  { return 0, errors.New("link down") }
func (failingConn) Write([]byte) (int, error) { return 0, errors.New("link down") }
func (failingConn) Close() error              { return nil }

func TestClientFoldsBackOnSendErrorAndReconnects(t *testing.T) {
	sink := loopback(t)
	c := dialQuiet(t, sink.LocalAddr().String(), 2)

	// Close the dialed socket before breaking the link: the command
	// reader may be blocked reading it, and only a closed socket sends it
	// back to fetch the current one.
	c.flushMu.Lock()
	_ = c.conn.Close()
	c.conn = failingConn{}
	c.flushMu.Unlock()

	c.Beat(0)
	c.FlowEvent(1)
	c.Flush()
	st := c.Stats()
	if st.SendErrors != 1 || st.FramesSent != 0 || st.Seq != 0 {
		t.Fatalf("after failed send: stats = %+v", st)
	}

	// Within the backoff window nothing is sent, and nothing is lost.
	c.Flush()
	if st := c.Stats(); st.SendErrors != 1 || st.FramesSent != 0 {
		t.Fatalf("flush inside backoff window sent a frame: %+v", st)
	}

	// Expire the backoff: the next flush redials and the folded-back
	// beats and re-queued flow events travel in the first healthy frame.
	c.flushMu.Lock()
	c.nextDial = time.Time{}
	c.flushMu.Unlock()
	c.Flush()
	f := recvFrame(t, sink)
	if f.Seq != 1 || len(f.Beats) != 1 || f.Beats[0] != (wire.BeatRec{Runnable: 0, Beats: 1}) {
		t.Fatalf("recovery frame = %+v, want seq 1 with beats [{0 1}]", f)
	}
	if len(f.Flow) != 1 || f.Flow[0] != 1 {
		t.Fatalf("recovery flow = %v, want [1]", f.Flow)
	}
	if st := c.Stats(); st.Reconnects != 1 || st.FramesSent != 1 || st.Seq != 1 {
		t.Fatalf("after recovery: stats = %+v", st)
	}
}

func TestClientTickerFlushes(t *testing.T) {
	sink := loopback(t)
	c, err := Dial(sink.LocalAddr().String(),
		WithNode(1), WithRunnables(1), WithInterval(5*time.Millisecond))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	c.Beat(0)
	f := recvFrame(t, sink) // arrives without any manual Flush
	if f.Node != 1 || f.Seq != 1 {
		t.Fatalf("ticker frame = %+v", f)
	}
}

func TestClientCloseSendsFinalFrameAndRefusesReuse(t *testing.T) {
	sink := loopback(t)
	c := dialQuiet(t, sink.LocalAddr().String(), 2)
	c.Beat(1)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f := recvFrame(t, sink)
	if len(f.Beats) != 1 || f.Beats[0] != (wire.BeatRec{Runnable: 1, Beats: 1}) {
		t.Fatalf("final frame = %+v", f)
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	c.Flush() // must not panic or send
	_ = sink.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 64)
	if n, _, err := sink.ReadFromUDP(buf); err == nil {
		t.Fatalf("received %d bytes after Close", n)
	}
}

// TestClientSessionEpoch: every frame carries the client's session
// epoch, constant within one client and strictly newer for a restarted
// one — the property the server uses to reset its sequence tracking
// instead of dropping the new session's frames as duplicates.
func TestClientSessionEpoch(t *testing.T) {
	sink := loopback(t)
	c1 := dialQuiet(t, sink.LocalAddr().String(), 1)
	c1.Flush()
	f1 := recvFrame(t, sink)
	if f1.Epoch == 0 {
		t.Fatal("frame carries zero epoch")
	}
	c1.Beat(0)
	c1.Flush()
	if f := recvFrame(t, sink); f.Epoch != f1.Epoch {
		t.Fatalf("epoch changed within one session: %d then %d", f1.Epoch, f.Epoch)
	}

	// "Restart" the reporter: a second client for the same node.
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recvFrame(t, sink)           // drain the final frame
	time.Sleep(time.Millisecond) // ensure a later wall-clock nanosecond
	c2 := dialQuiet(t, sink.LocalAddr().String(), 1)
	c2.Flush()
	f2 := recvFrame(t, sink)
	if f2.Epoch <= f1.Epoch {
		t.Fatalf("restarted client epoch %d not newer than %d", f2.Epoch, f1.Epoch)
	}
	if f2.Seq != 1 {
		t.Fatalf("restarted session Seq = %d, want 1", f2.Seq)
	}
}

// TestClientClampsOversizedBeatCount: a coalesced count beyond the wire
// per-record cap (a hot runnable after a long outage) is clamped to the
// cap, the remainder travels with the next frame, and — crucially — the
// frame still encodes and sends, so one hot runnable can never poison
// every flush forever and starve the link heartbeat.
func TestClientClampsOversizedBeatCount(t *testing.T) {
	sink := loopback(t)
	c := dialQuiet(t, sink.LocalAddr().String(), 2)
	c.counts[0].Store(wire.MaxBeatsPerRecord + 5)
	c.Beat(1)
	c.Flush()
	f := recvFrame(t, sink)
	want := []wire.BeatRec{{Runnable: 0, Beats: wire.MaxBeatsPerRecord}, {Runnable: 1, Beats: 1}}
	if len(f.Beats) != 2 || f.Beats[0] != want[0] || f.Beats[1] != want[1] {
		t.Fatalf("clamped frame beats = %v, want %v", f.Beats, want)
	}
	if st := c.Stats(); st.EncodeErrors != 0 || st.FramesSent != 1 {
		t.Fatalf("stats after clamped flush = %+v", st)
	}
	// The remainder was folded back and travels with the next frame.
	c.Flush()
	f = recvFrame(t, sink)
	if len(f.Beats) != 1 || f.Beats[0] != (wire.BeatRec{Runnable: 0, Beats: 5}) {
		t.Fatalf("remainder frame beats = %v, want [{0 5}]", f.Beats)
	}
}

// TestClientCountsFlowDroppedOnEncodeError: flow events discarded with
// an unencodable frame must show up in Stats.FlowDropped, and the beat
// counts must fold back for a later frame.
func TestClientCountsFlowDroppedOnEncodeError(t *testing.T) {
	sink := loopback(t)
	const overflow = 0x10000 // one past the wire's 16-bit flow record count
	c := dialQuiet(t, sink.LocalAddr().String(), 2, WithMaxFlowBacklog(overflow))
	c.Beat(0)
	for i := 0; i < overflow; i++ {
		c.FlowEvent(1)
	}
	c.Flush()
	st := c.Stats()
	if st.EncodeErrors != 1 || st.FramesSent != 0 {
		t.Fatalf("stats after unencodable flush = %+v", st)
	}
	if st.FlowDropped != overflow {
		t.Fatalf("FlowDropped = %d, want %d (dropped flow must be accounted)", st.FlowDropped, overflow)
	}
	// The beats survived the encode failure and travel with the next
	// (now well-formed) frame.
	c.Flush()
	f := recvFrame(t, sink)
	if f.Seq != 1 || len(f.Beats) != 1 || f.Beats[0] != (wire.BeatRec{Runnable: 0, Beats: 1}) {
		t.Fatalf("recovery frame = %+v, want seq 1 with beats [{0 1}]", f)
	}
	if len(f.Flow) != 0 {
		t.Fatalf("recovery flow = %d events, want 0", len(f.Flow))
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("", WithRunnables(1)); err == nil {
		t.Fatal("Dial accepted empty Addr")
	}
	if _, err := Dial("localhost:1"); err == nil {
		t.Fatal("Dial accepted zero Runnables")
	}
	if _, err := Dial("localhost:1", WithRunnables(MaxRunnables+1)); err == nil {
		t.Fatal("Dial accepted oversized Runnables")
	}
}

// countingConn wraps a net.Conn and counts datagrams written through it,
// standing in for the fault-injecting wrapper internal/chaos interposes.
type countingConn struct {
	net.Conn
	writes *int
}

func (c *countingConn) Write(b []byte) (int, error) {
	*c.writes++
	return c.Conn.Write(b)
}

func TestClientCustomDialer(t *testing.T) {
	sink := loopback(t)

	var dials, writes int
	dialer := func(addr string) (net.Conn, error) {
		dials++
		inner, err := net.Dial("udp", addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: inner, writes: &writes}, nil
	}

	c := dialQuiet(t, sink.LocalAddr().String(), 2, WithDialer(dialer))
	if dials != 1 {
		t.Fatalf("dials = %d, want 1", dials)
	}

	c.Beat(0)
	c.Flush()
	if writes != 1 {
		t.Fatalf("writes through custom conn = %d, want 1", writes)
	}
	f := recvFrame(t, sink)
	if f.Node != 7 {
		t.Fatalf("frame node = %d, want 7", f.Node)
	}
}
