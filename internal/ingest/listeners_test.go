package ingest

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swwd/internal/wire"
)

// mtFleet builds a fleet wired for the multi-listener front end on a
// manual clock (no sweeps run, so no faults can fire mid-test).
func mtFleet(t *testing.T, nodes, listeners, batch, shards int) *fixture {
	t.Helper()
	return newFixture(t, nodes, 2, WithListeners(listeners), WithBatchSize(batch), WithShards(shards))
}

// sendFrames sends seq 1..count frames for node over conn, beating both
// runnables once per frame.
func sendFrames(t *testing.T, conn net.Conn, node uint32, count int) {
	t.Helper()
	frame := wire.Frame{Node: node, Epoch: 1, IntervalMs: 100,
		Beats: []wire.BeatRec{{Runnable: 0, Beats: 1}, {Runnable: 1, Beats: 1}}}
	buf := make([]byte, 0, 128)
	for seq := 1; seq <= count; seq++ {
		frame.Seq = uint64(seq)
		var err error
		buf, err = wire.AppendFrame(buf[:0], &frame)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
}

// waitStat polls fn until it returns true or the deadline passes.
func waitStat(t *testing.T, srv *Server, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !fn() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, srv.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIngestMultiListener is the happy path of the reuseport front end:
// N sockets bound to one address, frames from several flows accepted in
// full, listener counters accounting for every received packet.
func TestIngestMultiListener(t *testing.T) {
	const nodes, perNode, senders = 32, 50, 4
	f := mtFleet(t, nodes, 4, 8, 4)
	addr, err := f.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer f.Server.Close()

	wantListeners := 4
	if !reusePortSupported {
		wantListeners = 1
	}
	if got := f.Server.Stats().Listeners; got != wantListeners {
		t.Fatalf("active listeners = %d, want %d", got, wantListeners)
	}

	var wg sync.WaitGroup
	for sdr := 0; sdr < senders; sdr++ {
		wg.Add(1)
		go func(sdr int) {
			defer wg.Done()
			conn, err := net.Dial("udp", addr.String())
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer conn.Close()
			for n := sdr; n < nodes; n += senders {
				sendFrames(t, conn, uint32(n), perNode)
			}
		}(sdr)
	}
	wg.Wait()

	const want = uint64(nodes * perNode)
	waitStat(t, f.Server, "all frames accepted", func() bool {
		return f.Server.Stats().Accepted == want
	})
	st := f.Server.Stats()
	if st.DecodeErrors != 0 || st.DuplicateDrops != 0 || st.DroppedPackets != 0 ||
		st.BuffersExhausted != 0 || st.SeqGaps != 0 {
		t.Fatalf("wire errors on a clean run: %+v", st)
	}
	var packets, batches uint64
	for _, ls := range f.Server.ListenerStats() {
		packets += ls.Packets
		batches += ls.Batches
		if ls.MaxBatch > 8 {
			t.Fatalf("listener MaxBatch %d exceeds configured batch size 8", ls.MaxBatch)
		}
	}
	if packets != st.Frames {
		t.Fatalf("listener packets %d != frames %d", packets, st.Frames)
	}
	if batches == 0 || batches > packets {
		t.Fatalf("listener batches %d out of range (packets %d)", batches, packets)
	}
}

// TestIngestListenerSocketCloseDoesNotWedgeClose kills one socket of
// the group out from under the server: the surviving loops keep
// serving, and Close still completes.
func TestIngestListenerSocketCloseDoesNotWedgeClose(t *testing.T) {
	f := mtFleet(t, 8, 4, 8, 2)
	addr, err := f.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if n := len(f.Server.snapshotListeners()); n > 1 {
		// Close a victim socket directly — not via Server.Close.
		_ = f.Server.snapshotListeners()[n-1].conn.Close()
	}
	// The remaining sockets still accept traffic (the kernel rebalances
	// the reuseport group away from the closed socket).
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	sendFrames(t, conn, 3, 20)
	waitStat(t, f.Server, "frames accepted after socket loss", func() bool {
		return f.Server.Stats().Accepted >= 20
	})

	done := make(chan error, 1)
	go func() { done <- f.Server.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged after one listener socket died")
	}
}

// TestIngestReusePortFallback forces the no-SO_REUSEPORT path: a
// Listeners=4 server degrades to one socket and serves identically.
func TestIngestReusePortFallback(t *testing.T) {
	old := reusePortEnabled
	reusePortEnabled = false
	defer func() { reusePortEnabled = old }()

	f := mtFleet(t, 8, 4, 8, 2)
	addr, err := f.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer f.Server.Close()
	if got := f.Server.Stats().Listeners; got != 1 {
		t.Fatalf("fallback bound %d listeners, want 1", got)
	}
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	sendFrames(t, conn, 5, 40)
	waitStat(t, f.Server, "frames accepted on fallback", func() bool {
		return f.Server.Stats().Accepted == 40
	})
	st := f.Server.Stats()
	if st.DecodeErrors != 0 || st.DuplicateDrops != 0 || st.SeqGaps != 0 {
		t.Fatalf("wire errors on fallback path: %+v", st)
	}
}

// TestIngestExplicitSingleListener pins Listeners=1: the plain bind
// path, no reuseport group, behaviour unchanged from the PR 4 server.
func TestIngestExplicitSingleListener(t *testing.T) {
	f := mtFleet(t, 4, 1, 1, 2)
	addr, err := f.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer f.Server.Close()
	if got := f.Server.Stats().Listeners; got != 1 {
		t.Fatalf("listeners = %d, want 1", got)
	}
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	sendFrames(t, conn, 2, 25)
	waitStat(t, f.Server, "frames accepted", func() bool {
		return f.Server.Stats().Accepted == 25
	})
}

// TestIngestKernelDropsCounted overflows a listener socket's kernel
// receive queue — the only burst buffer in front of the read loop — and
// asserts every sent datagram is either accepted or counted in
// DroppedPackets: overload degrades into counted drops, never silent
// loss.
func TestIngestKernelDropsCounted(t *testing.T) {
	// The kernel clamps the 4 KiB read buffer to its minimum.
	f := newFixture(t, 1, 2, WithListeners(1), WithBatchSize(8), WithReadBuffer(4096))
	// The first accepted frame parks the read loop in the hook until
	// release closes, so the burst below lands in the kernel queue.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	f.Server.cfg.FrameHook = func(uint32, bool) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	addr, err := f.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer f.Server.Close()
	if _, ok := socketDrops(f.Server.snapshotListeners()[0].conn); !ok {
		close(release)
		t.Skip("no kernel receive-queue drop counter on this platform")
	}
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	const n = 1000
	sendFrames(t, conn, 0, 1)
	<-entered
	frame := wire.Frame{Node: 0, Epoch: 1, IntervalMs: 100,
		Beats: []wire.BeatRec{{Runnable: 0, Beats: 1}, {Runnable: 1, Beats: 1}}}
	var buf []byte
	for seq := 2; seq <= n; seq++ {
		frame.Seq = uint64(seq)
		buf, _ = wire.AppendFrame(buf[:0], &frame)
		if _, err := conn.Write(buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	close(release)

	waitStat(t, f.Server, "every frame accepted or dropped", func() bool {
		st := f.Server.Stats()
		return st.Accepted+st.DroppedPackets >= n
	})
	st := f.Server.Stats()
	if st.Accepted+st.DroppedPackets != n {
		t.Fatalf("accepted %d + dropped %d != sent %d", st.Accepted, st.DroppedPackets, n)
	}
	if st.DroppedPackets == 0 {
		t.Fatalf("a %d-frame burst into a minimal receive buffer dropped nothing: %+v", n, st)
	}
	if st.BuffersExhausted != 0 {
		t.Fatalf("BuffersExhausted = %d, want 0", st.BuffersExhausted)
	}
	// The counter is monotonic across samples and survives Close.
	_ = f.Server.Close()
	if after := f.Server.Stats().DroppedPackets; after != st.DroppedPackets {
		t.Fatalf("DroppedPackets moved across Close: %d -> %d", st.DroppedPackets, after)
	}
}

// TestIngestCloseLeavesNoGoroutines asserts that Close stops every
// goroutine Listen started: with no workers behind the read loops,
// the goroutine count returns to its baseline.
func TestIngestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	f := mtFleet(t, 8, 4, 8, 2)
	addr, err := f.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	sendFrames(t, conn, 1, 20)
	waitStat(t, f.Server, "frames accepted", func() bool {
		return f.Server.Stats().Accepted == 20
	})
	_ = conn.Close()
	if err := f.Server.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A read loop's deferred Done runs just before its goroutine exits,
	// so allow the scheduler a moment to retire it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestMultiListenerShardAffinity race-stresses the single-writer
// discipline across concurrent listeners: frames for overlapping node
// sets arrive over many flows, and a FrameHook guard asserts no node is
// ever inside the replay path on two read loops at once. Run under -race
// in CI (the ingest race-stress step matches TestIngest*).
func TestIngestMultiListenerShardAffinity(t *testing.T) {
	const nodes, perSender, senders = 64, 200, 8
	inFlight := make([]atomic.Int32, nodes)
	var violations atomic.Uint64
	f := newFixture(t, nodes, 2, WithListeners(4), WithBatchSize(16), WithShards(4))
	// The hook runs on the read loop inside the frame path, under the
	// node's stripe lock; a node observed concurrently on two goroutines
	// is a serialization violation.
	f.Server.cfg.FrameHook = func(node uint32, restarted bool) {
		if inFlight[node].Add(1) != 1 {
			violations.Add(1)
		}
		inFlight[node].Add(-1)
	}
	addr, err := f.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer f.Server.Close()

	// A scraper samples Stats (and with it the kernel drop counters)
	// alongside the test goroutine's own polling below.
	stopScrape, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		var prev uint64
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			if d := f.Server.Stats().DroppedPackets; d < prev {
				t.Errorf("DroppedPackets went backwards: %d -> %d", prev, d)
			} else {
				prev = d
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for sdr := 0; sdr < senders; sdr++ {
		wg.Add(1)
		go func(sdr int) {
			defer wg.Done()
			conn, err := net.Dial("udp", addr.String())
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer conn.Close()
			frame := wire.Frame{Epoch: uint64(sdr + 1), IntervalMs: 100,
				Beats: []wire.BeatRec{{Runnable: 0, Beats: 1}}}
			buf := make([]byte, 0, 64)
			seqs := make([]uint64, nodes)
			for i := 0; i < perSender; i++ {
				// Every sender walks every node: two senders share each
				// node, so frames of one node arrive over several flows
				// (and thus sockets) concurrently.
				n := uint32((i + sdr) % nodes)
				seqs[n]++
				frame.Node = n
				frame.Seq = seqs[n]
				var err error
				buf, err = wire.AppendFrame(buf[:0], &frame)
				if err != nil {
					t.Errorf("AppendFrame: %v", err)
					return
				}
				if _, err := conn.Write(buf); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
			}
		}(sdr)
	}
	wg.Wait()

	// Quiesce: every sent datagram is either counted or dropped by the
	// kernel; wait for the frame counter to go stable.
	var last uint64
	stable := 0
	for stable < 25 {
		cur := f.Server.Stats().Frames
		if cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
		time.Sleep(4 * time.Millisecond)
	}
	close(stopScrape)
	<-scraped
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d concurrent replays of one node across read loops", v)
	}
	st := f.Server.Stats()
	if st.Accepted == 0 {
		t.Fatal("no frames accepted")
	}
	if st.DecodeErrors != 0 || st.UnknownNode != 0 {
		t.Fatalf("decode/unknown errors under stress: %+v", st)
	}
	t.Logf("affinity stress: %+v", st)
}

// TestListenConnsEphemeralGroup asserts that a ":0" multi-listen binds
// every socket to the same resolved port, not N fresh ephemeral ports.
func TestListenConnsEphemeralGroup(t *testing.T) {
	if !reusePortSupported {
		t.Skip("no SO_REUSEPORT on this platform")
	}
	conns, err := listenConns("127.0.0.1:0", 3)
	if err != nil {
		t.Fatalf("listenConns: %v", err)
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	if len(conns) != 3 {
		t.Fatalf("bound %d sockets, want 3", len(conns))
	}
	want := conns[0].LocalAddr().String()
	for i, c := range conns[1:] {
		if got := c.LocalAddr().String(); got != want {
			t.Fatalf("socket %d bound %s, want %s", i+1, got, want)
		}
	}
}
