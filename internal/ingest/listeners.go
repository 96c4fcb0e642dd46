// Multi-socket listener front end: N UDP sockets bound to one address
// via SO_REUSEPORT, each drained by its own batched read loop that
// decodes and replays every datagram it receives, with no hand-off to
// another goroutine.
//
// The kernel spreads inbound flows across the sockets of a reuseport
// group by a hash of the 4-tuple, so one reporter's datagrams land on
// one socket in the steady state and each read loop touches a disjoint
// slice of the fleet. Correctness never depends on that affinity: the
// per-node stripe lock (node % Shards) serializes every node's frames
// regardless of the receiving socket, and any cross-socket reordering —
// a reporter redialing onto a new flow hash mid-session — surfaces
// through the existing sequence discipline as duplicate drops or gaps,
// exactly like network-level reordering.
package ingest

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"unsafe"

	"swwd/internal/wire"
)

// listenerState is one listener socket and its receive counters. The
// atomic counters have a single writer (the listener's read loop) and
// are read by ListenerStats; the kernel drop fields are guarded by the
// server's dropMu.
type listenerState struct {
	conn     *net.UDPConn
	packets  atomic.Uint64
	batches  atomic.Uint64
	maxBatch atomic.Uint64
	// dropsSeen is the socket's last sampled kernel drop counter (a
	// wrapping uint32); drops accumulates the deltas.
	dropsSeen uint32
	drops     uint64
}

// stripe is one of the Shards locks serializing ingestFrame per node
// (node % Shards), padded to its own cache line so read loops taking
// different stripes do not share one.
type stripe struct {
	mu sync.Mutex
	_  [64 - unsafe.Sizeof(sync.Mutex{})]byte
}

// reusePortEnabled gates the SO_REUSEPORT bind path; it starts at the
// platform capability (reuseport_*.go) and exists as a variable so
// tests can force the single-socket fallback.
var reusePortEnabled = reusePortSupported

// listenConns binds addr n times via SO_REUSEPORT, or once without it.
// The boolean result reports whether the reuseport group was used. The
// fallback triggers when n <= 1, when the platform lacks SO_REUSEPORT,
// or when the kernel refuses it on the first socket; a bind failure
// after the first socket accepted SO_REUSEPORT is a real error.
func listenConns(addr string, n int) ([]*net.UDPConn, error) {
	if n <= 1 || !reusePortEnabled {
		c, err := listenPlain(addr)
		if err != nil {
			return nil, err
		}
		return []*net.UDPConn{c}, nil
	}
	lc := net.ListenConfig{Control: reusePortControl}
	ctx := context.Background()
	pc, err := lc.ListenPacket(ctx, "udp", addr)
	if err != nil {
		// The kernel (or the Control hook) refused SO_REUSEPORT:
		// degrade to the single-socket path rather than fail startup.
		c, perr := listenPlain(addr)
		if perr != nil {
			return nil, perr
		}
		return []*net.UDPConn{c}, nil
	}
	conns := []*net.UDPConn{pc.(*net.UDPConn)}
	// Re-bind the *resolved* address so ":0" ephemeral-port listens
	// join the first socket's group instead of picking fresh ports.
	bound := conns[0].LocalAddr().String()
	for i := 1; i < n; i++ {
		pc, err := lc.ListenPacket(ctx, "udp", bound)
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, err
		}
		conns = append(conns, pc.(*net.UDPConn))
	}
	return conns, nil
}

// listenPlain is the single-socket bind shared by the n<=1 and the
// no-SO_REUSEPORT paths.
func listenPlain(addr string) (*net.UDPConn, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.ListenUDP("udp", udpAddr)
}

// readLoop drains one listener socket and runs every datagram to
// completion on this goroutine. The loop owns its BatchSize receive
// buffers (the recvmmsg slots) and its decode frame, all allocated once
// here, so the kernel writes each datagram into the buffer the frame is
// decoded from and the steady state allocates nothing. There is no
// queue behind the loop: a burst the loop cannot keep up with waits in
// the socket's kernel receive buffer, and what overflows it is counted
// as DroppedPackets (see kernelDrops).
func (s *Server) readLoop(ls *listenerState) {
	defer s.readerWG.Done()
	r := newBatchReader(ls.conn, s.cfg.BatchSize)
	batch := r.Batch()
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, s.cfg.MaxPacket)
	}
	sizes := make([]int, batch)
	srcs := make([]netip.AddrPort, batch)
	var frame wire.Frame
	for {
		m, err := r.ReadBatch(bufs, sizes, srcs)
		if err != nil {
			if isClosed(err) {
				return
			}
			s.readErrs.Add(1)
			continue
		}
		ls.batches.Add(1)
		ls.packets.Add(uint64(m))
		if um := uint64(m); um > ls.maxBatch.Load() {
			ls.maxBatch.Store(um) // single writer per listener
		}
		for i := 0; i < m; i++ {
			s.replay(bufs[i][:sizes[i]], &frame, srcs[i])
		}
	}
}

// replay peeks the node ID and ingests the datagram under the node's
// stripe lock, so a node is never inside ingestFrame on two read loops
// at once. One reporter's flow hashes to one socket, so in the steady
// state the lock is uncontended.
func (s *Server) replay(buf []byte, f *wire.Frame, src netip.AddrPort) {
	node, err := wire.PeekNode(buf)
	if err != nil {
		s.frames.Add(1)
		s.bytes.Add(uint64(len(buf)))
		s.decodeErrs.Add(1)
		return
	}
	st := &s.stripes[node%uint32(len(s.stripes))]
	st.mu.Lock()
	s.ingestFrame(buf, f, src)
	st.mu.Unlock()
}

// kernelDrops samples every listener socket's kernel receive-queue drop
// counter and returns the total dropped since Listen. The kernel
// counter is a wrapping uint32, so each sample adds the wrap-safe delta
// to a per-listener total: the result is monotonic, and it keeps its
// value once a socket is closed. Platforms without the counter report
// 0 (sockdrops_*.go).
func (s *Server) kernelDrops() uint64 {
	listeners := s.snapshotListeners()
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	var total uint64
	for _, ls := range listeners {
		if cur, ok := socketDrops(ls.conn); ok {
			ls.drops += uint64(cur - ls.dropsSeen)
			ls.dropsSeen = cur
		}
		total += ls.drops
	}
	return total
}
