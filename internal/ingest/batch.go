// Batched datagram receives. Each listener read loop receives through a
// datagramReader, which comes in two flavours:
//
//   - mmsgReader (batch_linux.go): one recvmmsg(2) syscall returns up
//     to BatchSize datagrams, each written by the kernel directly into
//     a distinct receive buffer of the read loop. This is the
//     manual-syscall variant of golang.org/x/net's
//     ipv4.PacketConn.ReadBatch; it is built on
//     the stdlib syscall package because this module takes no external
//     dependencies, and it integrates with the runtime netpoller via
//     syscall.RawConn.Read, so a loop waiting for traffic parks like
//     any other blocked read instead of spinning. Gated to linux on
//     64-bit targets where the syscall struct layouts are fixed.
//
//   - singleReader (below): the portable fallback, one
//     ReadFromUDPAddrPort per call. Also used when BatchSize is 1.
//
// The receive-slot contract: the caller passes per-slot buffers, and
// ReadBatch fills sizes[i] and srcs[i] for the first m slots. Buffers
// are caller-owned throughout — the reader never retains them past the
// call — which is what lets the read loop decode each filled buffer in
// place, without a copy.
package ingest

import (
	"net"
	"net/netip"
)

// datagramReader is one listener's receive strategy.
type datagramReader interface {
	// Batch is the slot capacity: the most datagrams one ReadBatch call
	// can return, and the number of buffers the read loop keeps armed.
	Batch() int
	// ReadBatch blocks until at least one datagram (or a socket error),
	// fills up to min(len(bufs), Batch) slots and returns the count.
	ReadBatch(bufs [][]byte, sizes []int, srcs []netip.AddrPort) (int, error)
}

// newBatchReader picks the receive strategy for conn: the platform
// batch reader when batching is enabled and available, the portable
// single-datagram reader otherwise.
func newBatchReader(conn *net.UDPConn, batch int) datagramReader {
	if batch > 1 {
		if r := newMmsgReader(conn, batch); r != nil {
			return r
		}
	}
	return &singleReader{conn: conn}
}

// singleReader reads one datagram per call.
type singleReader struct {
	conn *net.UDPConn
}

func (r *singleReader) Batch() int { return 1 }

func (r *singleReader) ReadBatch(bufs [][]byte, sizes []int, srcs []netip.AddrPort) (int, error) {
	n, src, err := r.conn.ReadFromUDPAddrPort(bufs[0])
	if err != nil {
		return 0, err
	}
	sizes[0] = n
	srcs[0] = src
	return 1, nil
}
