//go:build linux && (amd64 || arm64)

package ingest

import (
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// per-message received length recvmmsg(2) writes back. The trailing
// padding keeps the 8-byte stride the kernel expects on 64-bit targets
// (sizeof == 64; asserted in batch_linux_test.go).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// mmsgReader receives datagram batches with one recvmmsg(2) syscall per
// wakeup. The header/iovec/sockaddr vectors are allocated once; only
// the iovec base pointers are re-armed per call, pointing at the read
// loop's receive buffers.
type mmsgReader struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny
}

// newMmsgReader returns nil (falling back to singleReader) only when
// the connection cannot expose its descriptor.
func newMmsgReader(conn *net.UDPConn, batch int) datagramReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	r := &mmsgReader{
		rc:    rc,
		hdrs:  make([]mmsghdr, batch),
		iovs:  make([]syscall.Iovec, batch),
		names: make([]syscall.RawSockaddrAny, batch),
	}
	for i := range r.hdrs {
		r.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
	}
	return r
}

func (r *mmsgReader) Batch() int { return len(r.hdrs) }

func (r *mmsgReader) ReadBatch(bufs [][]byte, sizes []int, srcs []netip.AddrPort) (int, error) {
	n := len(bufs)
	if n > len(r.hdrs) {
		n = len(r.hdrs)
	}
	for i := 0; i < n; i++ {
		r.iovs[i].Base = &bufs[i][0]
		r.iovs[i].Len = uint64(len(bufs[i]))
		// The kernel writes the actual sockaddr length back; re-arm the
		// capacity every call.
		r.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(r.names[i]))
		r.hdrs[i].len = 0
	}
	var got uintptr
	var errno syscall.Errno
	err := r.rc.Read(func(fd uintptr) bool {
		for {
			got, _, errno = syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(n), 0, 0, 0)
			if errno != syscall.EINTR {
				break
			}
		}
		// EAGAIN parks the goroutine on the netpoller until the socket
		// is readable again; anything else completes the call.
		return errno != syscall.EAGAIN
	})
	// The kernel wrote through raw pointers; keep the buffers (and the
	// reader owning the header vectors) alive across the syscall.
	runtime.KeepAlive(bufs)
	runtime.KeepAlive(r)
	if err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, errno
	}
	m := int(got)
	for i := 0; i < m; i++ {
		sizes[i] = int(r.hdrs[i].len)
		srcs[i] = sockaddrToAddrPort(&r.names[i])
	}
	return m, nil
}

// sockaddrToAddrPort converts a raw kernel sockaddr to a netip.AddrPort
// without allocating. The port field of the raw structs is in network
// byte order.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrAny) netip.AddrPort {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), ntohs(sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), ntohs(sa.Port))
	}
	return netip.AddrPort{}
}

// ntohs swaps a network-byte-order uint16 read on a little-endian
// target (the only targets this file builds for).
func ntohs(v uint16) uint16 { return v<<8 | v>>8 }
