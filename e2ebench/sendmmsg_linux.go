//go:build linux && (amd64 || arm64)

package main

import (
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr (64 bytes on 64-bit
// targets), as internal/ingest does for recvmmsg.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// batchWriter sends a batch of datagrams on a connected UDP socket with
// one sendmmsg(2) call (more only when the kernel takes part of it).
type batchWriter struct {
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
}

func newBatchWriter(conn *net.UDPConn, batch int) (*batchWriter, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	w := &batchWriter{rc: rc, hdrs: make([]mmsghdr, batch), iovs: make([]syscall.Iovec, batch)}
	for i := range w.hdrs {
		w.hdrs[i].hdr.Iov = &w.iovs[i]
		w.hdrs[i].hdr.Iovlen = 1
	}
	return w, nil
}

// write sends bufs (at most the batch size) and reports how many went
// out before an error.
func (w *batchWriter) write(bufs [][]byte) (int, error) {
	n := len(bufs)
	for i := 0; i < n; i++ {
		w.iovs[i].Base = &bufs[i][0]
		w.iovs[i].Len = uint64(len(bufs[i]))
		w.hdrs[i].len = 0
	}
	sent := 0
	for sent < n {
		var got uintptr
		var errno syscall.Errno
		err := w.rc.Write(func(fd uintptr) bool {
			for {
				got, _, errno = syscall.Syscall6(sysSendmmsg, fd,
					uintptr(unsafe.Pointer(&w.hdrs[sent])), uintptr(n-sent), 0, 0, 0)
				if errno != syscall.EINTR {
					break
				}
			}
			// EAGAIN parks the goroutine until the socket is writable.
			return errno != syscall.EAGAIN
		})
		runtime.KeepAlive(bufs)
		runtime.KeepAlive(w)
		if err != nil {
			return sent, err
		}
		if errno != 0 {
			return sent, errno
		}
		sent += int(got)
	}
	return sent, nil
}
