//go:build linux && (amd64 || arm64)

package ingest

import (
	"net"
	"syscall"
	"unsafe"
)

// soMeminfo is SO_MEMINFO: getsockopt(SOL_SOCKET) fills an array of
// uint32 socket memory counters, of which skMeminfoDrops (index 8,
// SK_MEMINFO_DROPS) counts datagrams the kernel discarded because the
// receive queue was full. The syscall package defines neither.
const (
	soMeminfo      = 55
	skMeminfoDrops = 8
)

// socketDrops reads conn's kernel receive-queue drop counter. ok is
// false when the socket is closed or the kernel predates the counter.
func socketDrops(conn *net.UDPConn) (drops uint32, ok bool) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, false
	}
	var info [skMeminfoDrops + 1]uint32
	size := uint32(unsafe.Sizeof(info))
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.SOL_SOCKET, soMeminfo,
			uintptr(unsafe.Pointer(&info[0])), uintptr(unsafe.Pointer(&size)), 0)
	}); err != nil || errno != 0 || size < uint32(unsafe.Sizeof(info)) {
		return 0, false
	}
	return info[skMeminfoDrops], true
}
