//go:build linux && (amd64 || arm64)

package main

import (
	"encoding/binary"
	"net"
	"syscall"
	"time"
)

// enableRxStamps asks the kernel to stamp every datagram conn receives
// with its arrival time (SO_TIMESTAMPNS).
func enableRxStamps(conn *net.UDPConn) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return err
	}
	return serr
}

// rxStamp returns when the datagram with control message oob arrived
// at the socket, on now()'s clock, given that it was read at t. The
// kernel stamps wall-clock time, so the stamp is turned into how long
// the datagram waited before t and taken off t's monotonic reading.
func rxStamp(oob []byte, t time.Time) (int64, bool) {
	msgs, err := syscall.ParseSocketControlMessage(oob)
	if err != nil {
		return 0, false
	}
	for _, m := range msgs {
		if m.Header.Level != syscall.SOL_SOCKET || m.Header.Type != syscall.SCM_TIMESTAMPNS || len(m.Data) < 16 {
			continue
		}
		sec := int64(binary.NativeEndian.Uint64(m.Data[0:8]))
		nsec := int64(binary.NativeEndian.Uint64(m.Data[8:16]))
		waited := t.UnixNano() - (sec*1e9 + nsec)
		if waited < 0 || waited > int64(time.Second) {
			return 0, false // the wall clock was stepped meanwhile
		}
		return int64(t.Sub(base)) - waited, true
	}
	return 0, false
}
