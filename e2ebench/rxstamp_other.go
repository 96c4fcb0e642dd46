//go:build !(linux && (amd64 || arm64))

package main

import (
	"net"
	"time"
)

// enableRxStamps is a no-op where SO_TIMESTAMPNS is not wired up;
// command arrival is then the time the reader got the datagram.
func enableRxStamps(*net.UDPConn) error { return nil }

func rxStamp([]byte, time.Time) (int64, bool) { return 0, false }
