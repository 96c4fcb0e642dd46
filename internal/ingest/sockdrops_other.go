//go:build !(linux && (amd64 || arm64))

package ingest

import "net"

// socketDrops has no implementation off linux/amd64 and linux/arm64:
// kernel receive-queue drops go uncounted there, and
// Stats.DroppedPackets stays 0.
func socketDrops(conn *net.UDPConn) (uint32, bool) { return 0, false }
