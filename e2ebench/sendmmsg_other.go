//go:build !(linux && (amd64 || arm64))

package main

import "net"

// batchWriter falls back to one write per datagram where sendmmsg(2)
// is not wired up.
type batchWriter struct{ conn *net.UDPConn }

func newBatchWriter(conn *net.UDPConn, _ int) (*batchWriter, error) {
	return &batchWriter{conn: conn}, nil
}

func (w *batchWriter) write(bufs [][]byte) (int, error) {
	for i, b := range bufs {
		if _, err := w.conn.Write(b); err != nil {
			return i, err
		}
	}
	return len(bufs), nil
}
