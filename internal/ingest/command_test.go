package ingest

// White-box tests of the wire v3 command channel: delivery accounting
// on the server side (sent / acked / dropped / stale) and the
// session-epoch discipline protecting the ack path.

import (
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"swwd/internal/wire"
)

// reporterSocket opens a loopback UDP socket standing in for one
// reporter: commands sent to its frames' source address arrive here.
func reporterSocket(t *testing.T) (*net.UDPConn, netip.AddrPort) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	ap := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	return conn, ap
}

// recvCommand reads and decodes one command frame from a reporter
// socket.
func recvCommand(t *testing.T, conn *net.UDPConn) *wire.Command {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("reading command: %v", err)
	}
	var cmd wire.Command
	if err := wire.DecodeCommand(buf[:n], &cmd); err != nil {
		t.Fatalf("DecodeCommand: %v", err)
	}
	return &cmd
}

// injectFrom pushes one heartbeat frame through the ingest path with an
// explicit source address, the way the read loop sees it.
func injectFrom(t *testing.T, s *Server, f *wire.Frame, src netip.AddrPort) {
	t.Helper()
	var dec wire.Frame
	s.ingestFrame(encode(t, f), &dec, src)
}

func TestCommandSendAndAckAccounting(t *testing.T) {
	fleet := newFixture(t, 1, 1, WithCommandEpoch(77))
	if _, err := fleet.Server.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer fleet.Server.Close()
	srv := fleet.Server
	rep, repAddr := reporterSocket(t)

	// No frame has arrived yet: the node has no return address.
	if _, err := srv.SendCommand(0, wire.CmdRec{Op: wire.CmdQuarantine, Runnable: wire.CmdNodeTarget}); !errors.Is(err, ErrNoAddress) {
		t.Fatalf("SendCommand before any frame = %v, want ErrNoAddress", err)
	}
	if st := srv.Stats(); st.CommandsDropped != 1 {
		t.Fatalf("CommandsDropped = %d, want 1", st.CommandsDropped)
	}

	// A frame teaches the server the return address; the command goes
	// out carrying the pinned epoch and seq 1.
	injectFrom(t, srv, &wire.Frame{Node: 0, Epoch: 5, Seq: 1}, repAddr)
	seq, err := srv.SendCommand(0, wire.CmdRec{Op: wire.CmdQuarantine, Runnable: wire.CmdNodeTarget})
	if err != nil || seq != 1 {
		t.Fatalf("SendCommand = %d, %v, want seq 1", seq, err)
	}
	cmd := recvCommand(t, rep)
	if cmd.Node != 0 || cmd.Epoch != 77 || cmd.Seq != 1 ||
		len(cmd.Recs) != 1 || cmd.Recs[0].Op != wire.CmdQuarantine || cmd.Recs[0].Runnable != wire.CmdNodeTarget {
		t.Fatalf("received command = %+v", cmd)
	}

	// The ack pair on the next heartbeat confirms delivery.
	injectFrom(t, srv, &wire.Frame{Node: 0, Epoch: 5, Seq: 2, CmdAckEpoch: 77, CmdAckSeq: 1}, repAddr)
	if st := srv.Stats(); st.CommandsAcked != 1 || st.CommandStaleAcks != 0 {
		t.Fatalf("after valid ack: %+v", st)
	}

	// An ack carrying a superseded command epoch is stale: counted,
	// never credited.
	seq2, err := srv.SendCommand(0, wire.CmdRec{Op: wire.CmdResume, Runnable: wire.CmdNodeTarget})
	if err != nil || seq2 != 2 {
		t.Fatalf("second SendCommand = %d, %v", seq2, err)
	}
	recvCommand(t, rep)
	injectFrom(t, srv, &wire.Frame{Node: 0, Epoch: 5, Seq: 3, CmdAckEpoch: 76, CmdAckSeq: 2}, repAddr)
	if st := srv.Stats(); st.CommandsAcked != 1 || st.CommandStaleAcks != 1 {
		t.Fatalf("after stale-command-epoch ack: %+v", st)
	}

	// A whole frame from a superseded *session* epoch is dropped before
	// ack processing: a dead reporter incarnation cannot confirm
	// commands addressed to its successor.
	injectFrom(t, srv, &wire.Frame{Node: 0, Epoch: 4, Seq: 9, CmdAckEpoch: 77, CmdAckSeq: 2}, repAddr)
	st := srv.Stats()
	if st.StaleEpochDrops != 1 {
		t.Fatalf("StaleEpochDrops = %d, want 1", st.StaleEpochDrops)
	}
	if st.CommandsAcked != 1 {
		t.Fatalf("stale-session frame credited an ack: %+v", st)
	}

	// The live session acks seq 2; an absurd ack beyond anything issued
	// is clamped to the issued sequence and credits nothing further.
	injectFrom(t, srv, &wire.Frame{Node: 0, Epoch: 5, Seq: 4, CmdAckEpoch: 77, CmdAckSeq: 2}, repAddr)
	injectFrom(t, srv, &wire.Frame{Node: 0, Epoch: 5, Seq: 5, CmdAckEpoch: 77, CmdAckSeq: 99}, repAddr)
	if st := srv.Stats(); st.CommandsAcked != 2 {
		t.Fatalf("CommandsAcked = %d, want 2 (clamped to issued)", st.CommandsAcked)
	}
	if st := srv.Stats(); st.CommandsSent != 2 {
		t.Fatalf("CommandsSent = %d, want 2", st.CommandsSent)
	}
}

func TestCommandSendWithoutListen(t *testing.T) {
	fleet := newFixture(t, 1, 1, WithCommandEpoch(7))
	if _, err := fleet.Server.SendCommand(0, wire.CmdRec{Op: wire.CmdResume, Runnable: wire.CmdNodeTarget}); !errors.Is(err, ErrNotListening) {
		t.Fatalf("SendCommand without Listen = %v, want ErrNotListening", err)
	}
	if _, err := fleet.Server.SendCommand(9, wire.CmdRec{Op: wire.CmdResume}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SendCommand to unknown node = %v, want ErrUnknownNode", err)
	}
}
