package fleet

// The treatment wiring end to end on one loopback server: reporter
// sockets stand in for the nodes, so commands arrive where the frames
// came from.

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"swwd/internal/ingest"
	"swwd/internal/sim"
	"swwd/internal/treat"
	"swwd/internal/wire"
)

// reporterSocket opens a loopback UDP socket standing in for one
// reporter: commands sent to its frames' source address arrive here.
func reporterSocket(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// recvCommand reads and decodes one command frame from a reporter
// socket within wait; nil if none arrived.
func recvCommand(t *testing.T, conn *net.UDPConn, wait time.Duration) *wire.Command {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(wait))
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		return nil
	}
	var cmd wire.Command
	if err := wire.DecodeCommand(buf[:n], &cmd); err != nil {
		t.Fatalf("DecodeCommand: %v", err)
	}
	return &cmd
}

// sendFrame sends one heartbeat frame from a reporter socket to the
// server and waits until the server has accepted it.
func sendFrame(t *testing.T, srv *ingest.Server, to netip.AddrPort, from *net.UDPConn, f *wire.Frame) {
	t.Helper()
	f.IntervalMs = 100
	buf, err := wire.AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	before := srv.Stats().Accepted
	if _, err := from.WriteToUDPAddrPort(buf, to); err != nil {
		t.Fatalf("send frame: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Accepted == before; {
		if time.Now().After(deadline) {
			t.Fatalf("frame %+v never accepted: %+v", f, srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReporterRestartMidQuarantineRenotified: a reporter that restarts
// while its node is quarantined starts a fresh session knowing nothing
// of its quarantine; the session-epoch advance on its first frame must
// make the control plane resend the quarantine state.
func TestReporterRestartMidQuarantineRenotified(t *testing.T) {
	fl, err := Build(Config{
		Nodes:            2,
		RunnablesPerNode: 1,
		Interval:         100 * time.Millisecond,
		CyclePeriod:      10 * time.Millisecond,
		GraceFrames:      3,
		Clock:            sim.NewManualClock(),
		CommandEpoch:     99,
		Treatment: &TreatmentConfig{
			Edges: []treat.Edge{{Node: 1, DependsOn: 0}},
			// A huge recovery grace keeps node 0 quarantined for the
			// whole test, whatever frames trickle in.
			Policy: treat.Policy{RecoveryFrames: 1 << 20},
		},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer fl.Treat.Close()
	addr, err := fl.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer fl.Server.Close()
	srv, srvAddr := fl.Server, addr.(*net.UDPAddr).AddrPort()
	rep0, rep1 := reporterSocket(t), reporterSocket(t)

	// Both nodes report once so the server knows their return addresses.
	sendFrame(t, srv, srvAddr, rep0, &wire.Frame{Node: 0, Epoch: 10, Seq: 1})
	sendFrame(t, srv, srvAddr, rep1, &wire.Frame{Node: 1, Epoch: 10, Seq: 1})

	// A link fault on node 0 quarantines it and scales down node 1;
	// both learn their state over the command channel.
	fl.Treat.OnLinkFault(0)
	if cmd := recvCommand(t, rep0, 5*time.Second); cmd == nil || cmd.Epoch != 99 || cmd.Seq != 1 || cmd.Recs[0].Op != wire.CmdQuarantine {
		t.Fatalf("node 0 quarantine command = %+v", cmd)
	}
	if cmd := recvCommand(t, rep1, 5*time.Second); cmd == nil || cmd.Seq != 1 || cmd.Recs[0].Op != wire.CmdQuarantine {
		t.Fatalf("node 1 scale-down command = %+v", cmd)
	}

	// The reporter restarts mid-quarantine: its next frame advances the
	// session epoch, and the controller must resend the quarantine. The
	// controller applies its quarantine bookkeeping asynchronously, so
	// the restart frame is retried with ever-newer epochs until the
	// interest set has caught up; each dropped frame never reaches the
	// engine, so exactly one notification is counted in the end.
	var notify *wire.Command
	var sessionEpoch uint64
	for attempt := uint64(0); attempt < 100 && notify == nil; attempt++ {
		sessionEpoch = 11 + attempt
		sendFrame(t, srv, srvAddr, rep0, &wire.Frame{Node: 0, Epoch: sessionEpoch, Seq: 1})
		notify = recvCommand(t, rep0, 100*time.Millisecond)
	}
	if notify == nil {
		t.Fatal("restarted reporter never re-received its quarantine state")
	}
	if notify.Recs[0].Op != wire.CmdQuarantine || notify.Recs[0].Runnable != wire.CmdNodeTarget {
		t.Fatalf("renotification = %+v, want node-target quarantine", notify)
	}
	if notify.Seq != 2 {
		t.Fatalf("renotification seq = %d, want 2 (sequences are per node)", notify.Seq)
	}
	if st := fl.Treat.Stats(); st.NotifyQuarantine != 1 || st.Quarantines != 1 {
		t.Fatalf("treatment stats = %+v, want exactly one quarantine and one renotification", st)
	}

	// A plain same-session frame (no restart) must not renotify.
	sendFrame(t, srv, srvAddr, rep0, &wire.Frame{Node: 0, Epoch: sessionEpoch, Seq: 2})
	if cmd := recvCommand(t, rep0, 200*time.Millisecond); cmd != nil {
		t.Fatalf("non-restart frame triggered command %+v", cmd)
	}
}
