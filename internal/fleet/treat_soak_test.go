// Treatment soak: a small fleet with a dependency graph beats through
// real UDP sockets while the fault-treatment control plane supervises
// it. One reporter is killed mid-run; the test asserts the full
// prober/weeder story end to end:
//
//   - the healthy phase produces zero treatment actions;
//   - the kill produces exactly one quarantine plus one scale-down per
//     declared dependent, and the affected reporters receive their state
//     over the wire v3 command channel;
//   - restarting the reporter (a new session epoch) expedites recovery:
//     one resume, every dependent scaled back up, no quarantines left;
//   - the independent node is never touched by any action;
//   - replaying the recorded event trace through the pure engine
//     reproduces the live action sequence exactly.
package fleet_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swwd"
	"swwd/internal/fleet"
	"swwd/internal/treat"
	"swwd/swwdclient"
)

func TestIngestTreatSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		nodes        = 4
		runnables    = 4
		interval     = 50 * time.Millisecond
		cycle        = 5 * time.Millisecond
		graceFrames  = 3
		beatEvery    = 20 * time.Millisecond
		healthyPhase = 1 * time.Second
		waitBound    = 10 * time.Second
	)
	// Nodes 1 and 2 consume node 0's service; node 3 is independent and
	// must sail through the whole incident untouched.
	edges := []treat.Edge{{Node: 1, DependsOn: 0}, {Node: 2, DependsOn: 0}}
	policy := treat.Policy{RecoveryFrames: 3}

	fl, err := fleet.Build(fleet.Config{
		Nodes:            nodes,
		RunnablesPerNode: runnables,
		Interval:         interval,
		CyclePeriod:      cycle,
		GraceFrames:      graceFrames,
		CommandEpoch:     1234,
		Treatment:        &fleet.TreatmentConfig{Edges: edges, Policy: policy},
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

	// Each reporter records the treatment commands it receives; beats
	// continue regardless (beats into deactivated runnables are simply
	// ignored, which is the point of scale-down).
	var quarCmds, resumeCmds [nodes]atomic.Uint64
	dial := func(n int) *swwdclient.Client {
		c, err := swwdclient.Dial(addr.String(),
			swwdclient.WithNode(uint32(n)),
			swwdclient.WithRunnables(runnables),
			swwdclient.WithInterval(interval),
			swwdclient.WithOnCommand(func(cmd swwdclient.Command) {
				switch cmd.Op {
				case swwdclient.OpQuarantine:
					quarCmds[n].Add(1)
				case swwdclient.OpResume:
					resumeCmds[n].Add(1)
				}
			}))
		if err != nil {
			t.Fatalf("Dial node %d: %v", n, err)
		}
		return c
	}

	stopBeats := make(chan struct{})
	var wg sync.WaitGroup
	var clientMu sync.Mutex
	clients := make([]*swwdclient.Client, nodes)
	for n := 0; n < nodes; n++ {
		clients[n] = dial(n)
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			tick := time.NewTicker(beatEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopBeats:
					return
				case <-tick.C:
					clientMu.Lock()
					c := clients[n]
					clientMu.Unlock()
					if c == nil {
						continue
					}
					for r := 0; r < runnables; r++ {
						c.Beat(r)
					}
				}
			}
		}(n)
	}
	closeAll := func() {
		clientMu.Lock()
		defer clientMu.Unlock()
		for i, c := range clients {
			if c != nil {
				_ = c.Close()
				clients[i] = nil
			}
		}
	}
	defer closeAll()

	deadline := time.Now().Add(waitBound)
	for fl.Server.Stats().Accepted < nodes {
		if time.Now().After(deadline) {
			t.Fatalf("fleet warm-up timed out: stats %+v", fl.Server.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	svc, err := swwd.NewService(fl.Watchdog, cycle)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = svc.Stop() }()

	// Healthy phase: the control plane must stay completely silent.
	time.Sleep(healthyPhase)
	if st := fl.Treat.Stats(); st.Quarantines != 0 || st.ScaleDowns != 0 ||
		st.Resumes != 0 || st.ScaleUps != 0 || st.NotifyQuarantine != 0 {
		t.Fatalf("treatment actions on a healthy fleet: %+v", st)
	}

	// waitTreat polls the controller until cond holds.
	waitTreat := func(what string, cond func(treat.Stats) bool) treat.Stats {
		deadline := time.Now().Add(waitBound)
		for {
			st := fl.Treat.Stats()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Kill node 0. Its link goes silent, the fault is treated: exactly
	// one quarantine, and both dependents scaled down.
	clientMu.Lock()
	_ = clients[0].Close()
	clients[0] = nil
	clientMu.Unlock()
	st := waitTreat("quarantine + scale-down", func(st treat.Stats) bool {
		return st.Quarantines == 1 && st.ScaleDowns == 2
	})
	if st.ActiveQuarantines != 1 || st.ActiveScaledDown != 2 {
		t.Fatalf("gauges after kill: %+v", st)
	}

	// The live dependents learn their scale-down over the command
	// channel (node 0's own quarantine command lands on a dead socket).
	waitTreat("dependent quarantine commands", func(treat.Stats) bool {
		return quarCmds[1].Load() >= 1 && quarCmds[2].Load() >= 1
	})

	// Restart the reporter: a fresh session epoch, then a steady streak
	// of frames. Recovery must be expedited — one resume, node 0 and
	// both dependents scaled back up, nothing left quarantined.
	clientMu.Lock()
	clients[0] = dial(0)
	clientMu.Unlock()
	st = waitTreat("resume + scale-up", func(st treat.Stats) bool {
		return st.Resumes == 1 && st.ScaleUps == 3
	})
	if st.Quarantines != 1 {
		t.Fatalf("recovery re-quarantined: %+v", st)
	}
	if st.ActiveQuarantines != 0 || st.ActiveScaledDown != 0 {
		t.Fatalf("gauges after recovery: %+v", st)
	}
	waitTreat("resume command on node 0", func(treat.Stats) bool {
		return resumeCmds[0].Load() >= 1
	})

	// Let the recovered fleet soak a moment: no further treatment, no
	// new faults anywhere.
	time.Sleep(healthyPhase)
	end := fl.Treat.Stats()
	if end.Quarantines != 1 || end.Resumes != 1 || end.ScaleDowns != 2 || end.ScaleUps != 3 {
		t.Fatalf("treatment did not stay settled after recovery: %+v", end)
	}
	if end.EventsDropped != 0 {
		t.Fatalf("treatment events dropped: %+v", end)
	}

	// The independent node was never touched by any action, and its
	// supervision never faulted.
	for _, a := range fl.Treat.Actions() {
		if a.Node == 3 || a.Cause == 3 {
			t.Fatalf("independent node 3 touched by treatment: %+v", a)
		}
	}
	for n := 1; n < nodes; n++ {
		rids := append([]swwd.RunnableID{fl.Specs[n].Link}, fl.Specs[n].Runnables...)
		for _, rid := range rids {
			a, ar, pf, err := fl.Watchdog.RunnableErrors(rid)
			if err != nil {
				t.Fatalf("RunnableErrors(%d): %v", rid, err)
			}
			if a != 0 || ar != 0 || pf != 0 {
				t.Fatalf("node %d runnable %d faulted during treatment: aliveness=%d arrival=%d flow=%d",
					n, rid, a, ar, pf)
			}
		}
	}

	// The dependents acked their quarantine commands and the restarted
	// reporter acked its resume: the channel round-tripped.
	wireDeadline := time.Now().Add(waitBound)
	for fl.Server.Stats().CommandsAcked < 2 {
		if time.Now().After(wireDeadline) {
			t.Fatalf("commands never acked: %+v", fl.Server.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ws := fl.Server.Stats()
	if ws.NodeRestarts != 1 {
		t.Fatalf("NodeRestarts = %d, want 1 (the node 0 restart)", ws.NodeRestarts)
	}
	if ws.CommandsSent == 0 || ws.DecodeErrors != 0 || ws.UnknownNode != 0 {
		t.Fatalf("wire stats: %+v", ws)
	}

	// Determinism: replaying the recorded trace through the pure engine
	// reproduces the live action sequence exactly.
	graph, err := treat.NewGraph([]uint32{0, 1, 2, 3}, edges)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	live := fl.Treat.Actions()
	replayed := treat.Replay(graph, policy, fl.Treat.Trace())
	if len(replayed) != len(live) {
		t.Fatalf("replay produced %d actions, live %d", len(replayed), len(live))
	}
	for i := range live {
		if replayed[i] != live[i] {
			t.Fatalf("replay diverged at action %d: live %+v, replayed %+v", i, live[i], replayed[i])
		}
	}
}
