// Calibration soak: a small fleet beats through real UDP sockets while
// the online calibration loop observes it, shadow-evaluates tightened
// hypotheses and rolls them out in stages over the command channel.
//
// TestIngestCalibSoak asserts the happy path end to end: the fleet
// adopts a tightened hypothesis via shadow → canary → fleet with zero
// supervision gap (no fault is ever raised), every reporter receives
// and acks its CmdSetHypothesis batch, and the suggestion that drove
// the rollout is reproduced bit for bit from the recorded baseline.
//
// TestIngestCalibRollback asserts the safety net: a canary whose
// workload shifts under the tightened hypothesis trips its fault
// counters, the round is rolled back automatically — prior hypotheses
// restored locally and on the canary reporter — and the rest of the
// fleet never sees the bad hypothesis.
package fleet_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swwd"
	"swwd/internal/calib"
	"swwd/internal/fleet"
	"swwd/swwdclient"
)

// calibFleet assembles a loopback fleet with the calibration loop on,
// dials the reporters and starts the cycle service.
type calibFleet struct {
	fleet   *fleet.Fleet
	svc     *swwd.Service
	clients []*swwdclient.Client
	hypCmds []atomic.Uint64 // OpSetHypothesis deliveries per node

	stopBeats chan struct{}
	wg        sync.WaitGroup
	beatN     atomic.Int64 // beats per tick per runnable (load knob)
}

func startCalibFleet(t *testing.T, nodes, runnables int, interval, cycle, beatEvery time.Duration, ccfg fleet.CalibrationConfig) *calibFleet {
	t.Helper()
	cf := &calibFleet{stopBeats: make(chan struct{}), hypCmds: make([]atomic.Uint64, nodes)}
	cf.beatN.Store(1)
	fl, err := fleet.Build(fleet.Config{
		Nodes:            nodes,
		RunnablesPerNode: runnables,
		Interval:         interval,
		CyclePeriod:      cycle,
		GraceFrames:      4,
		CommandEpoch:     77,
		Calibration:      &ccfg,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cf.fleet = fl
	t.Cleanup(fl.Calib.Close)
	addr, err := fl.Server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = fl.Server.Close() })

	cf.clients = make([]*swwdclient.Client, nodes)
	for n := 0; n < nodes; n++ {
		n := n
		c, err := swwdclient.Dial(addr.String(),
			swwdclient.WithNode(uint32(n)),
			swwdclient.WithRunnables(runnables),
			swwdclient.WithInterval(interval),
			swwdclient.WithOnCommand(func(cmd swwdclient.Command) {
				if cmd.Op == swwdclient.OpSetHypothesis {
					cf.hypCmds[n].Add(1)
				}
			}))
		if err != nil {
			t.Fatalf("Dial node %d: %v", n, err)
		}
		cf.clients[n] = c
		t.Cleanup(func() { _ = c.Close() })
		cf.wg.Add(1)
		go func() {
			defer cf.wg.Done()
			tick := time.NewTicker(beatEvery)
			defer tick.Stop()
			for {
				select {
				case <-cf.stopBeats:
					return
				case <-tick.C:
					k := int(cf.beatN.Load())
					for r := 0; r < runnables; r++ {
						for i := 0; i < k; i++ {
							c.Beat(r)
						}
					}
				}
			}
		}()
	}
	t.Cleanup(func() { close(cf.stopBeats); cf.wg.Wait() })

	deadline := time.Now().Add(10 * time.Second)
	for fl.Server.Stats().Accepted < uint64(nodes) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet warm-up timed out: %+v", fl.Server.Stats())
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
	cf.svc = svc
	t.Cleanup(func() { _ = svc.Stop() })
	return cf
}

// waitCalib polls the calibration status until cond holds.
func waitCalib(t *testing.T, f *fleet.Fleet, what string, every time.Duration, cond func(fleet.CalibStatus) bool) fleet.CalibStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := f.Calib.Status()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, st)
		}
		time.Sleep(every)
	}
}

func TestIngestCalibSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		nodes     = 3
		runnables = 2
		interval  = 50 * time.Millisecond
		cycle     = 5 * time.Millisecond
		beatEvery = 20 * time.Millisecond
	)
	cf := startCalibFleet(t, nodes, runnables, interval, cycle, beatEvery, fleet.CalibrationConfig{
		Params: calib.Params{
			WindowCycles:   20, // 100ms estimator/shadow window
			Margin:         0.5,
			PromoteAfter:   2,
			CanaryFraction: 0.34, // 1 of 3 nodes
		},
	})
	fl := cf.fleet

	initial, err := fl.Watchdog.Hypothesis(fl.Specs[0].Runnables[0])
	if err != nil {
		t.Fatalf("Hypothesis: %v", err)
	}

	// One full round: shadow clean streak, canary hold, fleet-wide acks.
	st := waitCalib(t, fl, "first completed rollout", 10*time.Millisecond,
		func(st fleet.CalibStatus) bool { return st.Rounds >= 1 })
	if st.Rollbacks != 0 {
		t.Fatalf("rollout rolled back on a steady fleet: %+v", st)
	}

	// Zero supervision gap: not a single fault was raised anywhere —
	// not during shadow evaluation, not at the hypothesis switch.
	if r := fl.Watchdog.Results(); r != (swwd.Results{}) {
		t.Fatalf("faults during calibration rollout: %+v", r)
	}

	// The whole fleet runs the tightened hypothesis: estimator-window
	// periods, arrival monitoring now on, and no runnable left behind.
	for n := range fl.Specs {
		for _, rid := range fl.Specs[n].Runnables {
			h, err := fl.Watchdog.Hypothesis(rid)
			if err != nil {
				t.Fatalf("Hypothesis(%d): %v", rid, err)
			}
			if h == initial {
				t.Fatalf("node %d runnable %d kept the initial hypothesis %+v", n, rid, h)
			}
			if h.AlivenessCycles != 20 || h.ArrivalCycles != 20 || h.MinHeartbeats < 1 || h.MaxArrivals < h.MinHeartbeats {
				t.Fatalf("adopted hypothesis malformed: %+v", h)
			}
		}
	}

	// Every reporter received its CmdSetHypothesis batch and acked it.
	for n := 0; n < nodes; n++ {
		if cf.hypCmds[n].Load() == 0 {
			t.Fatalf("node %d never received a hypothesis command", n)
		}
	}
	ws := fl.Server.Stats()
	if ws.CommandsSent == 0 || ws.CommandsAcked == 0 {
		t.Fatalf("command channel silent: %+v", ws)
	}

	// Replay: the recorded baseline reproduces the suggestion bit for
	// bit — twice over, and rendered identically.
	base := fl.Calib.LastBaseline()
	if base.WindowCycles != 20 || len(base.Runnables) == 0 {
		t.Fatalf("recorded baseline empty: %+v", base)
	}
	p1 := calib.Suggest(base, fl.Calib.Policy())
	p2 := calib.Suggest(base, fl.Calib.Policy())
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("replayed suggestions differ structurally")
	}
	if fmt.Sprintf("%#v", p1) != fmt.Sprintf("%#v", p2) {
		t.Fatal("replayed suggestions render differently")
	}
	if len(p1) == 0 {
		t.Fatal("recorded baseline yields no proposals on replay")
	}
}

func TestIngestCalibRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		nodes     = 2
		runnables = 1
		interval  = 50 * time.Millisecond
		cycle     = 5 * time.Millisecond
		beatEvery = 20 * time.Millisecond
	)
	cf := startCalibFleet(t, nodes, runnables, interval, cycle, beatEvery, fleet.CalibrationConfig{
		Params: calib.Params{
			WindowCycles:   20,
			Margin:         0.25,
			PromoteAfter:   3,
			CanaryFraction: 0.5, // node 0 canaries, node 1 follows
		},
	})
	fl := cf.fleet
	canaryRid := fl.Specs[0].Runnables[0]
	fleetRid := fl.Specs[1].Runnables[0]
	prior, err := fl.Watchdog.Hypothesis(canaryRid)
	if err != nil {
		t.Fatalf("Hypothesis: %v", err)
	}

	// Wait for the canary stage, then shift the workload: burst beats
	// exceed the tightened arrival ceiling. The prior hypothesis has no
	// arrival monitoring, so only the canary's candidate can fault.
	waitCalib(t, fl, "canary stage", 2*time.Millisecond,
		func(st fleet.CalibStatus) bool { return st.Stage == calib.StageCanary })
	cf.beatN.Store(8)

	st := waitCalib(t, fl, "automatic rollback", 2*time.Millisecond,
		func(st fleet.CalibStatus) bool { return st.Rollbacks >= 1 })

	// The prior hypothesis is restored on the canary.
	h, err := fl.Watchdog.Hypothesis(canaryRid)
	if err != nil {
		t.Fatalf("Hypothesis after rollback: %v", err)
	}
	if h != prior {
		t.Fatalf("canary hypothesis after rollback = %+v, want prior %+v", h, prior)
	}

	// The canary absorbed the regression; the rest of the fleet never
	// saw the bad hypothesis — its counters are spotless and (at the
	// moment of rollback) it still ran a hypothesis without arrival
	// monitoring, so the burst load cannot have touched it.
	if _, ar, _, err := fl.Watchdog.RunnableErrors(canaryRid); err != nil || ar == 0 {
		t.Fatalf("canary arrival errors = %d (err %v), want > 0", ar, err)
	}
	if a, ar, pf, err := fl.Watchdog.RunnableErrors(fleetRid); err != nil || a != 0 || ar != 0 || pf != 0 {
		t.Fatalf("non-canary runnable faulted: aliveness=%d arrival=%d flow=%d err=%v", a, ar, pf, err)
	}
	if st.Rounds != 0 && st.Rollbacks == 0 {
		t.Fatalf("rollback not recorded: %+v", st)
	}
}
