package hil

import (
	"testing"
	"time"

	"swwd/internal/core"
	"swwd/internal/sim"
)

func TestRemoteECURequiresNetworks(t *testing.T) {
	if _, err := New(Options{WithRemoteECU: true}); err == nil {
		t.Fatal("remote ECU without networks accepted")
	}
}

func TestRemoteECUHealthyRunQuiet(t *testing.T) {
	v := newValidator(t, Options{WithNetworks: true, WithRemoteECU: true})
	if err := v.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.Remote == nil {
		t.Fatal("remote ECU not built")
	}
	if res := v.Remote.Watchdog.Results(); res != (core.Results{}) {
		t.Fatalf("healthy remote run produced detections: %+v", res)
	}
	if v.Remote.OS.ExecCount(v.Remote.Sense) == 0 {
		t.Fatal("remote task never ran")
	}
	if len(v.Net.RemoteFaults()) != 0 {
		t.Fatalf("remote faults received on a healthy run: %+v", v.Net.RemoteFaults())
	}
	// Both ECUs share one kernel but are independent: the central
	// watchdog is also quiet.
	if res := v.Watchdog.Results(); res != (core.Results{}) {
		t.Fatalf("central detections on healthy run: %+v", res)
	}
}

func TestRemoteFaultReportsCrossTheBus(t *testing.T) {
	v := newValidator(t, Options{WithNetworks: true, WithRemoteECU: true})
	// Invalid branch on the REMOTE ECU at t=3s.
	v.Kernel.At(3*sim.Second, func() { v.Remote.FaultBranch = 1 })
	if err := v.Run(6 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The remote watchdog detected locally...
	res := v.Remote.Watchdog.Results()
	if res.ProgramFlow == 0 {
		t.Fatalf("remote watchdog missed the fault: %+v", res)
	}
	// ...journaled it...
	if len(v.Remote.Watchdog.Journal()) == 0 {
		t.Fatal("remote journal empty")
	}
	// ...and the reports crossed the CAN bus to the central node.
	if v.Remote.Reported() == 0 {
		t.Fatal("no fault frames sent")
	}
	remote := v.Net.RemoteFaults()
	if len(remote) == 0 {
		t.Fatal("central node received no remote fault reports")
	}
	sawFlow := false
	for _, rf := range remote {
		if rf.Time < 3*sim.Second {
			t.Fatalf("remote fault before injection: %+v", rf)
		}
		if rf.Kind == core.ProgramFlowError {
			sawFlow = true
		}
	}
	if !sawFlow {
		t.Fatalf("no flow-error reports among %d remote faults", len(remote))
	}
	// The central ECU's own monitoring is unaffected.
	if cres := v.Watchdog.Results(); cres != (core.Results{}) {
		t.Fatalf("central watchdog polluted by remote fault: %+v", cres)
	}
}

func TestRemoteAndCentralFaultsIndependent(t *testing.T) {
	v := newValidator(t, Options{WithNetworks: true, WithRemoteECU: true})
	// Faults on BOTH ECUs.
	v.Kernel.At(2*sim.Second, func() {
		v.SafeSpeed.FaultBranch = 1
		v.Remote.FaultBranch = 1
	})
	if err := v.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.Watchdog.Results().ProgramFlow == 0 {
		t.Fatal("central fault missed")
	}
	if v.Remote.Watchdog.Results().ProgramFlow == 0 {
		t.Fatal("remote fault missed")
	}
	if len(v.Net.RemoteFaults()) == 0 {
		t.Fatal("remote reports missing")
	}
}
