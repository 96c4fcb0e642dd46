package hil

import (
	"encoding/binary"
	"fmt"
	"time"

	"swwd/internal/can"
	"swwd/internal/core"
	"swwd/internal/fmf"
	"swwd/internal/osek"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// CANRemoteFaultID carries Software Watchdog fault reports from remote
// ECUs to the central node — the service deployed "in distributed
// in-vehicle embedded systems" (§5 conclusions).
const CANRemoteFaultID can.FrameID = 0x300

// RemoteFault is a decoded remote fault report as received centrally.
type RemoteFault struct {
	Time     sim.Time
	Kind     core.ErrorKind
	Runnable uint16
	Cycle    uint32
}

// RemoteECU is a second ECU on the shared CAN bus: its own mapping model,
// OSEK instance, Software Watchdog and Fault Management Framework. Every
// locally detected fault is also serialised onto CAN for the central
// node.
type RemoteECU struct {
	Model    *runnable.Model
	OS       *osek.OS
	Watchdog *core.Watchdog
	FMF      *fmf.Framework

	App     runnable.AppID
	Task    runnable.TaskID
	Sense   runnable.ID
	Process runnable.ID

	// FaultBranch is the remote injection seam (Branch* constants from
	// package apps apply by convention: 1 skips Process).
	FaultBranch int

	node     *can.Node
	reported uint64
}

// canFaultSink tees watchdog reports to the local FMF and onto the bus.
type canFaultSink struct {
	ecu   *RemoteECU
	local core.Sink
}

var _ core.Sink = (*canFaultSink)(nil)

func (s *canFaultSink) Fault(r core.Report) {
	s.local.Fault(r)
	payload := make([]byte, 7)
	payload[0] = byte(r.Kind)
	binary.BigEndian.PutUint16(payload[1:3], uint16(r.Runnable))
	binary.BigEndian.PutUint32(payload[3:7], uint32(r.Cycle))
	if err := s.ecu.node.Send(can.Frame{ID: CANRemoteFaultID, Data: payload}); err == nil {
		s.ecu.reported++
	}
}

func (s *canFaultSink) StateChanged(e core.StateEvent) { s.local.StateChanged(e) }

// newRemoteECU assembles the remote node on the validator's kernel and
// CAN bus.
func newRemoteECU(v *Validator) (*RemoteECU, error) {
	if v.Net == nil {
		return nil, fmt.Errorf("hil: remote ECU requires WithNetworks")
	}
	r := &RemoteECU{Model: runnable.NewModel()}
	var err error
	if r.App, err = r.Model.AddApp("BodyControl", runnable.SafetyRelevant); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	if r.Task, err = r.Model.AddTask(r.App, "BodyControlTask", 5); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	if r.Sense, err = r.Model.AddRunnable(r.Task, "RemoteSense", 100*time.Microsecond, runnable.SafetyRelevant); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	if r.Process, err = r.Model.AddRunnable(r.Task, "RemoteProcess", 200*time.Microsecond, runnable.SafetyRelevant); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	if err := r.Model.Freeze(); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}

	if r.OS, err = osek.New(osek.Config{Model: r.Model, Kernel: v.Kernel}); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	r.node = v.Net.CANBus.AttachNode("remote-ecu")

	if r.FMF, err = fmf.New(fmf.Config{Model: r.Model, Clock: v.Kernel}); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	if r.Watchdog, err = core.New(core.Config{
		Model: r.Model,
		Clock: v.Kernel,
		Sink:  &canFaultSink{ecu: r, local: r.FMF},
	}); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	hyp := core.Hypothesis{AlivenessCycles: 5, MinHeartbeats: 3, ArrivalCycles: 5, MaxArrivals: 7}
	var b core.Batch
	for _, rid := range []runnable.ID{r.Sense, r.Process} {
		b.SetHypothesis(rid, hyp)
		b.Activate(rid)
	}
	if err := r.Watchdog.Apply(&b); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	if err := r.Watchdog.AddFlowSequence(r.Sense, r.Process); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	monitors := make([]*core.Monitor, r.Model.NumRunnables())
	for rid := range monitors {
		m, err := r.Watchdog.Register(runnable.ID(rid))
		if err != nil {
			return nil, fmt.Errorf("hil: remote: %w", err)
		}
		monitors[rid] = m
	}
	r.OS.AddObserver(osek.ObserverFuncs{OnRunnableEnd: func(rid runnable.ID, _ runnable.TaskID) {
		monitors[rid].Beat()
	}})

	process := osek.Exec{Runnable: r.Process}
	if err := r.OS.DefineTask(r.Task, osek.TaskAttrs{MaxActivations: 3}, osek.Program{
		osek.Exec{Runnable: r.Sense},
		osek.Select{
			Choose: func() int { return r.FaultBranch },
			Arms:   []osek.Program{{process}, {}, {process, process}},
		},
	}); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	if _, err := r.OS.CreateAlarm("BodyControlAlarm",
		osek.ActivateAlarm(r.Task), true, 10*time.Millisecond, 10*time.Millisecond); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}
	if _, err := r.OS.CreateAlarm("RemoteWatchdogCycle",
		osek.CallbackAlarm(r.Watchdog.Cycle), true, 10*time.Millisecond, 10*time.Millisecond); err != nil {
		return nil, fmt.Errorf("hil: remote: %w", err)
	}

	// Central node collects the remote reports.
	v.Net.centralCAN.Subscribe(func(id can.FrameID) bool { return id == CANRemoteFaultID }, func(f can.Frame) {
		if len(f.Data) < 7 {
			return
		}
		v.Net.remoteFaults = append(v.Net.remoteFaults, RemoteFault{
			Time:     v.Kernel.Now(),
			Kind:     core.ErrorKind(f.Data[0]),
			Runnable: binary.BigEndian.Uint16(f.Data[1:3]),
			Cycle:    binary.BigEndian.Uint32(f.Data[3:7]),
		})
	})
	return r, nil
}

// start launches the remote OS.
func (r *RemoteECU) start() error {
	if err := r.OS.Start(); err != nil {
		return fmt.Errorf("hil: remote: %w", err)
	}
	return nil
}

// Reported counts fault frames successfully queued onto the bus.
func (r *RemoteECU) Reported() uint64 { return r.reported }

// RemoteFaults reports the remote fault reports received by the central
// node, oldest first.
func (n *Network) RemoteFaults() []RemoteFault {
	out := make([]RemoteFault, len(n.remoteFaults))
	copy(out, n.remoteFaults)
	return out
}
