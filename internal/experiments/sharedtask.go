package experiments

import (
	"fmt"
	"time"

	"swwd/internal/core"
	"swwd/internal/fmf"
	"swwd/internal/hil"
	"swwd/internal/osek"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// SharedTaskResult captures E7: two applications whose runnables are
// mapped onto one task (§1's motivating configuration). Detection is
// runnable-precise — the flow report names the exact broken transition
// and the heartbeat unit attributes the starved runnable to its owning
// application — but task state and app-granular treatment cascade across
// the sharing applications, which is exactly why the paper argues
// runnables "should be treated differently in fault detection and error
// processing".
type SharedTaskResult struct {
	// FlowErrors counts PFC detections; the first one pinpoints the
	// broken transition.
	FlowErrors       uint64
	FirstPredecessor string // the runnable executed before the break (A_read)
	FirstRunnable    string // the runnable that executed out of order (B_poll)
	// AlivenessOnA counts heartbeat-unit errors attributed to the skipped
	// runnable's owner, application A.
	AlivenessOnA uint64
	// AEverFaulty / BEverFaulty: the shared task's corruption reaches
	// both applications' derived states.
	AEverFaulty bool
	BEverFaulty bool
	// PrivateBRestarted: app-granular treatment restarted B's private
	// task although the root cause was A's runnable (collateral).
	PrivateBRestarted bool
}

// SharedTask runs E7 on a purpose-built two-application ECU (no vehicle
// plant needed): CruiseControl (A) and LaneKeeper (B) share SharedIOTask;
// B additionally owns PrivateBTask. A's shared runnable violates the flow
// table from t=1s; the FMF is configured with the restart policy.
func SharedTask() (*SharedTaskResult, error) {
	kernel := sim.NewKernel()
	m := runnable.NewModel()
	appA, err := m.AddApp("CruiseControl", runnable.SafetyCritical)
	if err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	appB, err := m.AddApp("LaneKeeper", runnable.SafetyRelevant)
	if err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	shared, err := m.AddTask(appA, "SharedIOTask", 5)
	if err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	ra1, _ := m.AddRunnable(shared, "A_read", 100*time.Microsecond, runnable.SafetyCritical)
	ra2, _ := m.AddRunnable(shared, "A_write", 100*time.Microsecond, runnable.SafetyCritical)
	rb, err := m.AddSharedRunnable(shared, appB, "B_poll", 100*time.Microsecond, runnable.SafetyRelevant)
	if err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	privB, err := m.AddTask(appB, "PrivateBTask", 3)
	if err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	rbPriv, _ := m.AddRunnable(privB, "B_compute", 200*time.Microsecond, runnable.SafetyRelevant)
	if err := m.Freeze(); err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}

	os, err := osek.New(osek.Config{Model: m, Kernel: kernel})
	if err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	framework, err := fmf.New(fmf.Config{
		Model: m,
		Clock: kernel,
		Exec:  hil.OSEKExecutor{OS: os},
		Defer: func(f func()) { kernel.After(0, f) },
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	// The flow threshold is raised so the (slower, window-based) heartbeat
	// unit gets to observe the starved A_write before treatment clears the
	// counters — with the default 3, the restart lands within 30ms and the
	// 50ms aliveness window never completes.
	w, err := core.New(core.Config{
		Model: m, Clock: kernel, Sink: framework,
		Thresholds: core.Thresholds{Aliveness: 3, ArrivalRate: 3, ProgramFlow: 20},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	framework.SetMonitor(w)
	if err := w.AddFlowSequence(ra1, ra2, rb); err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	// Heartbeat monitoring on the shared runnables: the skipped A_write
	// starves, and that error is attributed to its owner (app A).
	hyp := core.Hypothesis{AlivenessCycles: 5, MinHeartbeats: 3, ArrivalCycles: 5, MaxArrivals: 7}
	var b core.Batch
	for _, rid := range []runnable.ID{ra1, ra2, rb} {
		b.SetHypothesis(rid, hyp)
		b.Activate(rid)
	}
	if err := w.Apply(&b); err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	os.AddObserver(osek.ObserverFuncs{OnRunnableEnd: func(rid runnable.ID, _ runnable.TaskID) {
		w.Heartbeat(rid)
	}})

	// Shared task: A_read → (A_write unless faulted) → B_poll.
	fault := false
	if err := os.DefineTask(shared, osek.TaskAttrs{MaxActivations: 3}, osek.Program{
		osek.Exec{Runnable: ra1},
		osek.Select{
			Choose: func() int {
				if fault {
					return -1
				}
				return 0
			},
			Arms: []osek.Program{{osek.Exec{Runnable: ra2}}},
		},
		osek.Exec{Runnable: rb},
	}); err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	if err := os.DefineTask(privB, osek.TaskAttrs{MaxActivations: 3}, osek.Program{
		osek.Exec{Runnable: rbPriv},
	}); err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	for _, a := range []struct {
		name string
		tid  runnable.TaskID
	}{{"sharedAlarm", shared}, {"privBAlarm", privB}} {
		if _, err := os.CreateAlarm(a.name, osek.ActivateAlarm(a.tid), true,
			10*time.Millisecond, 10*time.Millisecond); err != nil {
			return nil, fmt.Errorf("experiments: sharedtask: %w", err)
		}
	}
	if _, err := os.CreateAlarm("wdCycle", osek.CallbackAlarm(w.Cycle), true,
		10*time.Millisecond, 10*time.Millisecond); err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}
	if err := os.Start(); err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}

	res := &SharedTaskResult{}
	framework.Subscribe(func(n fmf.Notification) {
		if f := n.Report; f != nil {
			switch f.Kind {
			case core.ProgramFlowError:
				res.FlowErrors++
				if res.FirstRunnable == "" {
					if r, err := m.Runnable(f.Runnable); err == nil {
						res.FirstRunnable = r.Name
					}
					if r, err := m.Runnable(f.Predecessor); err == nil {
						res.FirstPredecessor = r.Name
					}
				}
			case core.AlivenessError:
				if f.App == appA {
					res.AlivenessOnA++
				}
			}
		}
		if n.State == nil || n.State.Scope != core.AppScope || n.State.State != core.StateFaulty {
			return
		}
		switch n.State.App {
		case appA:
			res.AEverFaulty = true
		case appB:
			res.BEverFaulty = true
		}
	})

	kernel.At(1*sim.Second, func() { fault = true })
	if err := kernel.Run(2 * sim.Second); err != nil {
		return nil, fmt.Errorf("experiments: sharedtask: %w", err)
	}

	for _, tr := range framework.Treatments() {
		if tr.App == appB && tr.Action == fmf.RestartAppAction {
			res.PrivateBRestarted = true
		}
	}
	return res, nil
}
