// Package experiments regenerates every data-bearing artefact of the
// paper's evaluation (see DESIGN.md §4): the Fig. 5 aliveness-error trace,
// the Fig. 6 unit-collaboration trace, the arrival-rate and standalone
// program-flow cases mentioned in §4.5, the look-up-table vs
// embedded-signature overhead comparison (T1), the detection
// coverage/latency campaign (T2) and the fault-treatment escalation table
// (T3). Each experiment returns structured results consumed by
// cmd/experiments (CSV + ASCII plots) and asserted by the test suite.
package experiments

import (
	"fmt"
	"time"

	"swwd/internal/core"
	"swwd/internal/fmf"
	"swwd/internal/hil"
	"swwd/internal/inject"
	"swwd/internal/sim"
	"swwd/internal/trace"
)

// Tick is the x-axis unit of all traces: the paper's plots use "a scalar
// of 10ms".
const Tick = 10 * sim.Millisecond

// TraceResult is the common shape of the figure experiments.
type TraceResult struct {
	// Recorder holds the sampled series for CSV/plot output.
	Recorder *trace.Recorder
	// Results are the final cumulative detections.
	Results core.Results
	// InjectedAt is when the error injection began.
	InjectedAt sim.Time
	// FirstDetection is when the first relevant detection occurred
	// (zero when none).
	FirstDetection sim.Time
	// TaskFaultyAt is when the TSI unit declared the task faulty (zero
	// when it never did).
	TaskFaultyAt sim.Time
}

// taskFaultyAt finds the faulty transition in the recorded TaskState
// series.
func taskFaultyAt(rec *trace.Recorder) sim.Time {
	s := rec.Series("TaskState")
	if s == nil {
		return 0
	}
	for _, p := range s.Points {
		if p.Value == 1 {
			return p.Time
		}
	}
	return 0
}

// Fig5 reproduces E1: the test with an injected aliveness error. The
// SafeSpeed dispatch alarm is slowed via the time-scalar injection at 2s;
// the AM Result series rises after the first expired hypothesis window.
func Fig5() (*TraceResult, error) {
	v, err := hil.New(hil.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}
	const injectAt = 2 * sim.Second
	injection := &inject.AlarmRateScale{OS: v.OS, Alarm: v.SafeSpeedAlarm, Scale: 8}
	v.Injector.ApplyAt(injectAt, injection)
	if err := v.Run(6 * time.Second); err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}
	return &TraceResult{
		Recorder:       v.Recorder,
		Results:        v.Watchdog.Results(),
		InjectedAt:     injectAt,
		FirstDetection: v.FirstDetection(core.AlivenessError),
		TaskFaultyAt:   taskFaultyAt(v.Recorder),
	}, nil
}

// Fig6 reproduces E2: collaboration of the fault detection units. An
// invalid execution branch is injected into SafeSpeed; program-flow errors
// accumulate to the threshold of 3, the task state flips, and the
// correlated aliveness symptom is reported exactly once.
func Fig6() (*TraceResult, error) {
	v, err := hil.New(hil.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig6: %w", err)
	}
	const injectAt = 2 * sim.Second
	branch := &inject.FlagFault{
		Label: "invalid-branch",
		Set:   func() { v.SafeSpeed.FaultBranch = 1 },
		Unset: func() { v.SafeSpeed.FaultBranch = 0 },
	}
	v.Injector.ApplyAt(injectAt, branch)
	if err := v.Run(5 * time.Second); err != nil {
		return nil, fmt.Errorf("experiments: fig6: %w", err)
	}
	return &TraceResult{
		Recorder:       v.Recorder,
		Results:        v.Watchdog.Results(),
		InjectedAt:     injectAt,
		FirstDetection: v.FirstDetection(core.ProgramFlowError),
		TaskFaultyAt:   taskFaultyAt(v.Recorder),
	}, nil
}

// ArrivalRate reproduces E3: the "similar test with arrival rate error".
// The SafeSpeed task is excessively dispatched by a parallel 5ms burst.
func ArrivalRate() (*TraceResult, error) {
	v, err := hil.New(hil.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: arrival: %w", err)
	}
	const injectAt = 2 * sim.Second
	injection := &inject.BurstDispatch{OS: v.OS, Task: v.SafeSpeed.Task, Period: 5 * time.Millisecond}
	v.Injector.ApplyAt(injectAt, injection)
	if err := v.Run(5 * time.Second); err != nil {
		return nil, fmt.Errorf("experiments: arrival: %w", err)
	}
	return &TraceResult{
		Recorder:       v.Recorder,
		Results:        v.Watchdog.Results(),
		InjectedAt:     injectAt,
		FirstDetection: v.FirstDetection(core.ArrivalRateError),
		TaskFaultyAt:   taskFaultyAt(v.Recorder),
	}, nil
}

// PFC reproduces E4: the standalone control-flow error test — the same
// invalid branch as Fig. 6 but examined for the PFC unit alone (the
// correlation ablation disabled so raw symptom counts are visible too).
func PFC() (*TraceResult, error) {
	v, err := hil.New(hil.Options{DisableCorrelation: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: pfc: %w", err)
	}
	const injectAt = 2 * sim.Second
	branch := &inject.FlagFault{
		Label: "invalid-branch",
		Set:   func() { v.SafeSpeed.FaultBranch = 1 },
	}
	v.Injector.ApplyAt(injectAt, branch)
	if err := v.Run(5 * time.Second); err != nil {
		return nil, fmt.Errorf("experiments: pfc: %w", err)
	}
	return &TraceResult{
		Recorder:       v.Recorder,
		Results:        v.Watchdog.Results(),
		InjectedAt:     injectAt,
		FirstDetection: v.FirstDetection(core.ProgramFlowError),
		TaskFaultyAt:   taskFaultyAt(v.Recorder),
	}, nil
}

// TreatmentRow is one row of the T3 escalation table.
type TreatmentRow struct {
	Scenario  string
	Actions   []fmf.Action
	Recovered bool
	Resets    int
}

// Treatment reproduces T3: the §3.5 decision rules. Three scenarios: a
// faulty app under the restart policy, under the terminate policy, and an
// ECU-level fault with the software reset allowed.
func Treatment() ([]TreatmentRow, error) {
	type scenario struct {
		name  string
		opts  hil.Options
		setup func(*hil.Validator) error
	}
	scenarios := []scenario{
		{
			name: "app-faulty/restart-policy",
			opts: hil.Options{EnableTreatment: true},
		},
		{
			name: "app-faulty/terminate-policy",
			opts: hil.Options{EnableTreatment: true},
			setup: func(v *hil.Validator) error {
				return v.FMF.SetPolicy(v.SafeSpeed.App, fmf.TerminateApp)
			},
		},
		{
			name: "ecu-faulty/software-reset",
			opts: hil.Options{EnableTreatment: true, AllowECUReset: true, ECUFaultyAppCount: 1},
		},
	}
	var rows []TreatmentRow
	for _, sc := range scenarios {
		v, err := hil.New(sc.opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: treatment %s: %w", sc.name, err)
		}
		if sc.setup != nil {
			if err := sc.setup(v); err != nil {
				return nil, fmt.Errorf("experiments: treatment %s: %w", sc.name, err)
			}
		}
		branch := &inject.FlagFault{
			Label: "invalid-branch",
			Set:   func() { v.SafeSpeed.FaultBranch = 1 },
			Unset: func() { v.SafeSpeed.FaultBranch = 0 },
		}
		if err := v.Injector.Window(2*sim.Second, 4*sim.Second, branch); err != nil {
			return nil, fmt.Errorf("experiments: treatment %s: %w", sc.name, err)
		}
		if err := v.Run(10 * time.Second); err != nil {
			return nil, fmt.Errorf("experiments: treatment %s: %w", sc.name, err)
		}
		row := TreatmentRow{Scenario: sc.name, Resets: v.OS.ResetCount()}
		for _, tr := range v.FMF.Treatments() {
			row.Actions = append(row.Actions, tr.Action)
		}
		st, err := v.Watchdog.TaskState(v.SafeSpeed.Task)
		if err != nil {
			return nil, fmt.Errorf("experiments: treatment %s: %w", sc.name, err)
		}
		row.Recovered = st == core.StateOK
		rows = append(rows, row)
	}
	return rows, nil
}
