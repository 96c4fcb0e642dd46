package experiments

import (
	"fmt"
	"time"

	"swwd/internal/core"
	"swwd/internal/hil"
	"swwd/internal/inject"
	"swwd/internal/sim"
)

// CoverageRow summarises the detection behaviour for one fault class and
// intensity across the injection-time sweep (T2, the paper's outlook:
// "further analysis of fault detection coverage").
type CoverageRow struct {
	FaultClass string
	Intensity  string
	// Runs and Detected give the coverage ratio.
	Runs     int
	Detected int
	// MeanLatency and MaxLatency are over the detected runs.
	MeanLatency time.Duration
	MaxLatency  time.Duration
	// ExpectDetect records the ground truth: sub-threshold intensities
	// are *supposed* to pass unnoticed under the fault hypothesis.
	ExpectDetect bool
}

// Coverage runs the fault-injection campaign: four fault classes × three
// intensities × a sweep of injection instants. The mild intensities stay
// within the fault hypothesis and must not be detected (they measure the
// false-positive side); moderate and severe must be caught.
func Coverage() ([]CoverageRow, error) {
	injectTimes := []sim.Time{1 * sim.Second, 1500 * sim.Millisecond, 2 * sim.Second, 2500 * sim.Millisecond, 3 * sim.Second}

	type variant struct {
		class, intensity string
		expect           bool
		kind             core.ErrorKind
		opts             hil.Options
		build            func(v *hil.Validator) inject.Injection
	}
	variants := []variant{
		{"dispatch-slowdown", "mild", false, core.AlivenessError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			// 1.2x slower still yields >= 4 heartbeats per 5-period window.
			return &inject.AlarmRateScale{OS: v.OS, Alarm: v.SafeSpeedAlarm, Scale: 1.2}
		}},
		{"dispatch-slowdown", "moderate", true, core.AlivenessError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			return &inject.AlarmRateScale{OS: v.OS, Alarm: v.SafeSpeedAlarm, Scale: 3}
		}},
		{"dispatch-slowdown", "severe", true, core.AlivenessError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			return &inject.AlarmRateScale{OS: v.OS, Alarm: v.SafeSpeedAlarm, Scale: 10}
		}},
		{"excessive-dispatch", "mild", false, core.ArrivalRateError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			// One extra activation per window fits MaxArrivals=7.
			return &inject.BurstDispatch{OS: v.OS, Task: v.SafeSpeed.Task, Period: 40 * time.Millisecond}
		}},
		{"excessive-dispatch", "moderate", true, core.ArrivalRateError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			return &inject.BurstDispatch{OS: v.OS, Task: v.SafeSpeed.Task, Period: 10 * time.Millisecond}
		}},
		{"excessive-dispatch", "severe", true, core.ArrivalRateError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			return &inject.BurstDispatch{OS: v.OS, Task: v.SafeSpeed.Task, Period: 2 * time.Millisecond}
		}},
		{"invalid-branch", "severe", true, core.ProgramFlowError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			return &inject.FlagFault{
				Label: "invalid-branch",
				Set:   func() { v.SafeSpeed.FaultBranch = 1 },
				Unset: func() { v.SafeSpeed.FaultBranch = 0 },
			}
		}},
		{"double-branch", "moderate", true, core.ArrivalRateError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			// Executing the middle runnable twice doubles its arrivals.
			return &inject.FlagFault{
				Label: "double-branch",
				Set:   func() { v.SafeSpeed.FaultBranch = 2 },
				Unset: func() { v.SafeSpeed.FaultBranch = 0 },
			}
		}},
		{"exec-stretch-hang", "mild", false, core.AlivenessError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			return &inject.ExecStretch{OS: v.OS, Runnable: v.SafeSpeed.SAFECCProcess, Scale: 2}
		}},
		{"exec-stretch-hang", "severe", true, core.AlivenessError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			return &inject.ExecStretch{OS: v.OS, Runnable: v.SafeSpeed.SAFECCProcess, Scale: 200}
		}},
		{"loop-counter-zero", "severe", true, core.AlivenessError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			// §4.5 "manipulation of loop counters": LaneDetect's filter
			// loop runs zero times, starving its heartbeats.
			return &inject.FlagFault{
				Label: "loop-counter-0",
				Set:   func() { v.SafeLane.FilterIterations = 0 },
				Unset: func() { v.SafeLane.FilterIterations = 1 },
			}
		}},
		{"loop-counter-high", "moderate", true, core.ArrivalRateError, hil.Options{}, func(v *hil.Validator) inject.Injection {
			return &inject.FlagFault{
				Label: "loop-counter-5",
				Set:   func() { v.SafeLane.FilterIterations = 5 },
				Unset: func() { v.SafeLane.FilterIterations = 1 },
			}
		}},
		{"resource-block", "mild", false, core.AlivenessError, hil.Options{WithDiagnostics: true},
			func(v *hil.Validator) inject.Injection {
				// 2ms holds every 100ms barely delay the sensor read.
				return &inject.ExecStretch{OS: v.OS, Runnable: v.DiagRunnable, Scale: 10}
			}},
		{"resource-block", "severe", true, core.AlivenessError, hil.Options{WithDiagnostics: true},
			func(v *hil.Validator) inject.Injection {
				// 80ms holds every 100ms block GetSensorValue (category 1).
				return &inject.ExecStretch{OS: v.OS, Runnable: v.DiagRunnable, Scale: 400}
			}},
	}

	var rows []CoverageRow
	for _, vr := range variants {
		row := CoverageRow{
			FaultClass:   vr.class,
			Intensity:    vr.intensity,
			ExpectDetect: vr.expect,
		}
		var totalLatency time.Duration
		for _, at := range injectTimes {
			v, err := hil.New(vr.opts)
			if err != nil {
				return nil, fmt.Errorf("experiments: coverage: %w", err)
			}
			v.Injector.ApplyAt(at, vr.build(v))
			if err := v.Run(at.Duration() + 5*time.Second); err != nil {
				return nil, fmt.Errorf("experiments: coverage: %w", err)
			}
			row.Runs++
			first := v.FirstDetection(vr.kind)
			if first > 0 {
				row.Detected++
				lat := first.Sub(at)
				totalLatency += lat
				if lat > row.MaxLatency {
					row.MaxLatency = lat
				}
			}
		}
		if row.Detected > 0 {
			row.MeanLatency = totalLatency / time.Duration(row.Detected)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
