// SafeLane scenario: lane departure warning under program-flow fault
// injection.
//
// The vehicle drifts out of its lane during a steering pulse and SafeLane
// raises a warning — the application works. Then an invalid execution
// branch is injected into the SafeLane task (the LaneDetect runnable is
// skipped): functionally the warning logic goes silent, and the Software
// Watchdog's program flow checking unit reports the broken
// GetLanePosition→LaneDetect→WarnActuate sequence, declaring the task
// faulty at the third error.
//
// Run with:
//
//	go run ./examples/safelane
package main

import (
	"fmt"
	"log"
	"time"

	"swwd"
	"swwd/validator"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("safelane: %v", err)
	}
}

func run() error {
	v, err := validator.New(
		validator.WithTraceRunnables("GetLanePosition", "LaneDetect", "WarnActuate"),
	)
	if err != nil {
		return err
	}

	// Invalid branch in SafeLane from t=6s on.
	branch := &validator.FlagFault{
		Label: "safelane-invalid-branch",
		Set:   func() { v.SafeLane.FaultBranch = 1 },
		Unset: func() { v.SafeLane.FaultBranch = 0 },
	}
	v.Injector.ApplyAt(6*validator.Second, branch)

	fmt.Println("phase 1: cruise; steering pulse at 20s drifts the car (built-in scenario)")
	if err := v.Run(6 * time.Second); err != nil {
		return err
	}
	fmt.Printf("  t=%v offset=%.2f m, warnings=%d, detections=%+v\n",
		v.Kernel.Now(), v.Lat.Offset(), v.SafeLane.Warnings(), v.Watchdog.Results())

	fmt.Println("phase 2: invalid branch injected — LaneDetect skipped")
	if err := v.Run(4 * time.Second); err != nil {
		return err
	}
	res := v.Watchdog.Results()
	st, err := v.Watchdog.TaskState(v.SafeLane.Task)
	if err != nil {
		return err
	}
	fmt.Printf("  t=%v detections=%+v task=%v\n", v.Kernel.Now(), res, st)

	fmt.Println("\nfault log (first 5):")
	for i, f := range v.Watchdog.Journal() {
		if i >= 5 {
			break
		}
		r := swwd.Report{
			Cycle: f.Cycle, Kind: f.Kind, Runnable: f.Runnable, Task: f.Task,
			Observed: f.Observed, Expected: f.Expected, Predecessor: f.Predecessor,
		}
		fmt.Printf("  %v %s\n", f.Time, r)
	}

	if pfc := v.Recorder.Series("PFC Result"); pfc != nil {
		fmt.Println()
		fmt.Print(validator.Plot(pfc, 64, 8))
	}
	if res.ProgramFlow < 3 {
		return fmt.Errorf("program-flow errors not detected (got %d)", res.ProgramFlow)
	}
	fmt.Println("scenario complete")
	return nil
}
