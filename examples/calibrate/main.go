// Calibrate: derive fault hypotheses from live observation instead of
// hand-tuning them — online, with a shadow-guarded zero-downtime swap.
//
// Setting the per-runnable fault hypothesis (how many heartbeats per
// window are normal) is the design-time step of deploying the Software
// Watchdog. This example starts supervision on day-0 guesses that are
// deliberately loose, lets the online estimator watch the healthy
// workload, derives tightened hypotheses with a 30% safety margin,
// evaluates them as *shadows* against live traffic (would they have
// faulted?), and only then swaps them in — without ever deactivating a
// runnable, so there is no supervision gap. The tightened watchdog
// stays quiet on the healthy workload but detects a stall immediately.
//
// Run with:
//
//	go run ./examples/calibrate
package main

import (
	"fmt"
	"log"
	"time"

	"swwd"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("calibrate: %v", err)
	}
}

// healthyWindow drives one 10-cycle window of the uneven healthy
// workload (2 or 3 beats per window — exactly the kind of jitter that
// makes hand-written hypotheses flap).
func healthyWindow(beat func(swwd.RunnableID), cycle func(), stages [2]swwd.RunnableID, window int) {
	beats := 2 + window%2
	for b := 0; b < beats; b++ {
		for _, rid := range stages {
			beat(rid)
		}
	}
	for c := 0; c < 10; c++ {
		cycle()
	}
}

func run() error {
	model := swwd.NewModel()
	app, err := model.AddApp("sensorFusion", swwd.SafetyCritical)
	if err != nil {
		return err
	}
	task, err := model.AddTask(app, "fusionTask", 1)
	if err != nil {
		return err
	}
	var stages [2]swwd.RunnableID
	for i, name := range []string{"acquire", "fuse"} {
		if stages[i], err = model.AddRunnable(task, name, time.Millisecond, swwd.SafetyCritical); err != nil {
			return err
		}
	}
	if err := model.Freeze(); err != nil {
		return err
	}

	// Day 0: supervise with loose guesses, estimator enabled. The
	// estimator samples banked beat counts every 10 cycles on the Cycle
	// caller's goroutine — the heartbeat hot path is untouched.
	w, err := swwd.New(model, swwd.WithEstimatorWindow(10))
	if err != nil {
		return err
	}
	loose := swwd.Hypothesis{AlivenessCycles: 10, MinHeartbeats: 1, ArrivalCycles: 10, MaxArrivals: 100}
	for _, rid := range stages {
		if err := w.SetHypothesis(rid, loose); err != nil {
			return err
		}
		if err := w.Activate(rid); err != nil {
			return err
		}
	}

	// Phase 1: the estimator observes the healthy workload in-line with
	// normal supervision (the first, warmup-inflated window is
	// discarded automatically).
	for window := 0; window < 7; window++ {
		healthyWindow(w.Heartbeat, w.Cycle, stages, window)
	}
	base := w.Estimator().Baseline()
	fmt.Printf("observed %d healthy windows\n", w.Estimator().Windows())

	// Phase 2: derive tightened proposals. Suggest is pure: the same
	// baseline and policy always yield bit-identical proposals.
	props := swwd.SuggestHypotheses(base, swwd.CalibrationPolicy{Margin: 0.3})
	if len(props) != len(stages) {
		return fmt.Errorf("got %d proposals, want %d", len(props), len(stages))
	}
	byRunnable := make(map[int]swwd.CalibrationProposal, len(props))
	for _, p := range props {
		byRunnable[p.Runnable] = p
		r, _ := model.Runnable(swwd.RunnableID(p.Runnable))
		fmt.Printf("  %-8s -> min %d, max %d per %d cycles (observed %d..%d beats/window)\n",
			r.Name, p.Hyp.MinHeartbeats, p.Hyp.MaxArrivals, p.Hyp.AlivenessCycles, p.Min, p.Max)
	}

	// Phase 3: evaluate the candidates as shadows. A shadow rides the
	// live beat stream and counts windows it *would* have faulted on —
	// it never raises a fault, and the loose hypotheses keep
	// supervising untouched.
	for _, rid := range stages {
		if err := w.SetShadow(rid, swwd.Hypothesis(byRunnable[int(rid)].Hyp)); err != nil {
			return err
		}
	}
	for window := 0; window < 4; window++ {
		healthyWindow(w.Heartbeat, w.Cycle, stages, window)
	}
	for _, rid := range stages {
		v, err := w.ShadowVerdict(rid)
		if err != nil {
			return err
		}
		r, _ := model.Runnable(rid)
		fmt.Printf("shadow %-8s windows %d, would-be faults %d/%d, clean streak %d\n",
			r.Name, v.Windows, v.WouldAliveness, v.WouldArrival, v.CleanStreak)
		if v.WouldAliveness != 0 || v.WouldArrival != 0 || v.CleanStreak < 3 {
			return fmt.Errorf("candidate for %s not clean enough to promote: %+v", r.Name, v)
		}
	}

	// Phase 4: promote. SetHypothesis swaps the active hypothesis on a
	// live runnable — no Deactivate, no supervision gap.
	for _, rid := range stages {
		if err := w.SetHypothesis(rid, swwd.Hypothesis(byRunnable[int(rid)].Hyp)); err != nil {
			return err
		}
		if err := w.ClearShadow(rid); err != nil {
			return err
		}
	}
	if w.Results() != (swwd.Results{}) {
		return fmt.Errorf("supervision gap during rollout: %+v", w.Results())
	}

	// Phase 5: the tightened watchdog is quiet on the healthy workload.
	for window := 0; window < 6; window++ {
		healthyWindow(w.Heartbeat, w.Cycle, stages, window)
	}
	fmt.Printf("healthy replay:  %+v\n", w.Results())
	if w.Results().Aliveness != 0 {
		return fmt.Errorf("calibrated hypothesis false-positived")
	}

	// Phase 6: the fuse stage stalls — detected within one window.
	for window := 0; window < 2; window++ {
		for b := 0; b < 2; b++ {
			w.Heartbeat(stages[0])
		}
		for c := 0; c < 10; c++ {
			w.Cycle()
		}
	}
	fmt.Printf("after stall:     %+v\n", w.Results())
	if w.Results().Aliveness == 0 {
		return fmt.Errorf("stall not detected")
	}

	fmt.Println("calibration example complete")
	return nil
}
