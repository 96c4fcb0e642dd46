// Quickstart: deploy the Software Watchdog as a live dependability
// service for an ordinary Go program.
//
// A small pipeline of goroutines plays the role of the paper's runnables:
// a producer, a worker and a publisher, each reporting heartbeats through
// a pre-registered Monitor handle (the lock-free hot path). The watchdog
// checks their aliveness and arrival rate against per-runnable fault
// hypotheses and validates the producer→worker→publisher flow. Mid run
// the worker stalls, and the watchdog reports the aliveness error and
// flips the task state. Afterwards the example scrapes the telemetry
// Snapshot and replays the fault-event journal, showing how the stall
// is diagnosed after the fact from the freeze-framed counters.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"swwd"
)

// sink prints watchdog output as it arrives.
type sink struct{}

func (sink) Fault(r swwd.Report) {
	fmt.Printf("  [watchdog] %s error on runnable %d (observed %d, expected %d)\n",
		r.Kind, r.Runnable, r.Observed, r.Expected)
}

func (sink) StateChanged(e swwd.StateEvent) {
	fmt.Printf("  [watchdog] %s state -> %s (cause: %s)\n", e.Scope, e.State, e.Cause)
}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("quickstart: %v", err)
	}
}

func run() error {
	// 1. Describe the application structure: one app, one task, three
	// runnables in a fixed flow.
	model := swwd.NewModel()
	app, err := model.AddApp("pipeline", swwd.SafetyCritical)
	if err != nil {
		return err
	}
	task, err := model.AddTask(app, "pipelineTask", 1)
	if err != nil {
		return err
	}
	var stages [3]swwd.RunnableID
	for i, name := range []string{"producer", "worker", "publisher"} {
		if stages[i], err = model.AddRunnable(task, name, time.Millisecond, swwd.SafetyCritical); err != nil {
			return err
		}
	}
	if err := model.Freeze(); err != nil {
		return err
	}

	// 2. Build the watchdog with functional options: 5ms monitoring
	// cycle, each stage must beat at least twice per 10-cycle (50ms)
	// window and at most 30 times. Each stage gets a Monitor handle so
	// its hot-path heartbeats skip the map/bounds indirection.
	w, err := swwd.New(model,
		swwd.WithSink(sink{}),
		swwd.WithCyclePeriod(5*time.Millisecond),
	)
	if err != nil {
		return err
	}
	var monitors [3]*swwd.Monitor
	for i, rid := range stages {
		if err := w.SetHypothesis(rid, swwd.Hypothesis{
			AlivenessCycles: 10, MinHeartbeats: 2,
			ArrivalCycles: 10, MaxArrivals: 30,
		}); err != nil {
			return err
		}
		if err := w.Activate(rid); err != nil {
			return err
		}
		if monitors[i], err = w.Register(rid); err != nil {
			return err
		}
	}
	if err := w.AddFlowSequence(stages[0], stages[1], stages[2]); err != nil {
		return err
	}

	// 3. Start the monitoring service. Run is the blocking,
	// context-aware variant: cancelling the context ends the loop, so
	// the service slots into errgroup-style lifecycles. (Start/Stop
	// remain available for simpler wiring.)
	svc, err := swwd.NewService(w, 0)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svcDone := make(chan error, 1)
	go func() { svcDone <- svc.Run(ctx) }()
	defer func() {
		cancel()
		<-svcDone
	}()

	// 4. The pipeline: each stage beats on every iteration. The stall
	// flag freezes the worker (and everything downstream of it).
	stall := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		stalled := false
		for range ticker.C {
			if !stalled {
				select {
				case <-stall:
					fmt.Println("-- worker stalls (simulated deadlock) --")
					stalled = true
				default:
				}
			}
			if stalled {
				// The stage is wedged: no heartbeats. Exit once the
				// watchdog has seen enough to act on.
				if w.Results().Aliveness >= 3 {
					return
				}
				continue
			}
			monitors[0].Beat() // producer
			monitors[1].Beat() // worker
			monitors[2].Beat() // publisher
		}
	}()

	fmt.Println("pipeline healthy; watchdog monitoring...")
	time.Sleep(300 * time.Millisecond)
	fmt.Printf("after healthy phase: %+v\n", w.Results())

	close(stall)
	<-done

	res := w.Results()
	fmt.Printf("after stall: %+v\n", res)
	st, err := w.TaskState(task)
	if err != nil {
		return err
	}
	fmt.Printf("task state: %s\n", st)
	if res.Aliveness == 0 {
		fmt.Println("ERROR: stall was not detected")
		os.Exit(1)
	}

	// 5. Post-mortem telemetry: a Snapshot summarizes every runnable's
	// lifetime beats and per-kind fault counts (the same figures a
	// swwdd -metrics endpoint exports), and the fault-event journal
	// replays each detection with its freeze-framed counters.
	snap := svc.Snapshot()
	fmt.Printf("telemetry after %d cycles (%d ticks, %d missed):\n",
		snap.Cycle, snap.Driver.Ticks, snap.Driver.MissedCycles)
	names := []string{"producer", "worker", "publisher"}
	for i, rs := range snap.Runnables {
		fmt.Printf("  %-9s beats=%-4d aliveness-errors=%d arrival-errors=%d flow-errors=%d\n",
			names[i], rs.Beats, rs.ErrAliveness, rs.ErrArrivalRate, rs.ErrProgramFlow)
	}
	fmt.Printf("journal: %d/%d entries (%d written, %d dropped); last entries:\n",
		snap.Journal.Len, snap.Journal.Cap, snap.Journal.Written, snap.Journal.Dropped)
	entries := w.Journal()
	if len(entries) > 3 {
		entries = entries[len(entries)-3:]
	}
	for _, e := range entries {
		fmt.Printf("  #%d cycle=%d %s runnable=%s observed=%d expected=%d frame{AC=%d ARC=%d CCA=%d}\n",
			e.Seq, e.Cycle, e.Kind, names[e.Runnable], e.Observed, e.Expected,
			e.Frame.AC, e.Frame.ARC, e.Frame.CCA)
	}

	fmt.Println("stall detected — quickstart complete")
	return nil
}
