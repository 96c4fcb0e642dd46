package swwd_test

import (
	"fmt"
	"strings"
	"time"

	"swwd"
)

// Example shows the minimal monitored system: one runnable with an
// aliveness hypothesis, driven by a manual sequence of heartbeats and
// cycles (a live deployment would use swwd.Service instead of calling
// Cycle directly).
func Example() {
	model := swwd.NewModel()
	app, _ := model.AddApp("demo", swwd.SafetyCritical)
	task, _ := model.AddTask(app, "demoTask", 1)
	worker, _ := model.AddRunnable(task, "worker", time.Millisecond, swwd.SafetyCritical)
	if err := model.Freeze(); err != nil {
		fmt.Println(err)
		return
	}
	w, _ := swwd.New(model)
	_ = w.SetHypothesis(worker, swwd.Hypothesis{AlivenessCycles: 2, MinHeartbeats: 1})
	_ = w.Activate(worker)

	// Healthy: a heartbeat inside every 2-cycle window.
	w.Heartbeat(worker)
	w.Cycle()
	w.Cycle()
	// Silent: the next window expires without a heartbeat.
	w.Cycle()
	w.Cycle()

	fmt.Printf("aliveness errors: %d\n", w.Results().Aliveness)
	// Output: aliveness errors: 1
}

// ExampleWatchdog_AddFlowSequence shows program flow checking: the
// look-up table allows producer→consumer (and the wrap-around), so a
// repeated producer is flagged.
func ExampleWatchdog_AddFlowSequence() {
	model := swwd.NewModel()
	app, _ := model.AddApp("pipeline", swwd.SafetyCritical)
	task, _ := model.AddTask(app, "t", 1)
	producer, _ := model.AddRunnable(task, "producer", time.Millisecond, swwd.SafetyCritical)
	consumer, _ := model.AddRunnable(task, "consumer", time.Millisecond, swwd.SafetyCritical)
	_ = model.Freeze()
	w, _ := swwd.New(model)
	_ = w.AddFlowSequence(producer, consumer)

	w.Heartbeat(producer)
	w.Heartbeat(consumer) // legal
	w.Heartbeat(producer) // legal wrap-around
	w.Heartbeat(producer) // illegal: producer after producer

	fmt.Printf("flow errors: %d\n", w.Results().ProgramFlow)
	// Output: flow errors: 1
}

// ExampleLoadSpec builds a monitored system from its JSON description.
func ExampleLoadSpec() {
	const spec = `{
	  "apps": [{
	    "name": "app", "criticality": "safety-critical",
	    "tasks": [{
	      "name": "task", "priority": 1, "flow": true,
	      "runnables": [
	        {"name": "read",  "exec_time": "100us"},
	        {"name": "write", "exec_time": "100us"}
	      ]
	    }]
	  }]
	}`
	parsed, err := swwd.LoadSpec(strings.NewReader(spec))
	if err != nil {
		fmt.Println(err)
		return
	}
	sys, err := parsed.Build(nil, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	sys.Heartbeat("read")
	sys.Heartbeat("read") // breaks the declared read→write flow
	fmt.Printf("flow errors: %d\n", sys.Watchdog.Results().ProgramFlow)
	// Output: flow errors: 1
}

// ExampleSuggestHypotheses derives a fault hypothesis from observation
// instead of hand-estimating arrival rates: supervise with a loose guess
// and the online estimator on, observe a healthy phase, then Suggest.
func ExampleSuggestHypotheses() {
	model := swwd.NewModel()
	app, _ := model.AddApp("app", swwd.SafetyCritical)
	task, _ := model.AddTask(app, "task", 1)
	worker, _ := model.AddRunnable(task, "worker", time.Millisecond, swwd.SafetyCritical)
	_ = model.Freeze()

	w, _ := swwd.New(model, swwd.WithEstimatorWindow(10))
	_ = w.SetHypothesis(worker, swwd.Hypothesis{AlivenessCycles: 10, MinHeartbeats: 1, ArrivalCycles: 10, MaxArrivals: 100})
	_ = w.Activate(worker)
	// The estimator discards its first window, so observe one more than
	// the three Suggest needs by default.
	for window := 0; window < 4; window++ {
		for beat := 0; beat < 5; beat++ {
			w.Heartbeat(worker)
		}
		for cycle := 0; cycle < 10; cycle++ {
			w.Cycle()
		}
	}
	props := swwd.SuggestHypotheses(w.Estimator().Baseline(), swwd.CalibrationPolicy{Margin: 0.3})
	h := props[0].Hyp
	fmt.Printf("min %d, max %d per %d cycles\n", h.MinHeartbeats, h.MaxArrivals, h.AlivenessCycles)
	// Output: min 3, max 7 per 10 cycles
}
