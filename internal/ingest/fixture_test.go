package ingest

import (
	"fmt"
	"testing"
	"time"

	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// fixture is the shape fleet.Build assembles — model, watchdog and a
// server with every node registered — without the control loops. The
// fleet package imports ingest, so ingest's in-package tests build it
// here.
type fixture struct {
	Watchdog *core.Watchdog
	Server   *Server
	Specs    []NodeSpec
}

// newFixture builds nodes reporter nodes of rpn runnables plus one link
// runnable each, flushing every 100ms into a watchdog with a 10ms cycle
// on a manual clock: cycles run only when a test drives them, so window
// expiry is exact. Every runnable is supervised by the link-derived
// hypothesis and active; the server is built from opts and not yet
// listening.
func newFixture(tb testing.TB, nodes, rpn int, opts ...Option) *fixture {
	tb.Helper()
	f := newUnregisteredFixture(tb, nodes, rpn, opts...)
	if err := f.Server.RegisterNodes(f.Specs); err != nil {
		tb.Fatalf("fixture: %v", err)
	}
	return f
}

// newUnregisteredFixture is newFixture without the node registration:
// no link hypothesis is installed and no link runnable is active.
func newUnregisteredFixture(tb testing.TB, nodes, rpn int, opts ...Option) *fixture {
	tb.Helper()
	const interval, cycle = 100 * time.Millisecond, 10 * time.Millisecond
	check := func(err error) {
		if err != nil {
			tb.Fatalf("fixture: %v", err)
		}
	}
	model := runnable.NewModel()
	app, err := model.AddApp("fleet", runnable.SafetyRelevant)
	check(err)
	specs := make([]NodeSpec, nodes)
	for n := range specs {
		task, err := model.AddTask(app, fmt.Sprintf("node%04d", n), 1)
		check(err)
		specs[n] = NodeSpec{Node: uint32(n), Interval: interval}
		for r := 0; r < rpn; r++ {
			rid, err := model.AddRunnable(task, fmt.Sprintf("node%04d/r%d", n, r), time.Millisecond, runnable.SafetyRelevant)
			check(err)
			specs[n].Runnables = append(specs[n].Runnables, rid)
		}
		specs[n].Link, err = model.AddRunnable(task, fmt.Sprintf("node%04d/link", n), time.Millisecond, runnable.SafetyCritical)
		check(err)
	}
	check(model.Freeze())
	w, err := core.New(core.Config{Model: model, Clock: sim.NewManualClock(), CyclePeriod: cycle})
	check(err)
	hyp := LinkHypothesis(interval, cycle, DefaultGraceFrames)
	for n := range specs {
		for _, rid := range specs[n].Runnables {
			check(w.SetHypothesis(rid, hyp))
			check(w.Activate(rid))
		}
	}
	srv, err := New(w, opts...)
	check(err)
	return &fixture{Watchdog: w, Server: srv, Specs: specs}
}
