// Treatment wiring: the glue between the deterministic policy engine
// (internal/treat) and the live fleet — the watchdog that detects, the
// server that talks to reporters, and the node registration tables that
// map treatment actions onto model runnables and wire commands.
package fleet

import (
	"fmt"

	"swwd/internal/core"
	"swwd/internal/ingest"
	"swwd/internal/runnable"
	"swwd/internal/sim"
	"swwd/internal/treat"
	"swwd/internal/wire"
)

// TreatmentConfig enables the fault-treatment control plane on a fleet:
// the dependency edges between node IDs and the policy knobs.
type TreatmentConfig struct {
	// Edges declares which node depends on which (treat.Edge semantics);
	// the node IDs must be fleet node IDs (0..Nodes-1).
	Edges []treat.Edge
	// Policy tunes the engine; the zero value is the default policy.
	Policy treat.Policy
	// EventQueue is the controller queue depth; zero means
	// treat.DefaultEventQueue.
	EventQueue int
	// ActionSink is passed through to treat.Options.ActionSink: it
	// receives every executed action on the controller's policy
	// goroutine and must be non-blocking (the swwdd WAL shipper streams
	// actions to the write-ahead log through it).
	ActionSink func(a treat.Action, execErr bool)
}

// treatExecutor applies treatment actions to a fleet: watchdog
// activation toggles plus wire commands back to the affected reporter.
// It runs on the controller's single policy goroutine, which receives
// its first event only after Build has filled in the Fleet.
type treatExecutor struct {
	f *Fleet
}

// Execute applies one action. Command-send failures (a quarantined node
// is frequently unreachable — that is *why* it is quarantined) degrade
// to an error return after the supervision side effects are applied, so
// the watchdog state never diverges from the engine state.
func (e treatExecutor) Execute(a treat.Action) error {
	if int(a.Node) >= len(e.f.Specs) {
		return fmt.Errorf("treat executor: unknown node %d", a.Node)
	}
	spec := &e.f.Specs[a.Node]
	switch a.Kind {
	case treat.ActQuarantine:
		// Stop supervising the node entirely — runnables and link — so
		// the dead node's counters stop accumulating faults, then tell
		// the node (best effort; it is probably unreachable right now,
		// but a wedged-not-dead reporter should learn its state).
		err := e.setRunnables(spec, false)
		if derr := e.f.Watchdog.Deactivate(spec.Link); err == nil {
			err = derr
		}
		if _, serr := e.f.Server.SendCommand(a.Node, wire.CmdRec{Op: wire.CmdQuarantine, Runnable: wire.CmdNodeTarget}); err == nil && serr != nil {
			err = serr
		}
		return err
	case treat.ActNotifyQuarantine:
		_, err := e.f.Server.SendCommand(a.Node, wire.CmdRec{Op: wire.CmdQuarantine, Runnable: wire.CmdNodeTarget})
		return err
	case treat.ActScaleDown:
		// Suspend the dependent's runnable supervision — its work is
		// expected to stall without the dependency — but keep the link
		// supervised: the dependent itself must stay alive.
		err := e.setRunnables(spec, false)
		if _, serr := e.f.Server.SendCommand(a.Node, wire.CmdRec{Op: wire.CmdQuarantine, Runnable: wire.CmdNodeTarget}); err == nil && serr != nil {
			err = serr
		}
		return err
	case treat.ActResume:
		// Heartbeats are back: supervise the link again (Activate resets
		// its counters and opens a fresh window, so the quarantine gap
		// never counts against it) and lift the reporter-side pause.
		err := e.f.Watchdog.Activate(spec.Link)
		if _, serr := e.f.Server.SendCommand(a.Node, wire.CmdRec{Op: wire.CmdResume, Runnable: wire.CmdNodeTarget}); err == nil && serr != nil {
			err = serr
		}
		return err
	case treat.ActScaleUp:
		err := e.setRunnables(spec, true)
		if _, serr := e.f.Server.SendCommand(a.Node, wire.CmdRec{Op: wire.CmdResume, Runnable: wire.CmdNodeTarget}); err == nil && serr != nil {
			err = serr
		}
		return err
	case treat.ActRestartRunnables:
		_, err := e.f.Server.SendCommand(a.Node, wire.CmdRec{Op: wire.CmdRestart, Runnable: wire.CmdNodeTarget})
		return err
	}
	return fmt.Errorf("treat executor: unknown action kind %d", a.Kind)
}

// setRunnables toggles supervision of every monitored runnable of one
// node (the link is handled separately).
func (e treatExecutor) setRunnables(spec *ingest.NodeSpec, active bool) error {
	var first error
	for _, rid := range spec.Runnables {
		var err error
		if active {
			err = e.f.Watchdog.Activate(rid)
		} else {
			err = e.f.Watchdog.Deactivate(rid)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// treatSink wraps the fleet's user sink and feeds link aliveness faults
// to the treatment controller. The watchdog invokes Fault with its
// internal lock held; Controller.OnLinkFault is non-blocking by
// contract, so the detour adds no blocking to the detection path.
type treatSink struct {
	inner      core.Sink
	ctrl       *treat.Controller
	linkToNode map[runnable.ID]uint32
}

func (s *treatSink) Fault(r core.Report) {
	if r.Kind == core.AlivenessError && !r.Correlated {
		if node, ok := s.linkToNode[r.Runnable]; ok {
			s.ctrl.OnLinkFault(node)
		}
	}
	if s.inner != nil {
		s.inner.Fault(r)
	}
}

func (s *treatSink) StateChanged(ev core.StateEvent) {
	if s.inner != nil {
		s.inner.StateChanged(ev)
	}
}

// newTreatment builds the dependency graph over node IDs 0..nodes-1 and
// starts the controller, executing its actions on f.
func newTreatment(f *Fleet, nodes int, cfg *TreatmentConfig, clock sim.Clock) (*treat.Controller, error) {
	ids := make([]uint32, nodes)
	for i := range ids {
		ids[i] = uint32(i)
	}
	g, err := treat.NewGraph(ids, cfg.Edges)
	if err != nil {
		return nil, err
	}
	return treat.NewController(g, cfg.Policy, treatExecutor{f: f}, clock,
		treat.Options{EventQueue: cfg.EventQueue, ActionSink: cfg.ActionSink}), nil
}
