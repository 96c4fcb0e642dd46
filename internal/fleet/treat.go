// Treatment wiring: the glue between the deterministic policy engine
// (internal/treat) and the live fleet — the watchdog that detects, the
// server that talks to reporters, and the node registration tables that
// map treatment actions onto model runnables and wire commands.
package fleet

import (
	"fmt"

	"swwd/internal/core"
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
// its first event only after Build has filled in the Fleet; b is that
// goroutine's reusable batch.
type treatExecutor struct {
	f *Fleet
	b *core.Batch
}

// Execute applies one action: its activation changes as one watchdog
// batch, so a Cycle sees the node's supervision before or after the
// action, never half of it, then the command to the reporter.
// Command-send failures (a quarantined node is frequently unreachable —
// that is *why* it is quarantined) degrade to an error return after the
// supervision side effects are applied, so the watchdog state never
// diverges from the engine state.
func (e treatExecutor) Execute(a treat.Action) error {
	if int(a.Node) >= len(e.f.Specs) {
		return fmt.Errorf("treat executor: unknown node %d", a.Node)
	}
	spec := &e.f.Specs[a.Node]
	b := e.b
	b.Reset()
	var op wire.CmdOp
	switch a.Kind {
	case treat.ActQuarantine:
		// Stop supervising the node entirely — runnables and link — so
		// the dead node's counters stop accumulating faults, then tell
		// the node (best effort; it is probably unreachable right now,
		// but a wedged-not-dead reporter should learn its state).
		b.Deactivate(spec.Link)
		fallthrough
	case treat.ActScaleDown:
		// A scale-down suspends the dependent's runnable supervision —
		// its work is expected to stall without the dependency — but
		// keeps the link supervised: the dependent itself must stay
		// alive.
		for _, rid := range spec.Runnables {
			b.Deactivate(rid)
		}
		op = wire.CmdQuarantine
	case treat.ActNotifyQuarantine:
		op = wire.CmdQuarantine
	case treat.ActResume:
		// Heartbeats are back: supervise the link again (Activate resets
		// its counters and opens a fresh window, so the quarantine gap
		// never counts against it) and lift the reporter-side pause.
		b.Activate(spec.Link)
		op = wire.CmdResume
	case treat.ActScaleUp:
		for _, rid := range spec.Runnables {
			b.Activate(rid)
		}
		op = wire.CmdResume
	case treat.ActRestartRunnables:
		op = wire.CmdRestart
	default:
		return fmt.Errorf("treat executor: unknown action kind %d", a.Kind)
	}
	err := e.f.Watchdog.Apply(b)
	if _, serr := e.f.Server.SendCommand(a.Node, wire.CmdRec{Op: op, Runnable: wire.CmdNodeTarget}); err == nil {
		err = serr
	}
	return err
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
	return treat.NewController(g, cfg.Policy, treatExecutor{f: f, b: new(core.Batch)}, clock,
		treat.Options{EventQueue: cfg.EventQueue, ActionSink: cfg.ActionSink}), nil
}
