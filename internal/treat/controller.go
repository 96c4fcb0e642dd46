package treat

import (
	"maps"
	"sync"
	"sync/atomic"

	"swwd/internal/sim"
)

// DefaultEventQueue is the controller's event channel depth when
// Options.EventQueue is zero.
const DefaultEventQueue = 1024

// maxLogEvents bounds the trace and action logs: a long-running
// controller records its first maxLogEvents events and their actions,
// then stops recording. The kept trace is a prefix, so it still replays
// to exactly the kept actions.
const maxLogEvents = 1 << 16

// Executor applies one treatment action to the world — deactivating and
// reactivating watchdog supervision, sending wire commands. The
// controller invokes it from its single policy goroutine, so an
// implementation needs no internal serialization against other actions;
// it must not call back into the controller.
type Executor interface {
	Execute(Action) error
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(Action) error

// Execute calls f(a).
func (f ExecutorFunc) Execute(a Action) error { return f(a) }

// Stats is a point-in-time copy of the controller's counters.
type Stats struct {
	// Events is the number of events the policy engine consumed;
	// EventsDropped the number discarded because the queue was full (the
	// engine never blocks a detection or ingest path).
	Events        uint64
	EventsDropped uint64
	// Quarantines/Resumes/ScaleDowns/ScaleUps/NotifyQuarantines/
	// RestartRunnables count emitted actions by kind.
	Quarantines      uint64
	Resumes          uint64
	ScaleDowns       uint64
	ScaleUps         uint64
	NotifyQuarantine uint64
	RestartRunnables uint64
	// ActiveQuarantines is the number of nodes currently quarantined.
	// ActiveScaledDown is the number of nodes currently held down by at
	// least one quarantined dependency and not themselves quarantined
	// (a quarantined node counts only as a quarantine). The engine keeps
	// both counts as Decide flips node states; the controller stores
	// them after every Quarantine or Resume, the only actions that
	// change either set, so they never drift from the engine state.
	ActiveQuarantines int
	ActiveScaledDown  int
	// ExecErrors counts actions whose Executor returned an error (the
	// action stays in the log; the error is an execution diagnostic).
	ExecErrors uint64
}

// Options tunes a Controller.
type Options struct {
	// EventQueue is the event channel depth. Zero means
	// DefaultEventQueue.
	EventQueue int
	// ActionSink, when set, receives every emitted action from the
	// single policy goroutine, after the executor ran; execErr reports
	// whether execution returned an error. Implementations must be
	// non-blocking — the WAL shipper hands the action to a lock-free
	// ring — and must not call back into the controller.
	ActionSink func(a Action, execErr bool)
}

// Controller runs the treatment engine against live events. Detection
// and ingest hot paths hand it events through OnLinkFault and OnFrame —
// both non-blocking, both safe to call from inside watchdog locks — and
// a single policy goroutine folds them through the engine and executes
// the resulting actions in order. The first maxLogEvents events and
// their actions are retained for replay verification (Trace, Actions).
type Controller struct {
	eng   *Engine
	exec  Executor
	clock sim.Clock
	sink  func(Action, bool)

	events chan Event
	stop   chan struct{}
	done   chan struct{}

	// interested is the set of nodes whose frames the engine currently
	// needs — exactly the quarantined ones. OnFrame loads it with one
	// atomic pointer read, so a healthy fleet pays an empty-map lookup
	// per accepted frame and nothing more. The policy goroutine replaces
	// it copy-on-write: a copy of the previous set with the acted node
	// added or removed, O(|quarantined|) per quarantine or resume.
	interested atomic.Pointer[map[uint32]struct{}]

	// mu guards the trace and action logs (appended by the policy
	// goroutine, copied by accessors).
	mu      sync.Mutex
	trace   []Event
	actions []Action

	nEvents      atomic.Uint64
	dropped      atomic.Uint64
	quarantines  atomic.Uint64
	resumes      atomic.Uint64
	scaleDowns   atomic.Uint64
	scaleUps     atomic.Uint64
	notifies     atomic.Uint64
	restarts     atomic.Uint64
	execErrs     atomic.Uint64
	activeQuar   atomic.Int64 // the engine's count, stored by step
	activeScaled atomic.Int64 // the engine's count, stored by step
}

// NewController builds and starts a controller over the graph. exec
// receives the actions (nil discards them — the engine still records
// them, useful in tests); clock stamps event times (nil means a wall
// clock), it is never read inside the engine itself.
func NewController(g *Graph, pol Policy, exec Executor, clock sim.Clock, opts Options) *Controller {
	c := newController(g, pol, exec, clock, opts)
	go c.run()
	return c
}

// newController builds a controller without starting its policy
// goroutine; in-package tests drive step directly.
func newController(g *Graph, pol Policy, exec Executor, clock sim.Clock, opts Options) *Controller {
	if clock == nil {
		clock = sim.NewWallClock()
	}
	if opts.EventQueue <= 0 {
		opts.EventQueue = DefaultEventQueue
	}
	c := &Controller{
		eng:    NewEngine(g, pol),
		exec:   exec,
		clock:  clock,
		sink:   opts.ActionSink,
		events: make(chan Event, opts.EventQueue),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	empty := make(map[uint32]struct{})
	c.interested.Store(&empty)
	return c
}

// OnLinkFault reports an aliveness fault on a node's link runnable.
// Non-blocking and lock-free: safe to call from a core.Sink, which the
// watchdog invokes while holding its own mutex. A full queue drops the
// event and counts it rather than stall detection.
func (c *Controller) OnLinkFault(node uint32) {
	c.offer(Event{Kind: EvLinkFault, Node: node, Time: c.clock.Now()})
}

// OnFrame reports an accepted heartbeat frame. The fast path is one
// atomic load and a set lookup: frames from nodes the engine has no
// treatment state for (the healthy steady state) never enqueue
// anything. restarted marks frames whose session epoch advanced.
func (c *Controller) OnFrame(node uint32, restarted bool) {
	set := *c.interested.Load()
	if _, ok := set[node]; !ok {
		return
	}
	c.offer(Event{Kind: EvFrame, Node: node, Restarted: restarted, Time: c.clock.Now()})
}

// offer enqueues one event without ever blocking the caller.
func (c *Controller) offer(ev Event) {
	select {
	case c.events <- ev:
	default:
		c.dropped.Add(1)
	}
}

// run is the single policy goroutine: it steps every event in arrival
// order until Close.
func (c *Controller) run() {
	defer close(c.done)
	var scratch []Action
	for {
		select {
		case <-c.stop:
			return
		case ev := <-c.events:
			scratch = c.step(ev, scratch[:0])
		}
	}
}

// step folds one event into actions, logs both, executes the actions in
// order and refreshes the gauges and the interested set. It returns the
// actions, in scratch's storage.
func (c *Controller) step(ev Event, scratch []Action) []Action {
	c.nEvents.Add(1)
	scratch = c.eng.Decide(ev, scratch)
	c.mu.Lock()
	if len(c.trace) < maxLogEvents {
		c.trace = append(c.trace, ev)
		c.actions = append(c.actions, scratch...)
	}
	c.mu.Unlock()
	// Quarantine and Resume are the only actions that change the
	// quarantined or scaled-down sets, and only ever for the event's own
	// node. The gauges are stored before the action counters move, so a
	// reader that sees an action counted also sees its gauges. The
	// interested set is published after the actions ran.
	var next map[uint32]struct{}
	for _, a := range scratch {
		if a.Kind == ActQuarantine || a.Kind == ActResume {
			q, sd := c.eng.Active()
			c.activeQuar.Store(int64(q))
			c.activeScaled.Store(int64(sd))
			next = maps.Clone(*c.interested.Load())
			if a.Kind == ActQuarantine {
				next[a.Node] = struct{}{}
			} else {
				delete(next, a.Node)
			}
			break
		}
	}
	for _, a := range scratch {
		switch a.Kind {
		case ActQuarantine:
			c.quarantines.Add(1)
		case ActResume:
			c.resumes.Add(1)
		case ActScaleDown:
			c.scaleDowns.Add(1)
		case ActScaleUp:
			c.scaleUps.Add(1)
		case ActNotifyQuarantine:
			c.notifies.Add(1)
		case ActRestartRunnables:
			c.restarts.Add(1)
		}
		execErr := false
		if c.exec != nil {
			if err := c.exec.Execute(a); err != nil {
				c.execErrs.Add(1)
				execErr = true
			}
		}
		if c.sink != nil {
			c.sink(a, execErr)
		}
	}
	if next != nil {
		c.interested.Store(&next)
	}
	return scratch
}

// Close stops the policy goroutine. Events still queued are discarded;
// the trace and action logs stay readable.
func (c *Controller) Close() {
	select {
	case <-c.stop:
		return // already closed
	default:
	}
	close(c.stop)
	<-c.done
}

// Trace returns a copy of the consumed event trace, in consumption
// order — the input for Replay. Past maxLogEvents events it holds only
// the first maxLogEvents; Stats().Events still counts every one.
func (c *Controller) Trace() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.trace...)
}

// Actions returns a copy of the emitted action log, in execution order:
// the actions of exactly the events Trace holds.
func (c *Controller) Actions() []Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Action(nil), c.actions...)
}

// Stats returns a copy of the controller's counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Events:            c.nEvents.Load(),
		EventsDropped:     c.dropped.Load(),
		Quarantines:       c.quarantines.Load(),
		Resumes:           c.resumes.Load(),
		ScaleDowns:        c.scaleDowns.Load(),
		ScaleUps:          c.scaleUps.Load(),
		NotifyQuarantine:  c.notifies.Load(),
		RestartRunnables:  c.restarts.Load(),
		ActiveQuarantines: int(c.activeQuar.Load()),
		ActiveScaledDown:  int(c.activeScaled.Load()),
		ExecErrors:        c.execErrs.Load(),
	}
}
