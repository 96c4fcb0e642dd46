package treat

import "swwd/internal/sim"

// DefaultRecoveryFrames is how many consecutive accepted frames a
// quarantined node must deliver before the engine lifts the quarantine
// when Policy.RecoveryFrames is zero. Matching the ingest default link
// grace (one hypothesis window) keeps recovery symmetric with
// detection: silent for one window → quarantined, steady for three
// frames → resumed.
const DefaultRecoveryFrames = 3

// Policy tunes the treatment engine. The zero value is the default
// policy: scale dependents down, require DefaultRecoveryFrames steady
// frames to recover, no dependent restarts.
type Policy struct {
	// RecoveryFrames is the number of consecutive accepted frames a
	// quarantined node must deliver before it is resumed — the
	// quarantine grace on the way back up. Zero means
	// DefaultRecoveryFrames; a reporter restart resets the streak.
	RecoveryFrames int
	// RestartDependents additionally asks each scaled-up dependent to
	// restart its runnables when its last quarantined dependency
	// recovers (the paper's task-restart treatment, delegated to the
	// node that owns the process).
	RestartDependents bool
	// DisableScaleDown keeps dependents running when a dependency is
	// quarantined (ablation: quarantine-only treatment).
	DisableScaleDown bool
}

// recoveryFrames resolves the zero-value default.
func (p Policy) recoveryFrames() int {
	if p.RecoveryFrames <= 0 {
		return DefaultRecoveryFrames
	}
	return p.RecoveryFrames
}

// EventKind classifies an input event.
type EventKind uint8

const (
	// EvLinkFault is an aliveness fault on a node's link runnable: the
	// node went silent for a full hypothesis window.
	EvLinkFault EventKind = iota + 1
	// EvFrame is an accepted heartbeat frame from a node. Restarted
	// marks frames whose session epoch advanced (the reporter process
	// restarted).
	EvFrame
)

// String names the kind for logs and tests.
func (k EventKind) String() string {
	switch k {
	case EvLinkFault:
		return "link-fault"
	case EvFrame:
		return "frame"
	}
	return "unknown"
}

// Event is one engine input. Time is data, stamped by the caller from
// its injected clock — the engine never reads a clock itself, which is
// what makes a recorded trace replayable.
type Event struct {
	Kind      EventKind
	Node      uint32
	Restarted bool
	Time      sim.Time
}

// ActionKind classifies an engine output.
type ActionKind uint8

const (
	// ActQuarantine isolates a faulty node: deactivate its supervision
	// (runnables and link) and send it a quarantine command.
	ActQuarantine ActionKind = iota + 1
	// ActScaleDown suspends supervision of a healthy dependent of a
	// quarantined node so the missing dependency does not cascade into
	// secondary detections. The dependent's link stays supervised.
	ActScaleDown
	// ActNotifyQuarantine re-sends the quarantine command to a node
	// whose reporter restarted mid-quarantine: the new process must
	// re-learn its state.
	ActNotifyQuarantine
	// ActResume lifts a quarantine after a steady recovery streak:
	// reactivate the node's link supervision and send a resume command.
	ActResume
	// ActScaleUp reactivates supervision of a node whose last
	// quarantined dependency recovered (or of the recovered node itself
	// when nothing else holds it down).
	ActScaleUp
	// ActRestartRunnables asks a scaled-up dependent to restart its
	// runnables (Policy.RestartDependents).
	ActRestartRunnables
)

// String names the action kind for logs, journal entries and tests.
func (k ActionKind) String() string {
	switch k {
	case ActQuarantine:
		return "quarantine"
	case ActScaleDown:
		return "scale-down"
	case ActNotifyQuarantine:
		return "notify-quarantine"
	case ActResume:
		return "resume"
	case ActScaleUp:
		return "scale-up"
	case ActRestartRunnables:
		return "restart-runnables"
	}
	return "unknown"
}

// Action is one treatment decision. Node is the node acted on; Cause is
// the faulty (or recovered) node the action traces back to — for
// ActQuarantine and ActResume the node itself, for the scale family the
// dependency that triggered it.
type Action struct {
	Kind  ActionKind
	Node  uint32
	Cause uint32
	Time  sim.Time
}

// nodeState is the engine's per-node treatment state.
type nodeState struct {
	// quarantined marks a node whose link faulted and whose recovery
	// streak has not yet run out.
	quarantined bool
	// streak counts consecutive accepted frames since the quarantine
	// (or since the last reporter restart within it).
	streak int
	// scaledBy lists the quarantined dependencies currently holding
	// this node scaled down, sorted ascending. The node's supervision
	// comes back only when the list empties.
	scaledBy []uint32
}

// holdsScaleDown reports whether cause is in s.scaledBy.
func (s *nodeState) holdsScaleDown(cause uint32) bool {
	for _, c := range s.scaledBy {
		if c == cause {
			return true
		}
	}
	return false
}

// addScaleDown inserts cause into s.scaledBy, keeping it sorted.
func (s *nodeState) addScaleDown(cause uint32) {
	i := 0
	for i < len(s.scaledBy) && s.scaledBy[i] < cause {
		i++
	}
	if i < len(s.scaledBy) && s.scaledBy[i] == cause {
		return
	}
	s.scaledBy = append(s.scaledBy, 0)
	copy(s.scaledBy[i+1:], s.scaledBy[i:])
	s.scaledBy[i] = cause
}

// removeScaleDown deletes cause from s.scaledBy if present.
func (s *nodeState) removeScaleDown(cause uint32) {
	for i, c := range s.scaledBy {
		if c == cause {
			s.scaledBy = append(s.scaledBy[:i], s.scaledBy[i+1:]...)
			return
		}
	}
}

// Engine is the deterministic treatment policy: a pure fold of Events
// into Actions over the dependency graph. It is not safe for concurrent
// use — the Controller serializes access; tests and Replay drive it
// directly.
type Engine struct {
	g     *Graph
	pol   Policy
	state map[uint32]*nodeState
	// quarantined counts the quarantined nodes; scaled counts the nodes
	// held down by at least one cause and not themselves quarantined.
	// Decide moves both as it flips a node's state, so reading them is
	// O(1) instead of a walk over every node.
	quarantined, scaled int
}

// NewEngine builds an engine over the graph with everything healthy.
func NewEngine(g *Graph, pol Policy) *Engine {
	e := &Engine{g: g, pol: pol, state: make(map[uint32]*nodeState, len(g.Nodes()))}
	for _, n := range g.Nodes() {
		e.state[n] = &nodeState{}
	}
	return e
}

// Quarantined reports whether node n is currently quarantined.
func (e *Engine) Quarantined(n uint32) bool {
	st := e.state[n]
	return st != nil && st.quarantined
}

// ScaledDown reports whether node n is currently scaled down on account
// of a quarantined dependency.
func (e *Engine) ScaledDown(n uint32) bool {
	st := e.state[n]
	return st != nil && len(st.scaledBy) > 0
}

// Active returns the number of quarantined nodes and the number of
// nodes scaled down but not themselves quarantined.
func (e *Engine) Active() (quarantined, scaledDown int) {
	return e.quarantined, e.scaled
}

// Decide folds one event into the engine state and appends the
// resulting actions to dst (often zero of them — a healthy frame is a
// no-op). The output order is fixed: the acted-on node first, then its
// dependents in ascending node order. Events naming nodes outside the
// graph are ignored.
func (e *Engine) Decide(ev Event, dst []Action) []Action {
	st := e.state[ev.Node]
	if st == nil {
		return dst
	}
	switch ev.Kind {
	case EvLinkFault:
		if st.quarantined {
			// Repeated fault inside an existing quarantine (the link was
			// left supervised, or the fault raced the quarantine): the
			// recovery streak starts over, no new actions.
			st.streak = 0
			return dst
		}
		st.quarantined = true
		st.streak = 0
		e.quarantined++
		if len(st.scaledBy) > 0 {
			e.scaled-- // now counted as a quarantine only
		}
		dst = append(dst, Action{Kind: ActQuarantine, Node: ev.Node, Cause: ev.Node, Time: ev.Time})
		if e.pol.DisableScaleDown {
			return dst
		}
		for _, d := range e.g.Dependents(ev.Node) {
			ds := e.state[d]
			wasHeld := len(ds.scaledBy) > 0
			ds.addScaleDown(ev.Node)
			// Emit the action only on the up→down transition of a
			// non-quarantined dependent; a node already held down (or
			// itself quarantined) just gains one more cause.
			if !wasHeld && !ds.quarantined {
				e.scaled++
				dst = append(dst, Action{Kind: ActScaleDown, Node: d, Cause: ev.Node, Time: ev.Time})
			}
		}
		return dst

	case EvFrame:
		if !st.quarantined {
			return dst
		}
		if ev.Restarted {
			// The reporter process restarted mid-quarantine: the new
			// incarnation must re-learn its quarantine state, and the
			// recovery streak starts over at this frame.
			dst = append(dst, Action{Kind: ActNotifyQuarantine, Node: ev.Node, Cause: ev.Node, Time: ev.Time})
			st.streak = 1
		} else {
			st.streak++
		}
		if st.streak < e.pol.recoveryFrames() {
			return dst
		}
		// Steady heartbeats for the full recovery streak: expedited
		// recovery. Resume the node, then release its hold on every
		// dependent.
		st.quarantined = false
		st.streak = 0
		e.quarantined--
		dst = append(dst, Action{Kind: ActResume, Node: ev.Node, Cause: ev.Node, Time: ev.Time})
		if len(st.scaledBy) == 0 {
			dst = append(dst, Action{Kind: ActScaleUp, Node: ev.Node, Cause: ev.Node, Time: ev.Time})
		} else {
			e.scaled++ // still held down by another quarantined node
		}
		for _, d := range e.g.Dependents(ev.Node) {
			ds := e.state[d]
			if !ds.holdsScaleDown(ev.Node) {
				continue
			}
			ds.removeScaleDown(ev.Node)
			if len(ds.scaledBy) > 0 || ds.quarantined {
				continue // still held down by another cause
			}
			e.scaled--
			dst = append(dst, Action{Kind: ActScaleUp, Node: d, Cause: ev.Node, Time: ev.Time})
			if e.pol.RestartDependents {
				dst = append(dst, Action{Kind: ActRestartRunnables, Node: d, Cause: ev.Node, Time: ev.Time})
			}
		}
		return dst
	}
	return dst
}

// Replay folds a recorded event trace through a fresh engine and
// returns the full action sequence — the determinism check: replaying
// the trace a live controller recorded must reproduce its live actions
// exactly.
func Replay(g *Graph, pol Policy, trace []Event) []Action {
	e := NewEngine(g, pol)
	var out []Action
	for _, ev := range trace {
		out = e.Decide(ev, out)
	}
	return out
}
