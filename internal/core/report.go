package core

import (
	"fmt"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// ErrorKind classifies the fault types the Software Watchdog detects
// (§3.3 aliveness and arrival rate, §3.4 program flow).
type ErrorKind int

// Watchdog error kinds.
const (
	AlivenessError ErrorKind = iota + 1
	ArrivalRateError
	ProgramFlowError
)

// String names the error kind as in the paper's plots.
func (k ErrorKind) String() string {
	switch k {
	case AlivenessError:
		return "aliveness"
	case ArrivalRateError:
		return "arrival-rate"
	case ProgramFlowError:
		return "program-flow"
	default:
		return fmt.Sprintf("ErrorKind(%d)", int(k))
	}
}

// HealthState is the derived state of a task, application or the ECU.
type HealthState int

// Health states.
const (
	StateOK HealthState = iota + 1
	StateFaulty
)

// String returns "OK" or "faulty".
func (s HealthState) String() string {
	switch s {
	case StateOK:
		return "OK"
	case StateFaulty:
		return "faulty"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// Scope identifies which level of the mapping hierarchy a state event
// refers to.
type Scope int

// State-event scopes.
const (
	TaskScope Scope = iota + 1
	AppScope
	ECUScope
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case TaskScope:
		return "task"
	case AppScope:
		return "application"
	case ECUScope:
		return "ECU"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// Report is one detected error, delivered to the Fault Management
// Framework ("the Software Watchdog [informs] other dependability software
// services ... such as the Fault Management Framework", §3.2).
type Report struct {
	Time     sim.Time
	Cycle    uint64
	Kind     ErrorKind
	Runnable runnable.ID
	Task     runnable.TaskID
	App      runnable.AppID
	// Observed and Expected carry the counter evidence: heartbeats seen vs
	// hypothesis bound, or for flow errors the observed predecessor.
	Observed int
	Expected int
	// Predecessor is the runnable whose successor check failed; only set
	// for ProgramFlowError (runnable.NoID otherwise).
	Predecessor runnable.ID
	// Correlated marks an error the collaboration logic attributed to a
	// program-flow root cause (Fig. 6).
	Correlated bool
}

// String renders a compact human-readable form for logs.
func (r Report) String() string {
	switch r.Kind {
	case ProgramFlowError:
		return fmt.Sprintf("[cycle %d] %s error: runnable %d after %d (task %d)",
			r.Cycle, r.Kind, r.Runnable, r.Predecessor, r.Task)
	default:
		return fmt.Sprintf("[cycle %d] %s error: runnable %d observed %d expected %d (task %d)",
			r.Cycle, r.Kind, r.Runnable, r.Observed, r.Expected, r.Task)
	}
}

// StateEvent is a derived state change of a task, application or the
// global ECU, emitted by the Task State Indication unit.
type StateEvent struct {
	Time  sim.Time
	Cycle uint64
	Scope Scope
	// Task is set for TaskScope events, App for AppScope; both are
	// runnable.NoID otherwise.
	Task  runnable.TaskID
	App   runnable.AppID
	State HealthState
	// Cause is the error kind whose threshold crossing triggered a
	// faulty transition (zero for recoveries).
	Cause ErrorKind
}

// Sink receives watchdog output; the Fault Management Framework implements
// it. Callbacks run under the watchdog's lock, so they must not call any
// Watchdog method. Defer any reaction, such as treatment, through a
// simulation event or a separate goroutine.
//
// A Fault from the Cycle sweep is delivered as soon as its window is
// judged, mid-sweep: runnables later in the same cycle have not been
// judged yet, so their windows may still be open and their counters
// still hold the closing window's beats. A reaction on a separate
// goroutine can act before the sweep ends: once the sweep has held the
// lock past its budget after a detection, it gives the lock and the
// processor away at the next bitset word. A runnable the reaction
// deactivates before the sweep reaches it is not judged on that cycle;
// one already judged keeps its verdict.
type Sink interface {
	// Fault delivers one detected error.
	Fault(Report)
	// StateChanged delivers a task/application/ECU state transition.
	StateChanged(StateEvent)
}

// nopSink discards everything; used when no FMF is attached.
type nopSink struct{}

var _ Sink = nopSink{}

func (nopSink) Fault(Report)            {}
func (nopSink) StateChanged(StateEvent) {}
