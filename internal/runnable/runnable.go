// Package runnable models the AUTOSAR-style application structure the
// paper's Software Watchdog monitors: applications are divided into code
// sequence components called runnables; runnables are mapped onto OSEK
// tasks, and tasks onto an ECU. The mapping tables built here are what the
// Task State Indication unit uses to lift per-runnable error indications
// to task, application and global ECU state.
package runnable

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// ID identifies a runnable within one Model. IDs are dense, starting at 0,
// so monitors can index per-runnable state with plain slices.
type ID int

// TaskID identifies an OSEK task within one Model.
type TaskID int

// AppID identifies an application software component within one Model.
type AppID int

// NoID marks an absent reference of any of the identifier kinds.
const NoID = -1

// Criticality classifies how a component's dependability requirements are
// treated; only safety-critical runnables are program-flow monitored
// (§3.4: "only the sequence of the safety-critical runnables will be
// monitored").
type Criticality int

// Criticality levels, ordered by increasing required assurance.
const (
	QM Criticality = iota + 1 // quality-managed, not safety relevant
	SafetyRelevant
	SafetyCritical
)

// String returns the conventional automotive shorthand for the level.
func (c Criticality) String() string {
	switch c {
	case QM:
		return "QM"
	case SafetyRelevant:
		return "safety-relevant"
	case SafetyCritical:
		return "safety-critical"
	default:
		return fmt.Sprintf("Criticality(%d)", int(c))
	}
}

// Runnable is one schedulable code sequence of an application.
type Runnable struct {
	ID   ID
	Name string
	Task TaskID
	// App is the owning application software component. Runnables from
	// different applications can be mapped onto the same task (the
	// AUTOSAR mapping freedom the paper's §1 motivates per-runnable
	// monitoring with); App then differs from the task's primary App.
	App         AppID
	ExecTime    time.Duration // nominal uninterrupted execution time
	Criticality Criticality
}

// Task is an OSEK task hosting one or more runnables, possibly from
// different applications.
type Task struct {
	ID       TaskID
	Name     string
	App      AppID
	Priority int // higher value preempts lower
	// Runnables lists the task's runnables in their intended execution
	// sequence; this order seeds the program-flow look-up table.
	Runnables []ID
}

// App is an application software component: the tasks hosting its
// runnables plus the dependability attributes that drive fault treatment.
type App struct {
	ID          AppID
	Name        string
	Criticality Criticality
	// Tasks lists every task hosting at least one of the application's
	// runnables — including tasks shared with other applications.
	Tasks []TaskID
}

// Model is the immutable-after-Freeze mapping of runnables onto tasks and
// tasks onto applications for one ECU.
type Model struct {
	runnables []Runnable
	tasks     []Task
	apps      []App
	byName    map[string]ID
	frozen    bool
}

// NewModel returns an empty mapping model.
func NewModel() *Model {
	return &Model{byName: make(map[string]ID)}
}

// ErrFrozen is returned when mutating a Model after Freeze.
var ErrFrozen = errors.New("runnable: model is frozen")

// AddApp registers an application and returns its identifier.
func (m *Model) AddApp(name string, crit Criticality) (AppID, error) {
	if m.frozen {
		return NoID, ErrFrozen
	}
	if name == "" {
		return NoID, errors.New("runnable: empty application name")
	}
	id := AppID(len(m.apps))
	m.apps = append(m.apps, App{ID: id, Name: name, Criticality: crit})
	return id, nil
}

// AddTask registers a task under app with the given fixed priority.
func (m *Model) AddTask(app AppID, name string, priority int) (TaskID, error) {
	if m.frozen {
		return NoID, ErrFrozen
	}
	if int(app) < 0 || int(app) >= len(m.apps) {
		return NoID, fmt.Errorf("runnable: AddTask %q: unknown app %d", name, app)
	}
	if name == "" {
		return NoID, errors.New("runnable: empty task name")
	}
	id := TaskID(len(m.tasks))
	m.tasks = append(m.tasks, Task{ID: id, Name: name, App: app, Priority: priority})
	m.apps[app].Tasks = append(m.apps[app].Tasks, id)
	return id, nil
}

// AddRunnable appends a runnable owned by the task's primary application
// to the task's execution sequence. Runnable names must be unique across
// the model because heartbeat traces are keyed by name.
func (m *Model) AddRunnable(task TaskID, name string, execTime time.Duration, crit Criticality) (ID, error) {
	if int(task) < 0 || int(task) >= len(m.tasks) {
		return NoID, fmt.Errorf("runnable: AddRunnable %q: unknown task %d", name, task)
	}
	return m.AddSharedRunnable(task, m.tasks[task].App, name, execTime, crit)
}

// AddSharedRunnable appends a runnable owned by app — possibly different
// from the task's primary application — to the task's execution sequence:
// "runnables from different software components can be mapped to the same
// task" (§1).
func (m *Model) AddSharedRunnable(task TaskID, app AppID, name string, execTime time.Duration, crit Criticality) (ID, error) {
	if m.frozen {
		return NoID, ErrFrozen
	}
	if int(task) < 0 || int(task) >= len(m.tasks) {
		return NoID, fmt.Errorf("runnable: AddSharedRunnable %q: unknown task %d", name, task)
	}
	if int(app) < 0 || int(app) >= len(m.apps) {
		return NoID, fmt.Errorf("runnable: AddSharedRunnable %q: unknown app %d", name, app)
	}
	if name == "" {
		return NoID, errors.New("runnable: empty runnable name")
	}
	if _, dup := m.byName[name]; dup {
		return NoID, fmt.Errorf("runnable: duplicate runnable name %q", name)
	}
	if execTime < 0 {
		return NoID, fmt.Errorf("runnable: %q: negative execution time %v", name, execTime)
	}
	id := ID(len(m.runnables))
	m.runnables = append(m.runnables, Runnable{
		ID: id, Name: name, Task: task, App: app, ExecTime: execTime, Criticality: crit,
	})
	m.tasks[task].Runnables = append(m.tasks[task].Runnables, id)
	m.byName[name] = id
	// The hosting task joins the owning application's task set. AddTask
	// already listed it under its primary application, so only a
	// runnable shared into another application needs the membership
	// scan — which keeps building a one-app fleet linear.
	if app != m.tasks[task].App && !slices.Contains(m.apps[app].Tasks, task) {
		m.apps[app].Tasks = append(m.apps[app].Tasks, task)
	}
	return id, nil
}

// Freeze validates the model and forbids further mutation. A frozen model
// may be shared read-only between the OS, the watchdog and the injector.
func (m *Model) Freeze() error {
	if m.frozen {
		return nil
	}
	for _, t := range m.tasks {
		if len(t.Runnables) == 0 {
			return fmt.Errorf("runnable: task %q has no runnables", t.Name)
		}
	}
	m.frozen = true
	return nil
}

// Frozen reports whether Freeze has been called.
func (m *Model) Frozen() bool { return m.frozen }

// NumRunnables reports the number of registered runnables.
func (m *Model) NumRunnables() int { return len(m.runnables) }

// NumTasks reports the number of registered tasks.
func (m *Model) NumTasks() int { return len(m.tasks) }

// NumApps reports the number of registered applications.
func (m *Model) NumApps() int { return len(m.apps) }

// Runnable returns the runnable with the given identifier.
func (m *Model) Runnable(id ID) (Runnable, error) {
	if int(id) < 0 || int(id) >= len(m.runnables) {
		return Runnable{}, fmt.Errorf("runnable: unknown runnable id %d", id)
	}
	return m.runnables[id], nil
}

// Task returns the task with the given identifier. The Runnables slice is
// shared; callers must not mutate it.
func (m *Model) Task(id TaskID) (Task, error) {
	if int(id) < 0 || int(id) >= len(m.tasks) {
		return Task{}, fmt.Errorf("runnable: unknown task id %d", id)
	}
	return m.tasks[id], nil
}

// App returns the application with the given identifier. The Tasks slice
// is shared; callers must not mutate it.
func (m *Model) App(id AppID) (App, error) {
	if int(id) < 0 || int(id) >= len(m.apps) {
		return App{}, fmt.Errorf("runnable: unknown app id %d", id)
	}
	return m.apps[id], nil
}

// Lookup resolves a runnable by name.
func (m *Model) Lookup(name string) (ID, bool) {
	id, ok := m.byName[name]
	return id, ok
}

// TaskOf reports the task hosting runnable id, or NoID for an unknown id.
func (m *Model) TaskOf(id ID) TaskID {
	if int(id) < 0 || int(id) >= len(m.runnables) {
		return NoID
	}
	return m.runnables[id].Task
}

// AppOf reports the application owning task id, or NoID for an unknown id.
func (m *Model) AppOf(id TaskID) AppID {
	if int(id) < 0 || int(id) >= len(m.tasks) {
		return NoID
	}
	return m.tasks[id].App
}

// AppOfRunnable reports the application owning runnable id, or NoID. For
// shared tasks this is the runnable's own application, not the task's
// primary one.
func (m *Model) AppOfRunnable(id ID) AppID {
	if int(id) < 0 || int(id) >= len(m.runnables) {
		return NoID
	}
	return m.runnables[id].App
}

// AppsOfTask reports the distinct applications owning the task's
// runnables, in first-appearance order.
func (m *Model) AppsOfTask(id TaskID) []AppID {
	if int(id) < 0 || int(id) >= len(m.tasks) {
		return nil
	}
	var out []AppID
	seen := make(map[AppID]bool)
	for _, rid := range m.tasks[id].Runnables {
		app := m.runnables[rid].App
		if !seen[app] {
			seen[app] = true
			out = append(out, app)
		}
	}
	return out
}

// Runnables returns a copy of the registered runnables in ID order.
func (m *Model) Runnables() []Runnable {
	out := make([]Runnable, len(m.runnables))
	copy(out, m.runnables)
	return out
}

// Tasks returns a copy of the registered tasks in ID order.
func (m *Model) Tasks() []Task {
	out := make([]Task, len(m.tasks))
	copy(out, m.tasks)
	return out
}

// Apps returns a copy of the registered applications in ID order.
func (m *Model) Apps() []App {
	out := make([]App, len(m.apps))
	copy(out, m.apps)
	return out
}

// CriticalRunnables returns the IDs of all runnables at or above the given
// criticality — the set the program-flow checker monitors.
func (m *Model) CriticalRunnables(min Criticality) []ID {
	var out []ID
	for _, r := range m.runnables {
		if r.Criticality >= min {
			out = append(out, r.ID)
		}
	}
	return out
}
