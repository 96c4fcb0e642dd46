// Package fmf implements the Fault Management Framework of the EASIS
// platform: the "general fault handling service" the Software Watchdog
// reports to (§3.2, [12]). It classifies the severity of detected
// faults, informs subscribed applications, and carries out the
// coordinated fault treatments of §3.5 with the operating system:
//
//   - global ECU state faulty → software reset of the ECU (when the
//     applications' constraints allow it);
//   - ECU state OK but an application faulty → restart or terminate the
//     faulty application's tasks per the application's policy.
//
// The treatment choice is the function decide, apart from the lock, the
// clock and the executor. The watchdog's journal (core.Watchdog.Journal)
// is the fault record; the framework keeps only the treatments it ran.
package fmf

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// Severity classifies a detected fault for treatment and logging.
type Severity int

// Severities in increasing order of concern.
const (
	Info Severity = iota + 1
	Warning
	Critical
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Action is a fault treatment the framework can take.
type Action int

// Treatment actions.
const (
	NoAction Action = iota + 1
	RestartAppAction
	TerminateAppAction
	ResetECUAction
)

// String names the action.
func (a Action) String() string {
	switch a {
	case NoAction:
		return "none"
	case RestartAppAction:
		return "restart-application"
	case TerminateAppAction:
		return "terminate-application"
	case ResetECUAction:
		return "reset-ECU"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// AppPolicy selects the treatment for a faulty application while the ECU
// is globally OK.
type AppPolicy int

// Application fault policies.
const (
	RestartApp AppPolicy = iota + 1
	TerminateApp
)

// Executor is the operating-system surface the framework uses to carry out
// treatments; the OSEK adapter in package hil implements it.
type Executor interface {
	RestartTask(runnable.TaskID) error
	TerminateTask(runnable.TaskID) error
	ResetECU() error
}

// Monitor is the watchdog surface the framework needs to acknowledge
// treatments: resetting the TSI state of treated tasks, and suspending or
// resuming monitoring when applications are terminated or restarted (a
// deliberately stopped application must not accumulate aliveness errors).
type Monitor interface {
	ClearTask(runnable.TaskID) error
	ClearAll()
	SuspendTaskMonitoring(runnable.TaskID) error
	ResumeTaskMonitoring(runnable.TaskID) error
}

// Treatment records one executed fault treatment.
type Treatment struct {
	Time   sim.Time
	Action Action
	App    runnable.AppID // runnable.NoID for ECU-level treatments
	Cause  core.ErrorKind
	Err    error // non-nil if the executor failed
	// Escalated marks a termination that overrode the restart policy
	// because the application kept relapsing within the escalation
	// window.
	Escalated bool
}

// Notification is delivered to subscribed applications: either a detected
// fault (Report non-nil) or an executed treatment (Treatment non-nil) —
// the framework "informs the applications about the fault detection"
// (§4.4).
type Notification struct {
	Severity  Severity
	Report    *core.Report
	State     *core.StateEvent
	Treatment *Treatment
}

// Config assembles a Framework.
type Config struct {
	// Model is the frozen runnable model the framework treats.
	Model *runnable.Model
	Clock sim.Clock
	// Exec carries out treatments; nil disables treatment execution
	// (detection-only deployments).
	Exec Executor
	// Monitor is told to clear watchdog state after treatments; usually
	// the *core.Watchdog. May be nil.
	Monitor Monitor
	// Defer schedules a function to run after the current watchdog
	// callback returns. The watchdog delivers reports under its internal
	// lock, so treatments must be deferred: in simulation pass
	// func(f func()) { kernel.After(0, f) }, in live deployments
	// func(f func()) { go f() }. Required when Exec is set.
	Defer func(func())
	// AllowECUReset gates the §3.5 software reset ("the ECU might be
	// subjected to a software reset depending on the requirements and
	// constraints of applications").
	AllowECUReset bool
	// DefaultPolicy applies to applications without an explicit policy.
	// Zero value means RestartApp.
	DefaultPolicy AppPolicy
	// EscalationThreshold escalates a repeatedly restarted application to
	// termination: after this many restart treatments of the same app
	// within EscalationWindow, the restart policy is overridden by
	// TerminateApp (fault containment for permanent faults). Zero
	// disables escalation.
	EscalationThreshold int
	// EscalationWindow is the sliding window for EscalationThreshold.
	// Zero with a non-zero threshold means 1 second.
	EscalationWindow time.Duration
}

// Framework is the Fault Management Framework instance of one ECU. It
// classifies and forwards the watchdog's detections; the watchdog's own
// journal is the fault record.
type Framework struct {
	mu  sync.Mutex
	cfg Config

	subscribers []func(Notification)
	state       decisionState
	treatments  []Treatment
}

var _ core.Sink = (*Framework)(nil)

// New validates the configuration and builds a framework.
func New(cfg Config) (*Framework, error) {
	if cfg.Model == nil {
		return nil, errors.New("fmf: Config.Model is required")
	}
	if !cfg.Model.Frozen() {
		return nil, errors.New("fmf: model must be frozen")
	}
	if cfg.Clock == nil {
		return nil, errors.New("fmf: Config.Clock is required")
	}
	if cfg.Exec != nil && cfg.Defer == nil {
		return nil, errors.New("fmf: Config.Defer is required when Exec is set")
	}
	if cfg.DefaultPolicy == 0 {
		cfg.DefaultPolicy = RestartApp
	}
	if cfg.EscalationThreshold < 0 {
		return nil, errors.New("fmf: negative escalation threshold")
	}
	if cfg.EscalationThreshold > 0 && cfg.EscalationWindow <= 0 {
		cfg.EscalationWindow = time.Second
	}
	return &Framework{cfg: cfg, state: newDecisionState(cfg)}, nil
}

// SetMonitor attaches the watchdog surface after construction. The
// framework is the watchdog's sink and the watchdog is the framework's
// monitor; this two-step wiring breaks the construction cycle.
func (f *Framework) SetMonitor(m Monitor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.Monitor = m
}

// SetPolicy selects the treatment policy for one application.
func (f *Framework) SetPolicy(app runnable.AppID, p AppPolicy) error {
	if _, err := f.cfg.Model.App(app); err != nil {
		return err
	}
	if p != RestartApp && p != TerminateApp {
		return fmt.Errorf("fmf: invalid policy %d", p)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.state.apps[app].policy = p
	return nil
}

// Subscribe registers a notification callback. Callbacks run synchronously
// on the reporting path and must be fast and must not call back into the
// watchdog.
func (f *Framework) Subscribe(fn func(Notification)) {
	if fn == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.subscribers = append(f.subscribers, fn)
}

// notify delivers n to every subscriber, outside the lock. Subscribe
// only appends, so the slice read under the lock never changes.
func (f *Framework) notify(n Notification) {
	f.mu.Lock()
	subs := f.subscribers
	f.mu.Unlock()
	for _, fn := range subs {
		fn(n)
	}
}

// Severity derives a fault's severity from the owning application's
// criticality and the error kind: timing errors in safety-critical
// applications are critical; flow errors are always at least warnings.
func (f *Framework) Severity(r core.Report) Severity {
	app, err := f.cfg.Model.App(r.App)
	if err != nil {
		return Warning
	}
	switch {
	case app.Criticality == runnable.SafetyCritical:
		return Critical
	case r.Kind == core.ProgramFlowError || app.Criticality == runnable.SafetyRelevant:
		return Warning
	default:
		return Info
	}
}

// Fault implements core.Sink: classify and notify.
func (f *Framework) Fault(r core.Report) {
	f.notify(Notification{Severity: f.Severity(r), Report: &r})
}

// StateChanged implements core.Sink: subscribers are told at once, and
// the §3.5 treatment decision runs deferred past the watchdog lock.
func (f *Framework) StateChanged(e core.StateEvent) {
	f.notify(Notification{Severity: Warning, State: &e})
	if f.cfg.Exec != nil {
		f.cfg.Defer(func() { f.treat(e) })
	}
}

// treat decides on e at the current time and carries the treatment out.
func (f *Framework) treat(e core.StateEvent) {
	f.mu.Lock()
	tr, ok := decide(&f.state, e, f.cfg.Clock.Now())
	mon := f.cfg.Monitor
	f.mu.Unlock()
	if !ok {
		return
	}
	if tr.Action == ResetECUAction {
		tr.Err = f.cfg.Exec.ResetECU()
		if mon != nil {
			mon.ClearAll()
		}
	} else {
		// decide only treats applications of the model.
		app, _ := f.cfg.Model.App(tr.App)
		for _, tid := range app.Tasks {
			var err error
			if tr.Action == TerminateAppAction {
				err = f.cfg.Exec.TerminateTask(tid)
				if mon != nil {
					// A deliberately terminated application is no longer
					// monitored; otherwise its silence reads as aliveness
					// faults forever.
					_ = mon.SuspendTaskMonitoring(tid)
				}
			} else {
				err = f.cfg.Exec.RestartTask(tid)
				if mon != nil {
					_ = mon.ResumeTaskMonitoring(tid)
				}
			}
			if err != nil && tr.Err == nil {
				tr.Err = err
			}
		}
		if mon != nil {
			for _, tid := range app.Tasks {
				// Clearing returns the TSI state to OK so monitoring
				// restarts from a clean slate.
				_ = mon.ClearTask(tid)
			}
		}
	}
	f.mu.Lock()
	f.treatments = append(f.treatments, tr)
	f.mu.Unlock()
	f.notify(Notification{Severity: Critical, Treatment: &tr})
}

// Treatments returns a copy of the executed treatments, oldest first.
func (f *Framework) Treatments() []Treatment {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.treatments)
}

// decisionState is what the §3.5 treatment choice depends on besides
// the event and the time: the fixed rules, and per application of the
// model its policy, its restart instants inside the escalation window
// and whether it has been escalated to termination.
type decisionState struct {
	allowECUReset bool
	threshold     int      // restarts in window that escalate; 0 = never
	window        sim.Time // the sliding escalation window
	apps          []appDecision
}

// appDecision is one application's part of decisionState.
type appDecision struct {
	policy    AppPolicy
	restarts  []sim.Time
	escalated bool
}

// newDecisionState is the decision state of a framework built from cfg,
// before any event and any SetPolicy.
func newDecisionState(cfg Config) decisionState {
	s := decisionState{
		allowECUReset: cfg.AllowECUReset,
		threshold:     cfg.EscalationThreshold,
		window:        sim.Time(cfg.EscalationWindow),
		apps:          make([]appDecision, cfg.Model.NumApps()),
	}
	for i := range s.apps {
		s.apps[i].policy = cfg.DefaultPolicy
	}
	return s
}

// decide is the §3.5 treatment choice for one state event at now. A
// faulty ECU is reset when that is allowed; a faulty application is
// restarted or terminated per its policy, and a restart policy escalates
// to termination once EscalationThreshold restarts fall within
// EscalationWindow. Task-level indications and recoveries call for
// nothing. It returns the treatment to run (Err unset), or false for
// none. It reads no clock, takes no lock and calls no executor; its only
// effect is the update of s, so a stream of events folds through it
// deterministically.
func decide(s *decisionState, e core.StateEvent, now sim.Time) (Treatment, bool) {
	if e.State != core.StateFaulty {
		return Treatment{}, false
	}
	switch e.Scope {
	case core.ECUScope:
		if s.allowECUReset {
			return Treatment{Time: now, Action: ResetECUAction, App: runnable.NoID, Cause: e.Cause}, true
		}
	case core.AppScope:
		if e.App < 0 || int(e.App) >= len(s.apps) {
			return Treatment{}, false
		}
		a := &s.apps[e.App]
		tr := Treatment{Time: now, Action: RestartAppAction, App: e.App, Cause: e.Cause}
		switch {
		case a.policy == TerminateApp || a.escalated:
			tr.Action = TerminateAppAction
		case s.threshold > 0:
			kept := a.restarts[:0]
			for _, t := range a.restarts {
				if t >= now-s.window {
					kept = append(kept, t)
				}
			}
			if len(kept) >= s.threshold {
				// The application keeps relapsing: contain it.
				tr.Action, tr.Escalated, a.escalated = TerminateAppAction, true, true
			} else {
				kept = append(kept, now)
			}
			a.restarts = kept
		}
		return tr, true
	}
	return Treatment{}, false
}
