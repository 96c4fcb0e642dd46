package fmf

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// fakeExec records executor calls and can inject failures.
type fakeExec struct {
	restarted  []runnable.TaskID
	terminated []runnable.TaskID
	resets     int
	fail       error
}

func (e *fakeExec) RestartTask(tid runnable.TaskID) error {
	e.restarted = append(e.restarted, tid)
	return e.fail
}

func (e *fakeExec) TerminateTask(tid runnable.TaskID) error {
	e.terminated = append(e.terminated, tid)
	return e.fail
}

func (e *fakeExec) ResetECU() error {
	e.resets++
	return e.fail
}

// fakeMonitor records watchdog clear/suspend/resume calls.
type fakeMonitor struct {
	cleared   []runnable.TaskID
	suspended []runnable.TaskID
	resumed   []runnable.TaskID
	allCalls  int
}

func (m *fakeMonitor) ClearTask(tid runnable.TaskID) error {
	m.cleared = append(m.cleared, tid)
	return nil
}

func (m *fakeMonitor) ClearAll() { m.allCalls++ }

func (m *fakeMonitor) SuspendTaskMonitoring(tid runnable.TaskID) error {
	m.suspended = append(m.suspended, tid)
	return nil
}

func (m *fakeMonitor) ResumeTaskMonitoring(tid runnable.TaskID) error {
	m.resumed = append(m.resumed, tid)
	return nil
}

func testModel(t *testing.T) (*runnable.Model, runnable.AppID, []runnable.TaskID) {
	t.Helper()
	m := runnable.NewModel()
	app, _ := m.AddApp("SafeSpeed", runnable.SafetyCritical)
	t1, _ := m.AddTask(app, "T1", 5)
	t2, _ := m.AddTask(app, "T2", 3)
	if _, err := m.AddRunnable(t1, "R1", time.Millisecond, runnable.SafetyCritical); err != nil {
		t.Fatalf("AddRunnable: %v", err)
	}
	if _, err := m.AddRunnable(t2, "R2", time.Millisecond, runnable.SafetyCritical); err != nil {
		t.Fatalf("AddRunnable: %v", err)
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return m, app, []runnable.TaskID{t1, t2}
}

// syncDefer runs deferred treatments immediately — fine in tests because
// no watchdog lock is held.
func syncDefer(fn func()) { fn() }

func newFramework(t *testing.T, mutate func(*Config)) (*Framework, *fakeExec, *fakeMonitor, runnable.AppID, []runnable.TaskID) {
	t.Helper()
	m, app, tasks := testModel(t)
	exec := &fakeExec{}
	mon := &fakeMonitor{}
	cfg := Config{
		Model:   m,
		Clock:   sim.NewManualClock(),
		Exec:    exec,
		Monitor: mon,
		Defer:   syncDefer,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f, exec, mon, app, tasks
}

func TestNewValidation(t *testing.T) {
	m, _, _ := testModel(t)
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Model: m}); err == nil {
		t.Error("missing clock accepted")
	}
	if _, err := New(Config{Model: runnable.NewModel(), Clock: sim.NewManualClock()}); err == nil {
		t.Error("unfrozen model accepted")
	}
	if _, err := New(Config{Model: m, Clock: sim.NewManualClock(), Exec: &fakeExec{}}); err == nil {
		t.Error("Exec without Defer accepted")
	}
	if _, err := New(Config{Model: m, Clock: sim.NewManualClock()}); err != nil {
		t.Errorf("detection-only config rejected: %v", err)
	}
}

func TestFaultRecordingAndCounts(t *testing.T) {
	f, _, _, app, tasks := newFramework(t, nil)
	var notified []Notification
	f.Subscribe(func(n Notification) { notified = append(notified, n) })
	f.Fault(core.Report{Kind: core.AlivenessError, Runnable: 0, Task: tasks[0], App: app})
	f.Fault(core.Report{Kind: core.ProgramFlowError, Runnable: 1, Task: tasks[1], App: app})
	if len(notified) != 2 || notified[0].Report == nil || notified[0].Report.Kind != core.AlivenessError {
		t.Fatalf("notifications = %+v", notified)
	}
	for _, n := range notified {
		if n.Severity != Critical {
			t.Errorf("severity = %v, want critical (safety-critical app)", n.Severity)
		}
	}
}

func TestSeverityDerivation(t *testing.T) {
	m := runnable.NewModel()
	critApp, _ := m.AddApp("crit", runnable.SafetyCritical)
	relApp, _ := m.AddApp("rel", runnable.SafetyRelevant)
	qmApp, _ := m.AddApp("qm", runnable.QM)
	for _, app := range []runnable.AppID{critApp, relApp, qmApp} {
		tid, _ := m.AddTask(app, "T"+string(rune('0'+app)), 1)
		if _, err := m.AddRunnable(tid, "R"+string(rune('0'+app)), time.Millisecond, runnable.QM); err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	f, err := New(Config{Model: m, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cases := []struct {
		app  runnable.AppID
		kind core.ErrorKind
		want Severity
	}{
		{critApp, core.AlivenessError, Critical},
		{relApp, core.AlivenessError, Warning},
		{qmApp, core.ProgramFlowError, Warning},
		{qmApp, core.AlivenessError, Info},
		{runnable.AppID(99), core.AlivenessError, Warning},
	}
	for _, tc := range cases {
		got := f.Severity(core.Report{App: tc.app, Kind: tc.kind})
		if got != tc.want {
			t.Errorf("Severity(app=%d kind=%v) = %v, want %v", tc.app, tc.kind, got, tc.want)
		}
	}
}

func TestAppFaultyTriggersRestart(t *testing.T) {
	f, exec, mon, app, tasks := newFramework(t, nil)
	f.StateChanged(core.StateEvent{Scope: core.AppScope, App: app, State: core.StateFaulty, Cause: core.AlivenessError})
	if len(exec.restarted) != 2 {
		t.Fatalf("restarted = %v, want both tasks", exec.restarted)
	}
	if len(mon.cleared) != 2 {
		t.Fatalf("cleared = %v, want both tasks", mon.cleared)
	}
	trs := f.Treatments()
	if len(trs) != 1 || trs[0].Action != RestartAppAction || trs[0].App != app || trs[0].Cause != core.AlivenessError {
		t.Fatalf("treatments = %+v", trs)
	}
	_ = tasks
}

func TestTerminatePolicy(t *testing.T) {
	f, exec, _, app, _ := newFramework(t, nil)
	if err := f.SetPolicy(app, TerminateApp); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	f.StateChanged(core.StateEvent{Scope: core.AppScope, App: app, State: core.StateFaulty, Cause: core.ProgramFlowError})
	if len(exec.terminated) != 2 || len(exec.restarted) != 0 {
		t.Fatalf("terminated = %v restarted = %v", exec.terminated, exec.restarted)
	}
	trs := f.Treatments()
	if len(trs) != 1 || trs[0].Action != TerminateAppAction {
		t.Fatalf("treatments = %+v", trs)
	}
}

func TestSetPolicyValidation(t *testing.T) {
	f, _, _, app, _ := newFramework(t, nil)
	if err := f.SetPolicy(runnable.AppID(99), RestartApp); err == nil {
		t.Error("unknown app accepted")
	}
	if err := f.SetPolicy(app, AppPolicy(9)); err == nil {
		t.Error("invalid policy accepted")
	}
}

func TestECUResetWhenAllowed(t *testing.T) {
	f, exec, mon, _, _ := newFramework(t, func(c *Config) { c.AllowECUReset = true })
	f.StateChanged(core.StateEvent{Scope: core.ECUScope, State: core.StateFaulty, Cause: core.AlivenessError})
	if exec.resets != 1 {
		t.Fatalf("resets = %d, want 1", exec.resets)
	}
	if mon.allCalls != 1 {
		t.Fatalf("ClearAll calls = %d, want 1", mon.allCalls)
	}
	trs := f.Treatments()
	if len(trs) != 1 || trs[0].Action != ResetECUAction || trs[0].App != runnable.NoID {
		t.Fatalf("treatments = %+v", trs)
	}
}

func TestECUResetSuppressedByDefault(t *testing.T) {
	f, exec, _, _, _ := newFramework(t, nil)
	f.StateChanged(core.StateEvent{Scope: core.ECUScope, State: core.StateFaulty})
	if exec.resets != 0 {
		t.Fatalf("resets = %d, want 0 (AllowECUReset unset)", exec.resets)
	}
}

func TestRecoveryEventsDoNotTreat(t *testing.T) {
	f, exec, _, app, _ := newFramework(t, nil)
	f.StateChanged(core.StateEvent{Scope: core.AppScope, App: app, State: core.StateOK})
	if len(exec.restarted) != 0 && exec.resets != 0 {
		t.Fatal("recovery event triggered treatment")
	}
}

func TestTaskScopeEventsRecordOnly(t *testing.T) {
	f, exec, _, _, tasks := newFramework(t, nil)
	f.StateChanged(core.StateEvent{Scope: core.TaskScope, Task: tasks[0], State: core.StateFaulty})
	if len(exec.restarted) != 0 {
		t.Fatal("task-scope event triggered app treatment")
	}
}

func TestExecutorFailureRecorded(t *testing.T) {
	f, exec, _, app, _ := newFramework(t, nil)
	exec.fail = errors.New("boom")
	f.StateChanged(core.StateEvent{Scope: core.AppScope, App: app, State: core.StateFaulty})
	trs := f.Treatments()
	if len(trs) != 1 || trs[0].Err == nil {
		t.Fatalf("executor failure not recorded: %+v", trs)
	}
}

func TestTreatmentNotificationDelivered(t *testing.T) {
	f, _, _, app, _ := newFramework(t, nil)
	var got []Notification
	f.Subscribe(func(n Notification) { got = append(got, n) })
	f.StateChanged(core.StateEvent{Scope: core.AppScope, App: app, State: core.StateFaulty})
	var sawState, sawTreatment bool
	for _, n := range got {
		if n.State != nil {
			sawState = true
		}
		if n.Treatment != nil {
			sawTreatment = true
			if n.Treatment.Action != RestartAppAction {
				t.Errorf("treatment notification = %+v", n.Treatment)
			}
		}
	}
	if !sawState || !sawTreatment {
		t.Fatalf("notifications missing: state=%v treatment=%v", sawState, sawTreatment)
	}
}

func TestDetectionOnlyModeIgnoresStateChanges(t *testing.T) {
	m, app, _ := testModel(t)
	f, err := New(Config{Model: m, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Must not panic without Exec/Defer.
	f.StateChanged(core.StateEvent{Scope: core.AppScope, App: app, State: core.StateFaulty})
	if len(f.Treatments()) != 0 {
		t.Fatal("treatment executed without executor")
	}
}

func TestStringers(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Critical.String() != "critical" ||
		Severity(9).String() == "" {
		t.Error("Severity.String")
	}
	for a, want := range map[Action]string{
		NoAction:           "none",
		RestartAppAction:   "restart-application",
		TerminateAppAction: "terminate-application",
		ResetECUAction:     "reset-ECU",
		Action(9):          "Action(9)",
	} {
		if a.String() != want {
			t.Errorf("Action(%d).String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestEscalationAfterRepeatedRestarts(t *testing.T) {
	f, exec, _, app, _ := newFramework(t, func(c *Config) {
		c.EscalationThreshold = 3
		c.EscalationWindow = time.Second
	})
	ev := core.StateEvent{Scope: core.AppScope, App: app, State: core.StateFaulty, Cause: core.ProgramFlowError}
	// Three restarts within the window...
	for i := 0; i < 3; i++ {
		f.StateChanged(ev)
	}
	for i, tr := range f.Treatments() {
		if tr.Action != RestartAppAction || tr.Escalated {
			t.Fatalf("treatment %d before threshold = %+v", i, tr)
		}
	}
	if len(exec.restarted) != 6 { // 2 tasks x 3 restarts
		t.Fatalf("restarted = %d", len(exec.restarted))
	}
	// ...the fourth relapse escalates to termination.
	f.StateChanged(ev)
	if len(exec.terminated) != 2 {
		t.Fatalf("terminated = %d, want both tasks", len(exec.terminated))
	}
	trs := f.Treatments()
	last := trs[len(trs)-1]
	if last.Action != TerminateAppAction || !last.Escalated {
		t.Fatalf("last treatment = %+v", last)
	}
	// Once escalated, further relapses keep terminating.
	f.StateChanged(ev)
	if len(exec.terminated) != 4 {
		t.Fatalf("terminated = %d after relapse", len(exec.terminated))
	}
	trs = f.Treatments()
	if last := trs[len(trs)-1]; last.Action != TerminateAppAction || last.Escalated {
		t.Fatalf("treatment after escalation = %+v, want a plain termination", last)
	}
}

func TestEscalationWindowSlides(t *testing.T) {
	clk := sim.NewManualClock()
	m, app, _ := testModel(t)
	exec := &fakeExec{}
	f, err := New(Config{
		Model: m, Clock: clk, Exec: exec, Defer: syncDefer,
		EscalationThreshold: 2, EscalationWindow: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ev := core.StateEvent{Scope: core.AppScope, App: app, State: core.StateFaulty}
	f.StateChanged(ev)
	clk.Advance(200 * time.Millisecond) // first restart ages out
	f.StateChanged(ev)
	clk.Advance(200 * time.Millisecond)
	f.StateChanged(ev)
	for i, tr := range f.Treatments() {
		if tr.Escalated {
			t.Fatalf("sparse restarts escalated despite sliding window: treatment %d = %+v", i, tr)
		}
	}
	if len(exec.terminated) != 0 {
		t.Fatalf("terminated = %d", len(exec.terminated))
	}
}

func TestEscalationValidation(t *testing.T) {
	m, _, _ := testModel(t)
	if _, err := New(Config{Model: m, Clock: sim.NewManualClock(), EscalationThreshold: -1}); err == nil {
		t.Fatal("negative escalation threshold accepted")
	}
}

// callLog is an Executor that records every call in order.
type callLog struct {
	calls []string
	fail  error
}

func (c *callLog) RestartTask(tid runnable.TaskID) error {
	c.calls = append(c.calls, fmt.Sprint("restart ", tid))
	return c.fail
}

func (c *callLog) TerminateTask(tid runnable.TaskID) error {
	c.calls = append(c.calls, fmt.Sprint("terminate ", tid))
	return c.fail
}

func (c *callLog) ResetECU() error {
	c.calls = append(c.calls, "reset")
	return c.fail
}

// FuzzFrameworkDecide drives a Framework with a random StateEvent stream
// and requires its treatments, and the executor calls that carry them
// out, to be the fold of decide over the same stream. Each event is
// three bytes: scope, state and cause; application (one value below and
// one above the model's range are unknown); milliseconds the clock
// advances first. policies holds two bits per application (1 restart,
// 2 terminate, else the default), the default policy in bit 6 and an
// executor that fails every call in bit 7.
func FuzzFrameworkDecide(f *testing.F) {
	// TestEscalationAfterRepeatedRestarts: five flow faults of app 0 at
	// one instant, threshold 3 in 1 s.
	f.Add(false, uint8(3), uint16(1000), uint8(0), []byte{16, 1, 0, 16, 1, 0, 16, 1, 0, 16, 1, 0, 16, 1, 0})
	// TestEscalationWindowSlides: three faults 200 ms apart, threshold 2
	// in 100 ms.
	f.Add(false, uint8(2), uint16(100), uint8(0), []byte{4, 1, 0, 4, 1, 200, 4, 1, 200})
	// Every scope and state, an unknown app, an ECU reset, a failing
	// executor.
	f.Add(true, uint8(1), uint16(0), uint8(0b1110_0110), []byte{0, 2, 1, 3, 3, 5, 5, 0, 9, 4, 4, 0, 1, 2, 3, 16, 2, 50})
	f.Fuzz(func(t *testing.T, allowReset bool, threshold uint8, windowMs uint16, policies uint8, stream []byte) {
		m := runnable.NewModel()
		var tasks []runnable.TaskID
		for i, nTasks := range []int{2, 1, 1} {
			app, _ := m.AddApp(fmt.Sprint("A", i), runnable.SafetyRelevant)
			for j := 0; j < nTasks; j++ {
				tid, _ := m.AddTask(app, fmt.Sprint("T", i, j), 1)
				if _, err := m.AddRunnable(tid, fmt.Sprint("R", i, j), time.Millisecond, runnable.QM); err != nil {
					t.Fatalf("AddRunnable: %v", err)
				}
				tasks = append(tasks, tid)
			}
		}
		if err := m.Freeze(); err != nil {
			t.Fatalf("Freeze: %v", err)
		}
		clk := sim.NewManualClock()
		exec := &callLog{}
		if policies&0x80 != 0 {
			exec.fail = errors.New("executor failed")
		}
		cfg := Config{
			Model: m, Clock: clk, Exec: exec, Monitor: &fakeMonitor{}, Defer: syncDefer,
			AllowECUReset:       allowReset,
			EscalationThreshold: int(threshold % 5),
			EscalationWindow:    time.Duration(windowMs) * time.Millisecond,
		}
		if policies&0x40 != 0 {
			cfg.DefaultPolicy = TerminateApp
		}
		fw, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		// The fold starts from the state New builds, with the policies
		// the framework is given.
		state := newDecisionState(fw.cfg)
		for app := 0; app < m.NumApps(); app++ {
			if p := AppPolicy(policies >> (2 * app) & 3); p == RestartApp || p == TerminateApp {
				if err := fw.SetPolicy(runnable.AppID(app), p); err != nil {
					t.Fatalf("SetPolicy: %v", err)
				}
				state.apps[app].policy = p
			}
		}
		var want []Treatment
		var wantCalls []string
		for ; len(stream) >= 3; stream = stream[3:] {
			b := stream[0]
			e := core.StateEvent{
				Scope: core.Scope(1 + b%3),
				State: core.HealthState(1 + b/3%2),
				Cause: core.ErrorKind(1 + b/6%3),
				App:   runnable.AppID(int(stream[1])%(m.NumApps()+2) - 1),
				Task:  tasks[int(stream[1])%len(tasks)],
			}
			clk.Advance(time.Duration(stream[2]) * time.Millisecond)
			fw.StateChanged(e)
			tr, ok := decide(&state, e, clk.Now())
			if !ok {
				continue
			}
			switch {
			case e.State != core.StateFaulty || e.Scope == core.TaskScope:
				t.Fatalf("treatment %+v for %+v", tr, e)
			case tr.Action == ResetECUAction && !allowReset:
				t.Fatalf("ECU reset without AllowECUReset: %+v", e)
			case tr.Escalated && (tr.Action != TerminateAppAction || cfg.EscalationThreshold == 0):
				t.Fatalf("escalation %+v with threshold %d", tr, cfg.EscalationThreshold)
			}
			if tr.Action == ResetECUAction {
				wantCalls = append(wantCalls, "reset")
			} else {
				app, err := m.App(tr.App)
				if err != nil {
					t.Fatalf("treatment of unknown app: %+v", tr)
				}
				for _, tid := range app.Tasks {
					if tr.Action == TerminateAppAction {
						wantCalls = append(wantCalls, fmt.Sprint("terminate ", tid))
					} else {
						wantCalls = append(wantCalls, fmt.Sprint("restart ", tid))
					}
				}
			}
			tr.Err = exec.fail
			want = append(want, tr)
		}
		if got := fw.Treatments(); !reflect.DeepEqual(got, want) {
			t.Fatalf("treatments:\n got %+v\nwant %+v", got, want)
		}
		if !slices.Equal(exec.calls, wantCalls) {
			t.Fatalf("executor calls:\n got %v\nwant %v", exec.calls, wantCalls)
		}
	})
}
