package core

import (
	"math"
	"testing"
	"time"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// collector is a test Sink recording everything.
type collector struct {
	faults []Report
	states []StateEvent
}

func (c *collector) Fault(r Report)            { c.faults = append(c.faults, r) }
func (c *collector) StateChanged(e StateEvent) { c.states = append(c.states, e) }

// fixture builds the SafeSpeed-shaped model: one app, one task, three
// runnables A→B→C.
type fixture struct {
	t     *testing.T
	m     *runnable.Model
	clock *sim.ManualClock
	sink  *collector
	w     *Watchdog
	app   runnable.AppID
	task  runnable.TaskID
	a     runnable.ID
	b     runnable.ID
	c     runnable.ID
}

func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	f := &fixture{t: t, m: runnable.NewModel(), clock: sim.NewManualClock(), sink: &collector{}}
	var err error
	f.app, err = f.m.AddApp("SafeSpeed", runnable.SafetyCritical)
	if err != nil {
		t.Fatalf("AddApp: %v", err)
	}
	f.task, err = f.m.AddTask(f.app, "SafeSpeedTask", 5)
	if err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	for i, name := range []string{"GetSensorValue", "SAFE_CC_process", "Speed_process"} {
		id, err := f.m.AddRunnable(f.task, name, 100*time.Microsecond, runnable.SafetyCritical)
		if err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
		switch i {
		case 0:
			f.a = id
		case 1:
			f.b = id
		case 2:
			f.c = id
		}
	}
	if err := f.m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	cfg := Config{Model: f.m, Clock: f.clock, Sink: f.sink}
	if mutate != nil {
		mutate(&cfg)
	}
	f.w, err = New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// monitorAll installs a standard hypothesis on all three runnables and
// activates them: at least 1 heartbeat per 5 cycles, at most 7 per 5
// (one-per-cycle nominal dispatch fits; doubled dispatch does not).
func (f *fixture) monitorAll() {
	f.t.Helper()
	h := Hypothesis{AlivenessCycles: 5, MinHeartbeats: 1, ArrivalCycles: 5, MaxArrivals: 7}
	for _, rid := range []runnable.ID{f.a, f.b, f.c} {
		if err := f.w.SetHypothesis(rid, h); err != nil {
			f.t.Fatalf("SetHypothesis: %v", err)
		}
		if err := f.w.Activate(rid); err != nil {
			f.t.Fatalf("Activate: %v", err)
		}
	}
}

// spin advances n watchdog cycles, invoking beat before each Cycle call.
func (f *fixture) spin(n int, beat func(cycle int)) {
	for i := 0; i < n; i++ {
		if beat != nil {
			beat(i)
		}
		f.clock.Advance(10 * time.Millisecond)
		f.w.Cycle()
	}
}

func TestNewValidation(t *testing.T) {
	m := runnable.NewModel()
	if _, err := New(Config{Model: m, Clock: sim.NewManualClock()}); err == nil {
		t.Error("unfrozen model accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	app, _ := m.AddApp("A", runnable.QM)
	task, _ := m.AddTask(app, "T", 1)
	if _, err := m.AddRunnable(task, "R", time.Millisecond, runnable.QM); err != nil {
		t.Fatalf("AddRunnable: %v", err)
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if _, err := New(Config{Model: m}); err == nil {
		t.Error("missing clock accepted")
	}
	if _, err := New(Config{Model: m, Clock: sim.NewManualClock(),
		Thresholds: Thresholds{Aliveness: -1, ArrivalRate: 1, ProgramFlow: 1}}); err == nil {
		t.Error("negative threshold accepted")
	}
	for _, size := range []int{maxJournalSize + 1, math.MaxInt} {
		if _, err := New(Config{Model: m, Clock: sim.NewManualClock(), JournalSize: size}); err == nil {
			t.Errorf("JournalSize %d accepted", size)
		}
	}
	if _, err := New(Config{Model: m, Clock: sim.NewManualClock(), JournalSize: maxJournalSize}); err != nil {
		t.Errorf("JournalSize %d (the maximum): %v", maxJournalSize, err)
	}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if w.CyclePeriod() != 10*time.Millisecond {
		t.Errorf("default CyclePeriod = %v", w.CyclePeriod())
	}
}

func TestHypothesisValidate(t *testing.T) {
	cases := []struct {
		name string
		h    Hypothesis
		ok   bool
	}{
		{"disabled", Hypothesis{}, true},
		{"aliveness only", Hypothesis{AlivenessCycles: 5, MinHeartbeats: 1}, true},
		{"arrival only", Hypothesis{ArrivalCycles: 5, MaxArrivals: 2}, true},
		{"both", Hypothesis{AlivenessCycles: 5, MinHeartbeats: 1, ArrivalCycles: 5, MaxArrivals: 2}, true},
		{"negative period", Hypothesis{AlivenessCycles: -1}, false},
		{"aliveness without min", Hypothesis{AlivenessCycles: 5}, false},
		{"arrival without max", Hypothesis{ArrivalCycles: 5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.h.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestAlivenessErrorDetectedAtPeriodEnd(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	// Healthy phase: heartbeat every cycle for 10 cycles.
	f.spin(10, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.c)
	})
	if got := f.w.Results(); got.Aliveness != 0 {
		t.Fatalf("healthy phase produced %d aliveness errors", got.Aliveness)
	}
	// Fault phase: runnable A stops beating; B and C continue.
	f.spin(10, func(int) {
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.c)
	})
	got := f.w.Results()
	if got.Aliveness != 2 {
		t.Fatalf("Aliveness = %d, want 2 (two 5-cycle periods without heartbeats)", got.Aliveness)
	}
	if got.ArrivalRate != 0 || got.ProgramFlow != 0 {
		t.Fatalf("unexpected other detections: %+v", got)
	}
	if len(f.sink.faults) != 2 {
		t.Fatalf("sink got %d faults, want 2", len(f.sink.faults))
	}
	r := f.sink.faults[0]
	if r.Kind != AlivenessError || r.Runnable != f.a || r.Task != f.task || r.App != f.app {
		t.Fatalf("report = %+v", r)
	}
	if r.Observed != 0 || r.Expected != 1 {
		t.Fatalf("report evidence = observed %d expected %d", r.Observed, r.Expected)
	}
}

func TestCountersResetOnPeriodExpiry(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	f.spin(4, func(int) { f.w.Heartbeat(f.a) })
	c, err := f.w.CounterSnapshot(f.a)
	if err != nil {
		t.Fatalf("CounterSnapshot: %v", err)
	}
	if c.AC != 4 || c.CCA != 4 {
		t.Fatalf("mid-period counters = %+v", c)
	}
	f.spin(1, func(int) { f.w.Heartbeat(f.a) })
	c, _ = f.w.CounterSnapshot(f.a)
	if c.AC != 0 || c.CCA != 0 || c.ARC != 0 || c.CCAR != 0 {
		t.Fatalf("counters not reset at period expiry: %+v", c)
	}
}

func TestArrivalRateErrorAtPeriodEnd(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	// 3 heartbeats per cycle against MaxArrivals 2 per 5 cycles.
	f.spin(5, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.a)
	})
	got := f.w.Results()
	if got.ArrivalRate != 1 {
		t.Fatalf("ArrivalRate = %d, want 1 (checked at period end)", got.ArrivalRate)
	}
	r := f.sink.faults[0]
	if r.Kind != ArrivalRateError || r.Observed != 15 || r.Expected != 7 {
		t.Fatalf("report = %+v", r)
	}
}

func TestEagerArrivalCheckDetectsImmediately(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.EagerArrivalCheck = true })
	f.monitorAll()
	// Eight heartbeats in the very first cycle trip MaxArrivals=7 at once.
	for i := 0; i < 8; i++ {
		f.w.Heartbeat(f.a)
	}
	got := f.w.Results()
	if got.ArrivalRate != 1 {
		t.Fatalf("eager ArrivalRate = %d, want 1 before any Cycle", got.ArrivalRate)
	}
}

// TestArrivalCounterNoCarry pins that ARC, which nothing clears while
// arrival monitoring is off, never spills into AC or the lifetime beat
// count: 257 windows of MaxBatchBeats beats take ARC past 2^32.
func TestArrivalCounterNoCarry(t *testing.T) {
	f := newFixture(t, nil)
	if err := f.w.SetHypothesis(f.a, Hypothesis{AlivenessCycles: 1, MinHeartbeats: 1}); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	if err := f.w.Activate(f.a); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	m, err := f.w.Register(f.a)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	const rounds = 257
	for round := 1; round <= rounds; round++ {
		m.BeatN(MaxBatchBeats)
		if c := m.Counters(); c.AC != MaxBatchBeats || c.ARC != round*MaxBatchBeats {
			t.Fatalf("round %d: AC = %d, ARC = %d, want %d and %d", round, c.AC, c.ARC, MaxBatchBeats, round*MaxBatchBeats)
		}
		f.w.Cycle()
	}
	if got, want := f.w.Snapshot().Runnables[f.a].Beats, uint64(rounds*MaxBatchBeats); got != want {
		t.Fatalf("lifetime beats = %d, want %d", got, want)
	}
	if r := f.w.Results(); r.Aliveness != 0 {
		t.Fatalf("%d aliveness faults on a runnable that beat every window", r.Aliveness)
	}
}

func TestInactiveRunnableNotMonitored(t *testing.T) {
	f := newFixture(t, nil)
	h := Hypothesis{AlivenessCycles: 5, MinHeartbeats: 1}
	if err := f.w.SetHypothesis(f.a, h); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	// Never activated: no heartbeats, no errors.
	f.spin(20, nil)
	if got := f.w.Results(); got.Aliveness != 0 {
		t.Fatalf("inactive runnable produced %d aliveness errors", got.Aliveness)
	}
	// Activate, then deactivate resets counters and stops checking.
	if err := f.w.Activate(f.a); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	f.spin(3, nil)
	if err := f.w.Deactivate(f.a); err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	c, _ := f.w.CounterSnapshot(f.a)
	if c.Active || c.CCA != 0 {
		t.Fatalf("deactivation did not reset: %+v", c)
	}
	f.spin(20, nil)
	if got := f.w.Results(); got.Aliveness != 0 {
		t.Fatalf("deactivated runnable produced %d aliveness errors", got.Aliveness)
	}
}

func TestProgramFlowLookupTable(t *testing.T) {
	f := newFixture(t, nil)
	if err := f.w.AddFlowSequence(f.a, f.b, f.c); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	// Legal: A B C A B C
	for _, rid := range []runnable.ID{f.a, f.b, f.c, f.a, f.b, f.c} {
		f.w.Heartbeat(rid)
	}
	if got := f.w.Results(); got.ProgramFlow != 0 {
		t.Fatalf("legal sequence flagged: %+v", got)
	}
	// Illegal: A followed by C (skipping B — an invalid execution branch).
	f.w.Heartbeat(f.a)
	f.w.Heartbeat(f.c)
	got := f.w.Results()
	if got.ProgramFlow != 1 {
		t.Fatalf("ProgramFlow = %d, want 1", got.ProgramFlow)
	}
	r := f.sink.faults[0]
	if r.Kind != ProgramFlowError || r.Runnable != f.c || r.Predecessor != f.a {
		t.Fatalf("report = %+v", r)
	}
}

func TestProgramFlowRepeatedRunnableFlagged(t *testing.T) {
	f := newFixture(t, nil)
	if err := f.w.AddFlowSequence(f.a, f.b, f.c); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	f.w.Heartbeat(f.a)
	f.w.Heartbeat(f.b)
	f.w.Heartbeat(f.b) // double execution
	if got := f.w.Results(); got.ProgramFlow != 1 {
		t.Fatalf("ProgramFlow = %d, want 1 for B→B", got.ProgramFlow)
	}
}

func TestProgramFlowSelfLoopAllowedWhenDeclared(t *testing.T) {
	f := newFixture(t, nil)
	if err := f.w.AddFlowPair(f.a, f.a); err != nil {
		t.Fatalf("AddFlowPair self: %v", err)
	}
	f.w.Heartbeat(f.a)
	f.w.Heartbeat(f.a)
	f.w.Heartbeat(f.a)
	if got := f.w.Results(); got.ProgramFlow != 0 {
		t.Fatalf("declared self-loop flagged: %+v", got)
	}
}

func TestUnmonitoredRunnableDoesNotDisturbFlow(t *testing.T) {
	f := newFixture(t, nil)
	if err := f.w.AddFlowPair(f.a, f.c); err != nil {
		t.Fatalf("AddFlowPair: %v", err)
	}
	// B is not enrolled: its heartbeats must not update the predecessor
	// register, so A→(B)→C remains legal.
	f.w.Heartbeat(f.a)
	f.w.Heartbeat(f.b)
	f.w.Heartbeat(f.c)
	if got := f.w.Results(); got.ProgramFlow != 0 {
		t.Fatalf("unmonitored runnable disturbed flow: %+v", got)
	}
}

func TestFlowPairAcrossTasksRejected(t *testing.T) {
	m := runnable.NewModel()
	app, _ := m.AddApp("A", runnable.QM)
	t1, _ := m.AddTask(app, "T1", 1)
	t2, _ := m.AddTask(app, "T2", 1)
	r1, _ := m.AddRunnable(t1, "R1", time.Millisecond, runnable.QM)
	r2, _ := m.AddRunnable(t2, "R2", time.Millisecond, runnable.QM)
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := w.AddFlowPair(r1, r2); err == nil {
		t.Fatal("cross-task flow pair accepted")
	}
}

// TestAddFlowSequenceAllOrNothing pins the all-or-nothing rule: a
// sequence with a cross-task member installs none of its pairs, so its
// earlier, valid pair a→b must not become legal.
func TestAddFlowSequenceAllOrNothing(t *testing.T) {
	m := runnable.NewModel()
	app, _ := m.AddApp("A", runnable.QM)
	t1, _ := m.AddTask(app, "T1", 1)
	t2, _ := m.AddTask(app, "T2", 1)
	a, _ := m.AddRunnable(t1, "a", time.Millisecond, runnable.QM)
	b, _ := m.AddRunnable(t1, "b", time.Millisecond, runnable.QM)
	x, _ := m.AddRunnable(t2, "x", time.Millisecond, runnable.QM)
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	sink := &collector{}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock(), Sink: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, rid := range []runnable.ID{a, b} {
		if err := w.MonitorFlow(rid); err != nil {
			t.Fatalf("MonitorFlow: %v", err)
		}
	}
	before := w.flow.Load()
	if err := w.AddFlowSequence(a, b, x); err == nil {
		t.Fatal("AddFlowSequence with a cross-task member accepted")
	}
	w.FlowEvent(a)
	w.FlowEvent(b)
	if got := w.Results().ProgramFlow; got != 1 {
		t.Fatalf("ProgramFlow = %d after a→b, want 1: the rejected sequence left a→b installed", got)
	}
	if r := sink.faults[0]; r.Runnable != b || r.Predecessor != a {
		t.Fatalf("report = %+v, want b after a", r)
	}
	if w.flow.Load() != before {
		t.Fatal("rejected AddFlowSequence replaced the flow table")
	}
}

func TestPerTaskFlowTrackingIgnoresPreemption(t *testing.T) {
	// Two tasks, each with a legal sequence; the interleaving produced by
	// preemption (a1 x1 a2 x2) must not be flagged. A naive global
	// last-runnable register would flag a1→x1 and x1→a2.
	m := runnable.NewModel()
	app, _ := m.AddApp("A", runnable.QM)
	t1, _ := m.AddTask(app, "T1", 1)
	t2, _ := m.AddTask(app, "T2", 9)
	a1, _ := m.AddRunnable(t1, "a1", time.Millisecond, runnable.SafetyCritical)
	a2, _ := m.AddRunnable(t1, "a2", time.Millisecond, runnable.SafetyCritical)
	x1, _ := m.AddRunnable(t2, "x1", time.Millisecond, runnable.SafetyCritical)
	x2, _ := m.AddRunnable(t2, "x2", time.Millisecond, runnable.SafetyCritical)
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	sink := &collector{}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock(), Sink: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := w.AddFlowSequence(a1, a2); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	if err := w.AddFlowSequence(x1, x2); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	for _, rid := range []runnable.ID{a1, x1, a2, x2} {
		w.Heartbeat(rid)
	}
	if got := w.Results(); got.ProgramFlow != 0 {
		t.Fatalf("preemption interleaving flagged: %+v (faults %v)", got, sink.faults)
	}
}

func TestTSITaskFaultyAtThreshold(t *testing.T) {
	f := newFixture(t, nil) // default thresholds: 3
	if err := f.w.AddFlowSequence(f.a, f.b, f.c); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	for i := 0; i < 2; i++ {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.c) // illegal A→C
	}
	st, _ := f.w.TaskState(f.task)
	if st != StateOK {
		t.Fatalf("task faulty after 2 errors, threshold is 3")
	}
	f.w.Heartbeat(f.a) // C→A legal (wrap), then A→C illegal again
	f.w.Heartbeat(f.c)
	st, _ = f.w.TaskState(f.task)
	if st != StateFaulty {
		t.Fatalf("task not faulty after 3 errors")
	}
	// Derivation chain: app and (with ECUFaultyAppCount=2 default) not ECU.
	as, _ := f.w.AppState(f.app)
	if as != StateFaulty {
		t.Fatalf("app state = %v, want faulty", as)
	}
	if f.w.ECUState() != StateOK {
		t.Fatalf("ECU state = %v, want OK (only 1 faulty app, threshold 2)", f.w.ECUState())
	}
	// State events: task then app.
	if len(f.sink.states) != 2 {
		t.Fatalf("state events = %+v", f.sink.states)
	}
	if f.sink.states[0].Scope != TaskScope || f.sink.states[0].State != StateFaulty ||
		f.sink.states[0].Cause != ProgramFlowError {
		t.Fatalf("task event = %+v", f.sink.states[0])
	}
	if f.sink.states[1].Scope != AppScope || f.sink.states[1].App != f.app {
		t.Fatalf("app event = %+v", f.sink.states[1])
	}
}

func TestECUFaultyWithSingleAppPolicy(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.ECUFaultyAppCount = 1 })
	if err := f.w.AddFlowSequence(f.a, f.b, f.c); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	for i := 0; i < 3; i++ {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.c)
	}
	if f.w.ECUState() != StateFaulty {
		t.Fatalf("ECU state = %v, want faulty with ECUFaultyAppCount=1", f.w.ECUState())
	}
	var scopes []Scope
	for _, e := range f.sink.states {
		scopes = append(scopes, e.Scope)
	}
	if len(scopes) != 3 || scopes[0] != TaskScope || scopes[1] != AppScope || scopes[2] != ECUScope {
		t.Fatalf("state event order = %v", scopes)
	}
}

func TestCollaborationReportsAlivenessOnce(t *testing.T) {
	// Fig. 6: program-flow errors also starve the skipped runnable's
	// heartbeats. The collaboration logic attributes those aliveness
	// errors to the flow root cause and accumulates only one.
	f := newFixture(t, nil)
	f.monitorAll()
	if err := f.w.AddFlowSequence(f.a, f.b, f.c); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	// 30 cycles of A→C flow (B never runs → B has aliveness errors every
	// 5 cycles; A→C is a flow error every round).
	f.spin(30, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.c)
	})
	got := f.w.Results()
	if got.ProgramFlow < 3 {
		t.Fatalf("ProgramFlow = %d, want >= 3", got.ProgramFlow)
	}
	if got.Aliveness != 1 {
		t.Fatalf("Aliveness = %d, want exactly 1 (correlated suppression)", got.Aliveness)
	}
	st, _ := f.w.TaskState(f.task)
	if st != StateFaulty {
		t.Fatal("task not faulty after repeated flow errors")
	}
	// Cause of the faulty transition must be the flow error, threshold 3.
	if f.sink.states[0].Cause != ProgramFlowError {
		t.Fatalf("faulty cause = %v, want program-flow", f.sink.states[0].Cause)
	}
}

func TestCollaborationDisabledAccumulatesAll(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.DisableCorrelation = true })
	f.monitorAll()
	if err := f.w.AddFlowSequence(f.a, f.b, f.c); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	f.spin(30, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.c)
	})
	got := f.w.Results()
	if got.Aliveness < 5 {
		t.Fatalf("Aliveness = %d, want >= 5 without correlation (ablation)", got.Aliveness)
	}
}

func TestCorrelatedReportMarked(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	if err := f.w.AddFlowSequence(f.a, f.b, f.c); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	f.spin(10, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.c)
	})
	var correlated *Report
	for i := range f.sink.faults {
		if f.sink.faults[i].Kind == AlivenessError {
			correlated = &f.sink.faults[i]
			break
		}
	}
	if correlated == nil {
		t.Fatal("no aliveness report delivered")
	}
	if !correlated.Correlated {
		t.Fatalf("aliveness report not marked correlated: %+v", *correlated)
	}
}

// TestCorrelationReArms: Fig. 6 suppresses the repeats within one burst
// of flow errors, not every later aliveness error. A flow error more
// than the correlation window after the task's previous one starts a
// new burst, which accumulates its own correlated aliveness error.
func TestCorrelationReArms(t *testing.T) {
	f := newFixture(t, nil)
	if err := f.w.SetHypothesis(f.b, Hypothesis{AlivenessCycles: 2, MinHeartbeats: 1}); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	if err := f.w.Activate(f.b); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if err := f.w.AddFlowSequence(f.a, f.c); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	flowError := func() { f.w.FlowEvent(f.a); f.w.FlowEvent(f.a) } // A after A is not in the table
	flowError()                                                    // cycle 0
	f.spin(2, nil)                                                 // B's window closes silent at cycle 2
	f.spin(50, func(int) { f.w.Heartbeat(f.b) })
	flowError()    // cycle 52
	f.spin(2, nil) // silent again at cycle 54
	var alive []Report
	for _, r := range f.sink.faults {
		if r.Kind == AlivenessError {
			alive = append(alive, r)
		}
	}
	if len(alive) != 2 || alive[0].Cycle != 2 || alive[1].Cycle != 54 || !alive[0].Correlated || !alive[1].Correlated {
		t.Fatalf("aliveness reports = %+v, want correlated ones at cycles 2 and 54", alive)
	}
	if got := f.w.Results().Aliveness; got != 2 {
		t.Fatalf("Results().Aliveness = %d, want 2", got)
	}
}

func TestAlivenessWithoutFlowErrorsNotSuppressed(t *testing.T) {
	// Pure aliveness faults (no flow errors) must accumulate normally even
	// with correlation enabled.
	f := newFixture(t, nil)
	f.monitorAll()
	if err := f.w.AddFlowSequence(f.a, f.b, f.c); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	// All three beat in legal order, then B stops (but A and C keep the
	// legal wrap order A→C? No — A→C is illegal. Stop all three to avoid
	// flow errors entirely.)
	f.spin(5, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.c)
	})
	f.spin(20, nil) // silence: aliveness errors for all, no flow errors
	got := f.w.Results()
	if got.ProgramFlow != 0 {
		t.Fatalf("unexpected flow errors: %+v", got)
	}
	if got.Aliveness != 12 {
		t.Fatalf("Aliveness = %d, want 12 (3 runnables x 4 periods)", got.Aliveness)
	}
	st, _ := f.w.TaskState(f.task)
	if st != StateFaulty {
		t.Fatal("task not faulty from pure aliveness errors")
	}
	if f.sink.states[0].Cause != AlivenessError {
		t.Fatalf("cause = %v, want aliveness", f.sink.states[0].Cause)
	}
}

func TestClearTaskRecovers(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	f.spin(20, nil) // aliveness faults everywhere
	st, _ := f.w.TaskState(f.task)
	if st != StateFaulty {
		t.Fatal("setup: task should be faulty")
	}
	if err := f.w.ClearTask(f.task); err != nil {
		t.Fatalf("ClearTask: %v", err)
	}
	st, _ = f.w.TaskState(f.task)
	if st != StateOK {
		t.Fatal("task not OK after ClearTask")
	}
	as, _ := f.w.AppState(f.app)
	if as != StateOK {
		t.Fatal("app not OK after ClearTask")
	}
	al, ar, fl, _ := f.w.RunnableErrors(f.a)
	if al != 0 || ar != 0 || fl != 0 {
		t.Fatalf("runnable errors not cleared: %d/%d/%d", al, ar, fl)
	}
	// Recovery state event delivered.
	last := f.sink.states[len(f.sink.states)-1]
	if last.State != StateOK {
		t.Fatalf("last state event = %+v", last)
	}
	// Healthy again: no stale counters trip immediately.
	f.spin(4, func(int) { f.w.Heartbeat(f.a); f.w.Heartbeat(f.b); f.w.Heartbeat(f.c) })
	if got := f.w.Results(); got.Aliveness != 12 {
		t.Fatalf("new aliveness errors after recovery: %+v", got)
	}
}

func TestClearAllResetsCycle(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	f.spin(7, nil)
	if f.w.CycleCount() != 7 {
		t.Fatalf("CycleCount = %d", f.w.CycleCount())
	}
	f.w.ClearAll()
	if f.w.CycleCount() != 0 {
		t.Fatalf("CycleCount after ClearAll = %d", f.w.CycleCount())
	}
}

func TestHeartbeatUnknownRunnableIgnored(t *testing.T) {
	f := newFixture(t, nil)
	f.w.Heartbeat(runnable.ID(-1))
	f.w.Heartbeat(runnable.ID(999))
	if got := f.w.Results(); got != (Results{}) {
		t.Fatalf("unknown heartbeat produced detections: %+v", got)
	}
}

func TestAccessorErrorsOnUnknownIDs(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.w.CounterSnapshot(runnable.ID(99)); err == nil {
		t.Error("CounterSnapshot unknown id")
	}
	if _, err := f.w.TaskState(runnable.TaskID(99)); err == nil {
		t.Error("TaskState unknown id")
	}
	if _, err := f.w.AppState(runnable.AppID(99)); err == nil {
		t.Error("AppState unknown id")
	}
	if _, _, _, err := f.w.RunnableErrors(runnable.ID(99)); err == nil {
		t.Error("RunnableErrors unknown id")
	}
	if err := f.w.SetHypothesis(runnable.ID(99), Hypothesis{}); err == nil {
		t.Error("SetHypothesis unknown id")
	}
	if err := f.w.Activate(runnable.ID(99)); err == nil {
		t.Error("Activate unknown id")
	}
	if err := f.w.MonitorFlow(runnable.ID(99)); err == nil {
		t.Error("MonitorFlow unknown id")
	}
	if err := f.w.ClearTask(runnable.TaskID(99)); err == nil {
		t.Error("ClearTask unknown id")
	}
	if err := f.w.AddFlowSequence(f.a); err == nil {
		t.Error("AddFlowSequence with one runnable")
	}
}

func TestStringers(t *testing.T) {
	if AlivenessError.String() != "aliveness" || ArrivalRateError.String() != "arrival-rate" ||
		ProgramFlowError.String() != "program-flow" || ErrorKind(9).String() == "" {
		t.Error("ErrorKind.String")
	}
	if StateOK.String() != "OK" || StateFaulty.String() != "faulty" || HealthState(9).String() == "" {
		t.Error("HealthState.String")
	}
	if TaskScope.String() != "task" || AppScope.String() != "application" ||
		ECUScope.String() != "ECU" || Scope(9).String() == "" {
		t.Error("Scope.String")
	}
	r := Report{Kind: AlivenessError, Cycle: 3, Runnable: 1, Observed: 0, Expected: 1}
	if r.String() == "" {
		t.Error("Report.String aliveness")
	}
	r = Report{Kind: ProgramFlowError, Cycle: 3, Runnable: 1, Predecessor: 0}
	if r.String() == "" {
		t.Error("Report.String flow")
	}
}

func TestSuspendResumeTaskMonitoring(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	if err := f.w.SuspendTaskMonitoring(f.task); err != nil {
		t.Fatalf("SuspendTaskMonitoring: %v", err)
	}
	// No heartbeats while suspended: no aliveness errors.
	f.spin(20, nil)
	if got := f.w.Results().Aliveness; got != 0 {
		t.Fatalf("suspended task accumulated %d aliveness errors", got)
	}
	c, _ := f.w.CounterSnapshot(f.a)
	if c.Active {
		t.Fatal("runnable still active while suspended")
	}
	if err := f.w.ResumeTaskMonitoring(f.task); err != nil {
		t.Fatalf("ResumeTaskMonitoring: %v", err)
	}
	c, _ = f.w.CounterSnapshot(f.a)
	if !c.Active {
		t.Fatal("runnable not re-activated on resume")
	}
	// Silence now counts again.
	f.spin(10, nil)
	if got := f.w.Results().Aliveness; got == 0 {
		t.Fatal("resumed monitoring detected nothing")
	}
	// Unknown task ids error.
	if err := f.w.SuspendTaskMonitoring(runnable.TaskID(99)); err == nil {
		t.Error("unknown task accepted in Suspend")
	}
	if err := f.w.ResumeTaskMonitoring(runnable.TaskID(99)); err == nil {
		t.Error("unknown task accepted in Resume")
	}
}

func TestSuspendPreservesExplicitDeactivation(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	if err := f.w.Deactivate(f.b); err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	if err := f.w.SuspendTaskMonitoring(f.task); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if err := f.w.ResumeTaskMonitoring(f.task); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	// b was deactivated before the suspension; resume must not turn it on.
	c, _ := f.w.CounterSnapshot(f.b)
	if c.Active {
		t.Fatal("resume re-activated an explicitly deactivated runnable")
	}
	c, _ = f.w.CounterSnapshot(f.a)
	if !c.Active {
		t.Fatal("resume lost an active runnable")
	}
}

func TestClearAllResumesSuspended(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	if err := f.w.SuspendTaskMonitoring(f.task); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	f.w.ClearAll()
	c, _ := f.w.CounterSnapshot(f.a)
	if !c.Active {
		t.Fatal("ClearAll did not resume suspended monitoring")
	}
}

func TestMonitorFlowEnrolsWithoutPairs(t *testing.T) {
	f := newFixture(t, nil)
	// Only b is enrolled, with no allowed successors at all: any monitored
	// transition b→b is illegal.
	if err := f.w.MonitorFlow(f.b); err != nil {
		t.Fatalf("MonitorFlow: %v", err)
	}
	f.w.Heartbeat(f.b)
	f.w.Heartbeat(f.b)
	if got := f.w.Results().ProgramFlow; got != 1 {
		t.Fatalf("ProgramFlow = %d, want 1", got)
	}
	// a remains unmonitored: a→a is invisible.
	f.w.Heartbeat(f.a)
	f.w.Heartbeat(f.a)
	if got := f.w.Results().ProgramFlow; got != 1 {
		t.Fatalf("unmonitored runnable flagged: %d", got)
	}
}

func TestHypothesisAccessor(t *testing.T) {
	f := newFixture(t, nil)
	want := Hypothesis{AlivenessCycles: 7, MinHeartbeats: 2}
	if err := f.w.SetHypothesis(f.a, want); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	got, err := f.w.Hypothesis(f.a)
	if err != nil || got != want {
		t.Fatalf("Hypothesis = %+v, %v", got, err)
	}
	if _, err := f.w.Hypothesis(runnable.ID(99)); err == nil {
		t.Error("unknown runnable accepted")
	}
}

// TestHypothesisInterning checks that runnables installed with equal
// hypotheses share one pointer (also when another value was installed
// in between), that Hypothesis still reports each runnable's value, and
// that changing one runnable's hypothesis never changes another's.
func TestHypothesisInterning(t *testing.T) {
	f := newFixture(t, nil)
	x := Hypothesis{AlivenessCycles: 5, MinHeartbeats: 1}
	y := Hypothesis{AlivenessCycles: 5, MinHeartbeats: 2, ArrivalCycles: 5, MaxArrivals: 9}
	for _, set := range []struct {
		rid runnable.ID
		h   Hypothesis
	}{{f.a, x}, {f.b, y}, {f.c, x}} {
		if err := f.w.SetHypothesis(set.rid, set.h); err != nil {
			t.Fatalf("SetHypothesis(%d): %v", set.rid, err)
		}
	}
	ptr := func(rid runnable.ID) *Hypothesis { return f.w.hot[rid].hyp.Load() }
	if ptr(f.a) != ptr(f.c) {
		t.Fatalf("equal hypotheses on runnables %d and %d are not shared", f.a, f.c)
	}
	if ptr(f.a) == ptr(f.b) {
		t.Fatalf("different hypotheses on runnables %d and %d share a pointer", f.a, f.b)
	}
	for rid, want := range map[runnable.ID]Hypothesis{f.a: x, f.b: y, f.c: x} {
		if got, err := f.w.Hypothesis(rid); err != nil || got != want {
			t.Fatalf("Hypothesis(%d) = %+v, %v; want %+v", rid, got, err, want)
		}
	}
	// Re-installing a runnable's hypothesis leaves the runnables that
	// shared its old value alone.
	z := Hypothesis{AlivenessCycles: 3, MinHeartbeats: 1}
	if err := f.w.SetHypothesis(f.a, z); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	for rid, want := range map[runnable.ID]Hypothesis{f.a: z, f.b: y, f.c: x} {
		if got, _ := f.w.Hypothesis(rid); got != want {
			t.Fatalf("after changing runnable %d: Hypothesis(%d) = %+v, want %+v", f.a, rid, got, want)
		}
	}
	if err := f.w.SetHypothesis(f.b, x); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	if ptr(f.b) != ptr(f.c) {
		t.Fatalf("runnable %d re-installed with a shared value does not share it", f.b)
	}
}

func TestSharedTaskAffectsBothApps(t *testing.T) {
	// Two applications share one task (§1). A fault in A's runnable is
	// attributed to A's runnable specifically, but the corrupted task
	// state affects both applications.
	m := runnable.NewModel()
	appA, _ := m.AddApp("A", runnable.SafetyCritical)
	appB, _ := m.AddApp("B", runnable.SafetyRelevant)
	task, _ := m.AddTask(appA, "Shared", 5)
	ra, _ := m.AddRunnable(task, "ra", time.Millisecond, runnable.SafetyCritical)
	rb, err := m.AddSharedRunnable(task, appB, "rb", time.Millisecond, runnable.SafetyRelevant)
	if err != nil {
		t.Fatalf("AddSharedRunnable: %v", err)
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	sink := &collector{}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock(), Sink: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := w.AddFlowSequence(ra, rb); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	// Three ra→ra violations: errors attributed to ra (app A).
	w.Heartbeat(ra)
	for i := 0; i < 3; i++ {
		w.Heartbeat(ra)
	}
	for _, f := range sink.faults {
		if f.App != appA {
			t.Fatalf("fault attributed to app %d, want %d (A): %+v", f.App, appA, f)
		}
	}
	// The shared task is faulty — and BOTH applications derive faulty.
	st, _ := w.TaskState(task)
	if st != StateFaulty {
		t.Fatal("task not faulty")
	}
	sa, _ := w.AppState(appA)
	sb, _ := w.AppState(appB)
	if sa != StateFaulty || sb != StateFaulty {
		t.Fatalf("app states A=%v B=%v, want both faulty (shared execution context)", sa, sb)
	}
	// Both app-scope events were emitted.
	appEvents := 0
	for _, e := range sink.states {
		if e.Scope == AppScope {
			appEvents++
		}
	}
	if appEvents != 2 {
		t.Fatalf("app events = %d, want 2", appEvents)
	}
}
