package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// This file holds an executable specification of the paper's three
// units, heartbeat monitoring (§3.3), program flow checking (§3.4) and
// task state indication (§3.5), and the harness that holds the Watchdog
// to it: TestSweepEquivalence replays fixed traces, and
// FuzzWatchdogAgainstSpec decodes random ones.
//
// The specification states the units the way the paper does, not the
// way the Watchdog implements them. Per runnable it keeps AC, ARC, CCA,
// CCAR and AS as plain integers; a heartbeat increments AC and ARC,
// every cycle increments CCA and CCAR, and a window is judged when its
// cycle counter reaches the period, which resets both of its counters
// to zero. It is single-threaded, calls no unexported function of this
// package and reads no Watchdog state: it uses the package's exported
// value types as plain data and the runnable model for the mapping of
// runnables onto tasks and applications.
//
// It does not model concurrency: heartbeats racing a window close, the
// lock-free beat path and the sweep giving its lock away mid-cycle are
// covered by TestSweepYield*, TestSweepStreamsDetections and the race
// tests.

// specConfig is the part of Config the specification models, with
// every default made explicit.
type specConfig struct {
	eager              bool   // Config.EagerArrivalCheck
	disableCorrelation bool   // Config.DisableCorrelation
	correlationWindow  uint64 // Config.CorrelationWindowCycles
	ecuFaultyApps      int    // Config.ECUFaultyAppCount
	thresholds         Thresholds
}

// defaultSpecConfig is the specification of a Config that sets nothing
// but EagerArrivalCheck.
func defaultSpecConfig(eager bool) specConfig {
	return specConfig{eager: eager, correlationWindow: 2, ecuFaultyApps: 2, thresholds: DefaultThresholds()}
}

// specRunnable is one runnable of the specification.
type specRunnable struct {
	hyp                Hypothesis
	AS                 bool
	AC, ARC, CCA, CCAR int
	beats              uint64    // heartbeats recorded while AS was on; never reset
	errv               [3]uint64 // the runnable's error indication vector element, by kind-1
	pfc                bool      // enrolled in program flow checking
	shadow             *specShadow
}

// specShadow is a candidate hypothesis judged beside the active one.
// It keeps its own cycle counter and beat count, and only counts the
// windows it would have faulted.
type specShadow struct {
	hyp    Hypothesis
	cycles int
	beats  uint64 // heartbeats recorded in the window while AS was on
	stats  ShadowStats
}

// period is the shadow's single window in cycles.
func (sh *specShadow) period() int {
	if sh.hyp.AlivenessCycles > 0 {
		return sh.hyp.AlivenessCycles
	}
	return sh.hyp.ArrivalCycles
}

// specTask is the PFC and TSI state of one task.
type specTask struct {
	state HealthState
	pred  runnable.ID // the previously executed monitored runnable
	// lastFlow is the cycle of the task's latest program-flow error;
	// flowSeen says there was one since the task was last cleared. A
	// burst is a run of flow errors each within the correlation window
	// of the one before.
	lastFlow uint64
	flowSeen bool
	// correlated says the one aliveness error a flow-error burst may
	// accumulate (Fig. 6) has been accumulated.
	correlated bool
	suspended  []runnable.ID // runnables whose AS a suspension switched off
}

// spec is the specification of one ECU's watchdog.
type spec struct {
	m       *runnable.Model
	cfg     specConfig
	clock   sim.Clock
	cycle   uint64
	r       []specRunnable
	tasks   []specTask
	apps    []HealthState
	ecu     HealthState
	allowed map[[2]runnable.ID]bool // the PFC look-up table

	results Results
	faults  []Report
	states  []StateEvent
	journal []JournalEntry
}

func newSpec(m *runnable.Model, clock sim.Clock, cfg specConfig) *spec {
	s := &spec{
		m: m, cfg: cfg, clock: clock,
		r:       make([]specRunnable, m.NumRunnables()),
		tasks:   make([]specTask, m.NumTasks()),
		apps:    make([]HealthState, m.NumApps()),
		ecu:     StateOK,
		allowed: make(map[[2]runnable.ID]bool),
	}
	for i := range s.tasks {
		s.tasks[i] = specTask{state: StateOK, pred: runnable.NoID}
	}
	for i := range s.apps {
		s.apps[i] = StateOK
	}
	return s
}

func (s *spec) valid(rid runnable.ID) bool { return rid >= 0 && int(rid) < len(s.r) }

func (s *spec) validTask(tid runnable.TaskID) bool { return tid >= 0 && int(tid) < len(s.tasks) }

// validHyp says whether h is a fault hypothesis: no period is
// negative, and a monitored unit has a positive limit.
func validHyp(h Hypothesis) bool {
	return h.AlivenessCycles >= 0 && h.ArrivalCycles >= 0 &&
		(h.AlivenessCycles == 0 || h.MinHeartbeats > 0) && (h.ArrivalCycles == 0 || h.MaxArrivals > 0)
}

// accepts says whether configuration op (set hypothesis, activate,
// deactivate, set or clear shadow) is valid: it names a runnable of the
// model, its hypothesis is valid, and a shadow candidate monitors
// exactly one window.
func (s *spec) accepts(op specOp) bool {
	h := op.hyp
	switch {
	case !s.valid(op.rid):
		return false
	case op.kind == opSetHyp:
		return validHyp(h)
	case op.kind == opSetShadow:
		return validHyp(h) && h.AlivenessCycles+h.ArrivalCycles > 0 &&
			(h.AlivenessCycles == 0 || h.ArrivalCycles == 0 || h.AlivenessCycles == h.ArrivalCycles)
	}
	return true
}

// Configure applies one configuration op; one it does not accept
// changes nothing.
func (s *spec) Configure(op specOp) {
	if !s.accepts(op) {
		return
	}
	switch op.kind {
	case opSetHyp:
		s.SetHypothesis(op.rid, op.hyp)
	case opActivate, opDeactivate:
		s.SetActive(op.rid, op.kind == opActivate)
	case opSetShadow:
		s.r[op.rid].shadow = &specShadow{hyp: op.hyp, stats: ShadowStats{Hyp: op.hyp}}
	case opClearShadow:
		s.r[op.rid].shadow = nil
	}
}

// SetHypothesis installs h without touching the counters, except that
// ARC restarts when arrival monitoring switches on.
func (s *spec) SetHypothesis(rid runnable.ID, h Hypothesis) {
	r := &s.r[rid]
	if r.hyp.ArrivalCycles == 0 && h.ArrivalCycles > 0 {
		r.ARC = 0
	}
	r.hyp = h
}

// reset zeroes the four counters.
func (r *specRunnable) reset() { r.AC, r.ARC, r.CCA, r.CCAR = 0, 0, 0, 0 }

// SetActive sets AS and resets the counters.
func (s *spec) SetActive(rid runnable.ID, on bool) {
	s.r[rid].AS = on
	s.r[rid].reset()
}

// AddFlowSequence allows r0→r1→…→rn→r0 and enrols every runnable.
func (s *spec) AddFlowSequence(rids ...runnable.ID) {
	for i, rid := range rids {
		s.r[rid].pfc = true
		s.allowed[[2]runnable.ID{rid, rids[(i+1)%len(rids)]}] = true
	}
}

// MonitorFlow enrols rid in program flow checking.
func (s *spec) MonitorFlow(rid runnable.ID) { s.r[rid].pfc = true }

// Beat is one heartbeat: counted when AS is on, then checked against
// the look-up table.
func (s *spec) Beat(rid runnable.ID) {
	if !s.valid(rid) {
		return
	}
	s.count(rid, 1)
	s.FlowEvent(rid)
}

// BeatN is n heartbeats at once, capped at MaxBatchBeats, without the
// program flow check.
func (s *spec) BeatN(rid runnable.ID, n int) {
	if !s.valid(rid) || n <= 0 {
		return
	}
	s.count(rid, min(n, MaxBatchBeats))
}

// count adds n heartbeats to AC and ARC. With the eager check, an ARC
// beyond MaxArrivals is an arrival-rate error on the spot, and it
// resets ARC and CCAR.
func (s *spec) count(rid runnable.ID, n int) {
	r := &s.r[rid]
	if !r.AS {
		return
	}
	r.AC += n
	r.ARC += n
	r.beats += uint64(n)
	if r.shadow != nil {
		r.shadow.beats += uint64(n)
	}
	if s.cfg.eager && r.hyp.ArrivalCycles > 0 && r.ARC > r.hyp.MaxArrivals {
		arc := r.ARC
		r.ARC, r.CCAR = 0, 0
		s.detect(ArrivalRateError, rid, arc, r.hyp.MaxArrivals, runnable.NoID)
	}
}

// FlowEvent is the PFC unit: an enrolled runnable becomes its task's
// predecessor, and an error is detected when the look-up table does not
// allow it after the previous one.
func (s *spec) FlowEvent(rid runnable.ID) {
	if !s.valid(rid) || !s.r[rid].pfc {
		return
	}
	t := &s.tasks[s.m.TaskOf(rid)]
	pred := t.pred
	t.pred = rid
	if pred == runnable.NoID || s.allowed[[2]runnable.ID{pred, rid}] {
		return
	}
	if !t.flowSeen || s.cycle-t.lastFlow > s.cfg.correlationWindow {
		// The first flow error, or one past the previous one's window,
		// starts a burst, which may accumulate one aliveness error.
		t.flowSeen = true
		t.correlated = false
	}
	t.lastFlow = s.cycle
	s.detect(ProgramFlowError, rid, 0, 0, pred)
}

// Cycle is one monitoring cycle: for every runnable with AS on, in
// ascending order, CCA and CCAR count the cycle, each window whose
// counter reached its period is reset, and then its verdicts are
// reported, aliveness first. Shadow windows are judged last.
func (s *spec) Cycle() {
	s.cycle++
	for i := range s.r {
		rid, r := runnable.ID(i), &s.r[i]
		if !r.AS {
			continue
		}
		h := r.hyp
		var aliveDue, arrDue bool
		if h.AlivenessCycles > 0 {
			r.CCA++
			aliveDue = r.CCA >= h.AlivenessCycles
		}
		if h.ArrivalCycles > 0 {
			r.CCAR++
			arrDue = r.CCAR >= h.ArrivalCycles
		}
		ac, arc := r.AC, r.ARC
		if aliveDue {
			r.AC, r.CCA = 0, 0
		}
		if arrDue {
			r.ARC, r.CCAR = 0, 0
		}
		if aliveDue && ac < h.MinHeartbeats {
			s.detect(AlivenessError, rid, ac, h.MinHeartbeats, runnable.NoID)
		}
		if arrDue && arc > h.MaxArrivals {
			s.detect(ArrivalRateError, rid, arc, h.MaxArrivals, runnable.NoID)
		}
	}
	for i := range s.r {
		r := &s.r[i]
		sh := r.shadow
		if sh == nil {
			continue
		}
		if sh.cycles++; sh.cycles < sh.period() {
			continue
		}
		if r.AS {
			st := &sh.stats
			st.Windows++
			clean := true
			if sh.hyp.AlivenessCycles > 0 && sh.beats < uint64(sh.hyp.MinHeartbeats) {
				st.WouldAliveness++
				clean = false
			}
			if sh.hyp.ArrivalCycles > 0 && sh.beats > uint64(sh.hyp.MaxArrivals) {
				st.WouldArrival++
				clean = false
			}
			if clean {
				st.CleanStreak++
			} else {
				st.CleanStreak = 0
			}
		}
		sh.cycles, sh.beats = 0, 0
	}
}

// threshold is the error indication vector limit for kind.
func (s *spec) threshold(kind ErrorKind) uint64 {
	switch kind {
	case AlivenessError:
		return uint64(s.cfg.thresholds.Aliveness)
	case ArrivalRateError:
		return uint64(s.cfg.thresholds.ArrivalRate)
	default:
		return uint64(s.cfg.thresholds.ProgramFlow)
	}
}

// detect runs one error through the collaboration rule and the TSI
// unit. An aliveness error within the correlation window after a
// program-flow error of the same task is a symptom of it (Fig. 6): only
// the first such error of a burst is accumulated. An accumulated error
// is counted, journaled with its freeze-frame and reported, and the
// task turns faulty when the runnable's vector element reaches its
// threshold.
func (s *spec) detect(kind ErrorKind, rid runnable.ID, observed, expected int, pred runnable.ID) {
	tid := s.m.TaskOf(rid)
	app := s.m.AppOfRunnable(rid)
	t := &s.tasks[tid]
	correlated := kind == AlivenessError && !s.cfg.disableCorrelation && t.flowSeen &&
		s.cycle-t.lastFlow <= s.cfg.correlationWindow
	if correlated {
		if t.correlated {
			return
		}
		t.correlated = true
	}
	switch kind {
	case AlivenessError:
		s.results.Aliveness++
	case ArrivalRateError:
		s.results.ArrivalRate++
	case ProgramFlowError:
		s.results.ProgramFlow++
	}
	r := &s.r[rid]
	r.errv[kind-1]++
	now := s.clock.Now()
	s.journal = append(s.journal, JournalEntry{
		Seq: uint64(len(s.journal)), Time: now, Cycle: s.cycle, Kind: kind,
		Runnable: rid, Task: tid, App: app,
		Observed: observed, Expected: expected, Predecessor: pred, Correlated: correlated,
		Frame: s.Counters(rid), Beats: r.beats,
		ErrAliveness: r.errv[0], ErrArrivalRate: r.errv[1], ErrProgramFlow: r.errv[2],
	})
	s.faults = append(s.faults, Report{
		Time: now, Cycle: s.cycle, Kind: kind, Runnable: rid, Task: tid, App: app,
		Observed: observed, Expected: expected, Predecessor: pred, Correlated: correlated,
	})
	if t.state == StateOK && r.errv[kind-1] >= s.threshold(kind) {
		s.setTaskState(tid, StateFaulty, kind)
	}
}

// setTaskState is the TSI derivation chain: a task's state feeds every
// application with a runnable on it (an application is faulty when any
// of its tasks is), and the ECU is faulty when ecuFaultyApps
// applications are. Every change is a state event.
func (s *spec) setTaskState(tid runnable.TaskID, state HealthState, cause ErrorKind) {
	s.tasks[tid].state = state
	ev := StateEvent{Time: s.clock.Now(), Cycle: s.cycle, Cause: cause}
	s.event(ev, TaskScope, tid, s.m.AppOf(tid), state)
	for _, app := range s.m.AppsOfTask(tid) {
		appState := StateOK
		a, _ := s.m.App(app)
		for _, t := range a.Tasks {
			if s.tasks[t].state == StateFaulty {
				appState = StateFaulty
			}
		}
		if s.apps[app] != appState {
			s.apps[app] = appState
			s.event(ev, AppScope, runnable.NoID, app, appState)
		}
	}
	faulty := 0
	for _, st := range s.apps {
		if st == StateFaulty {
			faulty++
		}
	}
	ecu := StateOK
	if faulty >= s.cfg.ecuFaultyApps {
		ecu = StateFaulty
	}
	if s.ecu != ecu {
		s.ecu = ecu
		s.event(ev, ECUScope, runnable.NoID, runnable.NoID, ecu)
	}
}

func (s *spec) event(ev StateEvent, scope Scope, tid runnable.TaskID, app runnable.AppID, state HealthState) {
	ev.Scope, ev.Task, ev.App, ev.State = scope, tid, app, state
	s.states = append(s.states, ev)
}

// ClearTask is fault treatment: the task's predecessor register, flow
// history, counters and error indication vectors are reset, and the
// task returns to OK. AS is left as it is.
func (s *spec) ClearTask(tid runnable.TaskID) {
	if !s.validTask(tid) {
		return
	}
	t := &s.tasks[tid]
	t.pred = runnable.NoID
	t.flowSeen, t.correlated = false, false
	task, _ := s.m.Task(tid)
	for _, rid := range task.Runnables {
		s.r[rid].reset()
		s.r[rid].errv = [3]uint64{}
	}
	if t.state != StateOK {
		s.setTaskState(tid, StateOK, 0)
	}
}

// Suspend switches AS off on the task's runnables and remembers which
// had it on.
func (s *spec) Suspend(tid runnable.TaskID) {
	if !s.validTask(tid) {
		return
	}
	t := &s.tasks[tid]
	t.suspended = nil
	task, _ := s.m.Task(tid)
	for _, rid := range task.Runnables {
		if s.r[rid].AS {
			t.suspended = append(t.suspended, rid)
			s.SetActive(rid, false)
		}
	}
}

// Resume switches AS back on where the last suspension switched it off.
func (s *spec) Resume(tid runnable.TaskID) {
	if !s.validTask(tid) {
		return
	}
	for _, rid := range s.tasks[tid].suspended {
		s.SetActive(rid, true)
	}
	s.tasks[tid].suspended = nil
}

// ClearAll is an ECU reset: every task is resumed and cleared, the
// cycle count restarts at zero and every shadow opens a fresh window.
func (s *spec) ClearAll() {
	for tid := range s.tasks {
		s.Resume(runnable.TaskID(tid))
		s.ClearTask(runnable.TaskID(tid))
	}
	s.cycle = 0
	for i := range s.r {
		if sh := s.r[i].shadow; sh != nil {
			sh.cycles, sh.beats = 0, 0
		}
	}
}

// Counters reports a runnable's counters.
func (s *spec) Counters(rid runnable.ID) Counters {
	r := &s.r[rid]
	return Counters{Active: r.AS, AC: r.AC, ARC: r.ARC, CCA: r.CCA, CCAR: r.CCAR}
}

// Shadows lists the verdicts in ascending runnable order.
func (s *spec) Shadows() []ShadowReport {
	var out []ShadowReport
	for i := range s.r {
		if sh := s.r[i].shadow; sh != nil {
			out = append(out, ShadowReport{Runnable: runnable.ID(i), ShadowStats: sh.stats})
		}
	}
	return out
}

// --- The harness: one trace, the Watchdog and the specification -----

// Op kinds of a trace.
const (
	opBeat = iota
	opCycle
	opDeactivate
	opActivate
	opSetHyp
	opClearTask
	opSuspend
	opResume
	opClearAll
	opBeatN
	opFlow
	opSetShadow
	opClearShadow
	numOpKinds
)

// specOp is one step of a trace. Identifiers may lie outside the model:
// the Watchdog must then reject or ignore the op, as the specification
// does.
type specOp struct {
	kind int
	rid  runnable.ID
	tid  runnable.TaskID
	hyp  Hypothesis // opSetHyp's hypothesis or opSetShadow's candidate
	n    int        // opBeatN's count
	recs []uint32   // opFlow's records, indices into the run's flow table
}

// sweepHypTable is the hypothesis mix of the traces: disabled units,
// periods shorter than, equal to and far beyond the 8-slot test wheel
// (bucket reinsertion on the same slot and the overflow list across
// several wheel revolutions), and limits tight enough to produce real
// detections.
var sweepHypTable = []Hypothesis{
	{}, // both units disabled: counters freeze mid-window
	{AlivenessCycles: 3, MinHeartbeats: 1},
	{AlivenessCycles: 5, MinHeartbeats: 2, ArrivalCycles: 4, MaxArrivals: 3},
	{ArrivalCycles: 2, MaxArrivals: 1},
	{AlivenessCycles: 1, MinHeartbeats: 1},                                   // due every cycle
	{AlivenessCycles: 8, MinHeartbeats: 1, ArrivalCycles: 9, MaxArrivals: 2}, // == and > wheel size
	{AlivenessCycles: 40, MinHeartbeats: 1},                                  // deep overflow, several revolutions
}

// specShadowHyps are the shadow candidates of the traces: one window
// each, short, every-cycle and beyond the 8-slot wheel.
var specShadowHyps = []Hypothesis{
	{AlivenessCycles: 3, MinHeartbeats: 2},
	{ArrivalCycles: 2, MaxArrivals: 1},
	{AlivenessCycles: 4, MinHeartbeats: 1, ArrivalCycles: 4, MaxArrivals: 3},
	{AlivenessCycles: 1, MinHeartbeats: 1, ArrivalCycles: 1, MaxArrivals: 1},
	{AlivenessCycles: 11, MinHeartbeats: 3},
	// Candidates SetShadow rejects: two windows, no window, an invalid
	// hypothesis.
	{AlivenessCycles: 3, MinHeartbeats: 1, ArrivalCycles: 6, MaxArrivals: 4},
	{},
	{AlivenessCycles: 2},
}

// specFuzzHyps are the hypotheses of the fuzzer's opSetHyp:
// sweepHypTable, a 2-cycle aliveness window and two hypotheses
// SetHypothesis rejects.
var specFuzzHyps = append(slices.Clip(sweepHypTable),
	Hypothesis{AlivenessCycles: 2, MinHeartbeats: 1},
	Hypothesis{AlivenessCycles: 4},
	Hypothesis{ArrivalCycles: -1, MaxArrivals: 1},
)

// specRun replays one trace on a Watchdog and on the specification.
type specRun struct {
	t       testing.TB
	w       *Watchdog
	s       *spec
	clock   *sim.ManualClock
	sink    *collector
	journal []JournalEntry // every entry the Watchdog journaled, via its journal sink
	table   []runnable.ID  // the flow table of opFlow: every runnable, one past the last, NoID
	// batch sends each run of consecutive configuration ops to the
	// Watchdog as one Apply of b; the specification still applies them
	// one by one.
	batch bool
	b     Batch
}

func newSpecRun(t testing.TB, m *runnable.Model, sc specConfig, wheelSize uint64) *specRun {
	t.Helper()
	r := &specRun{t: t, clock: sim.NewManualClock(), sink: &collector{}}
	w, err := New(Config{
		Model: m, Clock: r.clock, Sink: r.sink,
		EagerArrivalCheck:       sc.eager,
		DisableCorrelation:      sc.disableCorrelation,
		CorrelationWindowCycles: int(sc.correlationWindow),
		ECUFaultyAppCount:       sc.ecuFaultyApps,
		Thresholds:              sc.thresholds,
		JournalSink:             func(e JournalEntry) { r.journal = append(r.journal, e) },
		wheelSize:               wheelSize,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.w, r.s = w, newSpec(m, r.clock, sc)
	for i := 0; i <= m.NumRunnables(); i++ {
		r.table = append(r.table, runnable.ID(i))
	}
	r.table = append(r.table, runnable.NoID)
	return r
}

// setup installs hypothesis 1+i%6 of sweepHypTable on runnable i and
// activates it.
func (r *specRun) setup() {
	for i := range r.s.r {
		r.apply(specOp{kind: opSetHyp, rid: runnable.ID(i), hyp: sweepHypTable[1+i%(len(sweepHypTable)-1)]})
		r.apply(specOp{kind: opActivate, rid: runnable.ID(i)})
	}
}

// addFlowSequence adds one flow sequence to both sides.
func (r *specRun) addFlowSequence(t testing.TB, rids ...runnable.ID) {
	t.Helper()
	if err := r.w.AddFlowSequence(rids...); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	r.s.AddFlowSequence(rids...)
}

// isConfigOp says whether an op of kind is a Batch op.
func isConfigOp(kind int) bool {
	return kind == opSetHyp || kind == opActivate || kind == opDeactivate || kind == opSetShadow || kind == opClearShadow
}

// apply replays one op on both sides. A configuration op must fail on
// the Watchdog exactly when the specification does not accept it, and
// a rejected op must leave no trace, which the comparison checks; other
// errors are dropped.
func (r *specRun) apply(op specOp) {
	w, s := r.w, r.s
	switch op.kind {
	case opBeat:
		w.Heartbeat(op.rid)
		s.Beat(op.rid)
	case opBeatN:
		if m, err := w.Register(op.rid); err == nil {
			m.BeatN(op.n)
		}
		s.BeatN(op.rid, op.n)
	case opFlow:
		if len(op.recs) == 1 && int(op.recs[0]) < len(r.table) {
			w.FlowEvent(r.table[op.recs[0]])
		} else {
			w.FlowEventN(r.table, op.recs)
		}
		for _, i := range op.recs {
			if int(i) < len(r.table) {
				s.FlowEvent(r.table[i])
			}
		}
	case opCycle:
		r.clock.Advance(10 * time.Millisecond)
		w.Cycle()
		s.Cycle()
	case opDeactivate, opActivate, opSetHyp, opSetShadow, opClearShadow:
		var err error
		switch op.kind {
		case opDeactivate:
			err = w.Deactivate(op.rid)
		case opActivate:
			err = w.Activate(op.rid)
		case opSetHyp:
			err = w.SetHypothesis(op.rid, op.hyp)
		case opSetShadow:
			err = w.SetShadow(op.rid, op.hyp)
		case opClearShadow:
			err = w.ClearShadow(op.rid)
		}
		if (err == nil) != s.accepts(op) {
			r.t.Fatalf("%+v: watchdog error %v, spec accepts %v", op, err, s.accepts(op))
		}
		s.Configure(op)
	case opClearTask:
		_ = w.ClearTask(op.tid)
		s.ClearTask(op.tid)
	case opSuspend:
		_ = w.SuspendTaskMonitoring(op.tid)
		s.Suspend(op.tid)
	case opResume:
		_ = w.ResumeTaskMonitoring(op.tid)
		s.Resume(op.tid)
	case opClearAll:
		w.ClearAll()
		s.ClearAll()
	}
}

// applyBatch replays a run of configuration ops: one Apply on the
// Watchdog, one op after another on the specification. The batch must
// fail exactly when the specification does not accept one of its ops,
// and a rejected batch must leave the Watchdog unchanged.
func (r *specRun) applyBatch(t testing.TB, ops []specOp, where string) {
	t.Helper()
	r.b.Reset()
	accepted := true
	for _, op := range ops {
		switch op.kind {
		case opDeactivate:
			r.b.Deactivate(op.rid)
		case opActivate:
			r.b.Activate(op.rid)
		case opSetHyp:
			r.b.SetHypothesis(op.rid, op.hyp)
		case opSetShadow:
			r.b.SetShadow(op.rid, op.hyp)
		case opClearShadow:
			r.b.ClearShadow(op.rid)
		}
		accepted = accepted && r.s.accepts(op)
	}
	if err := r.w.Apply(&r.b); (err == nil) != accepted {
		t.Fatalf("%s: batch %+v: Apply error %v, spec accepts %v", where, ops, err, accepted)
	}
	if !accepted {
		r.compareState(t, where+": rejected batch")
		return
	}
	for _, op := range ops {
		r.s.Configure(op)
	}
}

// replay applies a trace, comparing every runnable's counters and the
// shadow verdicts after each cycle, then compares every output.
func (r *specRun) replay(t testing.TB, trace []specOp) {
	t.Helper()
	for i := 0; i < len(trace); i++ {
		if op := trace[i]; r.batch && isConfigOp(op.kind) {
			end := i + 1
			for end < len(trace) && isConfigOp(trace[end].kind) {
				end++
			}
			r.applyBatch(t, trace[i:end], fmt.Sprintf("ops %d-%d", i, end-1))
			i = end - 1
			continue
		}
		r.apply(trace[i])
		if trace[i].kind == opCycle {
			r.compareState(t, fmt.Sprintf("op %d", i))
		}
	}
	r.compareState(t, "end")
	r.compareOutputs(t)
}

// compareState compares the hypotheses, counters and shadow verdicts.
func (r *specRun) compareState(t testing.TB, where string) {
	t.Helper()
	for i := range r.s.r {
		rid := runnable.ID(i)
		if got, _ := r.w.Hypothesis(rid); got != r.s.r[i].hyp {
			t.Fatalf("%s: hypothesis of runnable %d: watchdog %+v, spec %+v", where, i, got, r.s.r[i].hyp)
		}
		got, _ := r.w.CounterSnapshot(rid)
		if want := r.s.Counters(rid); got != want {
			t.Fatalf("%s: counters of runnable %d: watchdog %+v, spec %+v", where, i, got, want)
		}
	}
	if got, want := r.w.Shadows(), r.s.Shadows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: shadow verdicts: watchdog %+v, spec %+v", where, got, want)
	}
}

// compareOutputs compares the report and state-event streams, the
// journal, the results and the TSI state.
func (r *specRun) compareOutputs(t testing.TB) {
	t.Helper()
	w, s := r.w, r.s
	if got := w.Results(); got != s.results {
		t.Fatalf("Results: watchdog %+v, spec %+v", got, s.results)
	}
	sameStream(t, "fault reports", r.sink.faults, s.faults)
	sameStream(t, "state events", r.sink.states, s.states)
	sameStream(t, "journal entries", r.journal, s.journal)
	tail := s.journal[max(0, len(s.journal)-defaultJournalSize):]
	sameStream(t, "journal ring", w.Journal(), tail)
	snap := w.Snapshot()
	if snap.Cycle != s.cycle || snap.Results != s.results || snap.ECUState != s.ecu || snap.Journal.Written != uint64(len(s.journal)) {
		t.Fatalf("Snapshot: cycle %d results %+v ECU %v journal %d, spec %d %+v %v %d",
			snap.Cycle, snap.Results, snap.ECUState, snap.Journal.Written, s.cycle, s.results, s.ecu, len(s.journal))
	}
	for i, row := range snap.Runnables {
		sr := &s.r[i]
		c := s.Counters(runnable.ID(i))
		want := RunnableStats{ID: runnable.ID(i), Active: c.Active, Beats: sr.beats,
			AC: c.AC, ARC: c.ARC, CCA: c.CCA, CCAR: c.CCAR,
			ErrAliveness: sr.errv[0], ErrArrivalRate: sr.errv[1], ErrProgramFlow: sr.errv[2]}
		if row != want {
			t.Fatalf("Snapshot row %d: watchdog %+v, spec %+v", i, row, want)
		}
	}
	for i := range s.tasks {
		if got, _ := w.TaskState(runnable.TaskID(i)); got != s.tasks[i].state {
			t.Fatalf("task %d: watchdog %v, spec %v", i, got, s.tasks[i].state)
		}
	}
	for i := range s.apps {
		if got, _ := w.AppState(runnable.AppID(i)); got != s.apps[i] {
			t.Fatalf("app %d: watchdog %v, spec %v", i, got, s.apps[i])
		}
	}
}

// sameStream fails at the first element where got and want differ.
func sameStream[T any](t testing.TB, what string, got, want []T) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s diverge at %d of %d/%d:\n  watchdog: %+v\n  spec:     %+v", what, i, len(got), len(want), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: watchdog has %d, spec %d", what, len(got), len(want))
	}
}

// --- Fixed traces ---------------------------------------------------

// makeSweepTrace generates a deterministic trace over nR runnables and
// nT tasks: heartbeats and cycles interleaved with mid-window
// hypothesis swaps, activation churn and fault treatment.
func makeSweepTrace(seed int64, nR, nT, length int) []specOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]specOp, length)
	for i := range ops {
		switch r := rng.Intn(100); {
		case r < 38:
			ops[i] = specOp{kind: opBeat, rid: runnable.ID(rng.Intn(nR))}
		case r < 70:
			ops[i] = specOp{kind: opCycle}
		case r < 80:
			ops[i] = specOp{kind: opSetHyp, rid: runnable.ID(rng.Intn(nR)), hyp: sweepHypTable[rng.Intn(len(sweepHypTable))]}
		case r < 85:
			ops[i] = specOp{kind: opDeactivate, rid: runnable.ID(rng.Intn(nR))}
		case r < 90:
			ops[i] = specOp{kind: opActivate, rid: runnable.ID(rng.Intn(nR))}
		case r < 94:
			ops[i] = specOp{kind: opClearTask, tid: runnable.TaskID(rng.Intn(nT))}
		case r < 97:
			ops[i] = specOp{kind: opSuspend, tid: runnable.TaskID(rng.Intn(nT))}
		case r < 99:
			ops[i] = specOp{kind: opResume, tid: runnable.TaskID(rng.Intn(nT))}
		default:
			ops[i] = specOp{kind: opClearAll}
		}
	}
	return ops
}

// sweepModel is the model of the fixed traces: one application, task
// T1 with three runnables and T2 with two.
func sweepModel(t testing.TB) *runnable.Model {
	t.Helper()
	m := runnable.NewModel()
	app, _ := m.AddApp("equiv", runnable.SafetyCritical)
	t1, _ := m.AddTask(app, "T1", 1)
	t2, _ := m.AddTask(app, "T2", 2)
	for i, task := range []runnable.TaskID{t1, t1, t1, t2, t2} {
		if _, err := m.AddRunnable(task, "r"+string(rune('0'+i)), time.Millisecond, runnable.SafetyCritical); err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return m
}

// TestSweepEquivalence replays deterministic 5000-op traces through the
// timer-wheel sweep, on a deliberately tiny 8-slot wheel to force
// overflow migration and same-slot reinsertion and on the default
// wheel, and requires the Results, the full fault Report stream (kind,
// runnable, observed, expected, cycle, correlation), the state-event
// stream, the journal and every per-runnable counter snapshot to equal
// the specification's.
func TestSweepEquivalence(t *testing.T) {
	m := sweepModel(t)
	variants := []struct {
		name      string
		wheelSize uint64
	}{
		{"wheel-8slot", 8},
		{"wheel-default", 0},
	}
	for _, eager := range []bool{false, true} {
		name := "period-end"
		if eager {
			name = "eager"
		}
		t.Run(name, func(t *testing.T) {
			for _, v := range variants {
				t.Run(v.name, func(t *testing.T) {
					for seed := int64(1); seed <= 6; seed++ {
						r := newSpecRun(t, m, defaultSpecConfig(eager), v.wheelSize)
						r.setup()
						r.addFlowSequence(t, 0, 1, 2)
						r.addFlowSequence(t, 3, 4)
						r.replay(t, makeSweepTrace(seed, 5, 2, 5000))
					}
				})
			}
		})
	}
}

// --- The fuzzer -----------------------------------------------------

// fuzzSpecModel is the fuzzer's model: application A with task T1 (r0,
// r1, r2) and task T2 (r3, r4), and application B with r5 on the shared
// task T2 and r6 alone on T3. T2 thus feeds both applications.
func fuzzSpecModel(t testing.TB) *runnable.Model {
	t.Helper()
	m := runnable.NewModel()
	a, _ := m.AddApp("A", runnable.SafetyCritical)
	b, _ := m.AddApp("B", runnable.SafetyRelevant)
	t1, _ := m.AddTask(a, "T1", 1)
	t2, _ := m.AddTask(a, "T2", 2)
	t3, _ := m.AddTask(b, "T3", 3)
	for i, task := range []runnable.TaskID{t1, t1, t1, t2, t2} {
		if _, err := m.AddRunnable(task, fmt.Sprintf("r%d", i), time.Millisecond, runnable.SafetyCritical); err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
	}
	if _, err := m.AddSharedRunnable(t2, b, "r5", time.Millisecond, runnable.SafetyRelevant); err != nil {
		t.Fatalf("AddSharedRunnable: %v", err)
	}
	if _, err := m.AddRunnable(t3, "r6", time.Millisecond, runnable.SafetyRelevant); err != nil {
		t.Fatalf("AddRunnable: %v", err)
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return m
}

// specOpCodes maps an op's code byte (mod 64) to its kind: mostly
// heartbeats and cycles, rarely an ECU reset.
var specOpCodes = func() [64]int {
	weights := [numOpKinds]int{
		opBeat: 22, opCycle: 18, opDeactivate: 2, opActivate: 3, opSetHyp: 3,
		opClearTask: 2, opSuspend: 1, opResume: 1, opClearAll: 1,
		opBeatN: 4, opFlow: 4, opSetShadow: 2, opClearShadow: 1,
	}
	var codes [64]int
	i := 0
	for kind, n := range weights {
		for ; n > 0; n-- {
			codes[i] = kind
			i++
		}
	}
	return codes
}()

// specBatchCounts are the counts of opBeatN: no-ops, small batches and
// one past the MaxBatchBeats cap.
var specBatchCounts = []int{-1, 0, 1, 2, 3, 5, 8, MaxBatchBeats + 1}

// decodeSpecInput decodes a fuzz input for fuzzSpecModel. Byte 0 holds
// the Config flags: bit 0 eager, bit 1 correlation off, bit 2 one faulty
// application faults the ECU, bits 3–4 the correlation window minus
// one; bit 5 sends each run of configuration ops to the Watchdog as one
// batch (specRun.batch). Byte 1 holds the thresholds minus one, two bits each: aliveness,
// arrival rate, program flow. Then each op is a code byte and an
// argument byte: the low three bits name a runnable (7 is unknown) or a
// task (the low two; 3 is unknown), the high five a hypothesis, a batch
// count or, for opFlow, how many record bytes (1–4) follow.
func decodeSpecInput(data []byte) (sc specConfig, batch bool, ops []specOp) {
	var hdr [2]byte
	copy(hdr[:], data)
	data = data[min(2, len(data)):]
	sc = specConfig{
		eager:              hdr[0]&1 != 0,
		disableCorrelation: hdr[0]&2 != 0,
		ecuFaultyApps:      2 - int(hdr[0]>>2&1),
		correlationWindow:  1 + uint64(hdr[0]>>3&3),
		thresholds: Thresholds{
			Aliveness:   1 + int(hdr[1]&3),
			ArrivalRate: 1 + int(hdr[1]>>2&3),
			ProgramFlow: 1 + int(hdr[1]>>4&3),
		},
	}
	for len(data) >= 2 {
		code, arg := data[0], data[1]
		data = data[2:]
		hi := int(arg >> 3)
		op := specOp{kind: specOpCodes[code%64], rid: runnable.ID(arg & 7), tid: runnable.TaskID(arg & 3)}
		switch op.kind {
		case opSetHyp:
			op.hyp = specFuzzHyps[hi%len(specFuzzHyps)]
		case opSetShadow:
			op.hyp = specShadowHyps[hi%len(specShadowHyps)]
		case opBeatN:
			op.n = specBatchCounts[hi%len(specBatchCounts)]
		case opFlow:
			k := min(1+hi%4, len(data))
			for _, b := range data[:k] {
				op.recs = append(op.recs, uint32(b%10)) // 9 is past the 9-entry flow table
			}
			data = data[k:]
		}
		ops = append(ops, op)
	}
	return sc, hdr[0]&32 != 0, ops
}

// encodeSpecInput is decodeSpecInput's inverse for the default Config
// (thresholds 3, correlation window 2, two faulty applications fault
// the ECU), for ops whose hypothesis, shadow candidate and batch count
// are in the decoder's tables.
func encodeSpecInput(eager, batch bool, trace []specOp) []byte {
	var hdr0 byte = 1 << 3 // correlation window 2
	if eager {
		hdr0 |= 1
	}
	if batch {
		hdr0 |= 32
	}
	out := []byte{hdr0, 2 | 2<<2 | 2<<4}
	codeOf := func(kind int) byte {
		for i, k := range specOpCodes {
			if k == kind {
				return byte(i)
			}
		}
		panic("no code for op kind")
	}
	for _, op := range trace {
		arg := byte(op.rid) | byte(op.tid)
		switch op.kind {
		case opSetHyp:
			arg |= byte(slices.Index(specFuzzHyps, op.hyp)) << 3
		case opSetShadow:
			arg |= byte(slices.Index(specShadowHyps, op.hyp)) << 3
		case opBeatN:
			arg |= byte(slices.Index(specBatchCounts, op.n)) << 3
		case opFlow:
			arg |= byte(len(op.recs)-1) << 3
		}
		out = append(out, codeOf(op.kind), arg)
		for _, rec := range op.recs {
			out = append(out, byte(rec))
		}
	}
	return out
}

// specReArmTrace is the trace of TestCorrelationReArms on the fuzzer's
// model: only r6 is supervised, with a 2-cycle aliveness window. A flow
// error at cycle 0 is followed by a silent window at cycle 2, and,
// after 50 healthy cycles, a flow error at cycle 52 by a silent window
// at cycle 54. Each burst accumulates its own correlated aliveness
// error.
func specReArmTrace() []specOp {
	var trace []specOp
	for rid := runnable.ID(0); rid < 6; rid++ {
		trace = append(trace, specOp{kind: opDeactivate, rid: rid})
	}
	cycle := specOp{kind: opCycle}
	trace = append(trace,
		specOp{kind: opSetHyp, rid: 6, hyp: Hypothesis{AlivenessCycles: 2, MinHeartbeats: 1}},
		specOp{kind: opActivate, rid: 6},
		specOp{kind: opFlow, recs: []uint32{6, 6}}, // r6 has no successor: 6 after 6 is a flow error
		cycle, cycle)
	for c := 2; c < 52; c += 2 {
		trace = append(trace, specOp{kind: opBeatN, rid: 6, n: 1}, cycle, cycle)
	}
	return append(trace, specOp{kind: opFlow, recs: []uint32{6}}, cycle, cycle)
}

// specRejectedBatchTraces are traces whose batches hold an op the
// Watchdog must reject: an unknown runnable, an invalid hypothesis and
// a shadow candidate with two windows. Each rejected batch is followed
// by cycles and an accepted batch.
func specRejectedBatchTraces() [][]specOp {
	prefix := []specOp{{kind: opSetShadow, rid: 2, hyp: specShadowHyps[0]}}
	for rid := runnable.ID(0); rid < 7; rid++ {
		prefix = append(prefix, specOp{kind: opBeat, rid: rid}, specOp{kind: opCycle})
	}
	suffix := []specOp{{kind: opCycle}, {kind: opBeat, rid: 3}, {kind: opCycle},
		{kind: opDeactivate, rid: 2}, {kind: opSetHyp, rid: 3, hyp: specFuzzHyps[3]}, {kind: opClearShadow, rid: 2},
		{kind: opCycle}, {kind: opCycle}, {kind: opCycle}}
	var traces [][]specOp
	for _, bad := range [][]specOp{
		{{kind: opDeactivate, rid: 2}, {kind: opSetHyp, rid: 3, hyp: specFuzzHyps[3]}, {kind: opActivate, rid: 7}},
		{{kind: opSetHyp, rid: 1, hyp: specFuzzHyps[4]}, {kind: opSetHyp, rid: 2, hyp: specFuzzHyps[8]}, {kind: opDeactivate, rid: 4}},
		{{kind: opSetShadow, rid: 0, hyp: specShadowHyps[0]}, {kind: opSetShadow, rid: 1, hyp: specShadowHyps[5]}, {kind: opClearShadow, rid: 2}},
	} {
		traces = append(traces, slices.Concat(prefix, bad, suffix))
	}
	return traces
}

// FuzzWatchdogAgainstSpec decodes a Config and a trace, replays it on
// the Watchdog (on an 8-slot wheel and on the default one) and on the
// specification, and requires bit-identical output. Its seeds are
// TestSweepEquivalence's traces with the eager check off and on, and
// with the configuration ops batched; random inputs that mix in beat
// batches, flow records and shadows; the trace of
// TestCorrelationReArms; and batches the Watchdog must reject.
func FuzzWatchdogAgainstSpec(f *testing.F) {
	m := fuzzSpecModel(f)
	for _, eager := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			f.Add(encodeSpecInput(eager, false, makeSweepTrace(seed, 5, 2, 5000)))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(encodeSpecInput(false, true, makeSweepTrace(seed, 5, 2, 5000)))
	}
	f.Add(encodeSpecInput(false, false, specReArmTrace()))
	for _, trace := range specRejectedBatchTraces() {
		f.Add(encodeSpecInput(false, true, trace))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, batch, trace := decodeSpecInput(data)
		for _, size := range []uint64{8, 0} {
			r := newSpecRun(t, m, sc, size)
			r.batch = batch
			r.setup()
			r.addFlowSequence(t, 0, 1, 2)
			r.addFlowSequence(t, 3, 4, 5)
			if err := r.w.MonitorFlow(6); err != nil {
				t.Fatalf("MonitorFlow: %v", err)
			}
			r.s.MonitorFlow(6)
			r.replay(t, trace)
		}
	})
}
