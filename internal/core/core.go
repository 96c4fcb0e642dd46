// Package core implements the paper's primary contribution: the Software
// Watchdog, a dependability software service that monitors the timing
// behaviour and program flow of individual application runnables at run
// time (§3).
//
// The service has the paper's three basic units:
//
//   - the heartbeat monitoring unit, tracking per-runnable aliveness and
//     arrival rate with the Aliveness Counter (AC), Arrival Rate Counter
//     (ARC), Cycle Counter for Aliveness (CCA), Cycle Counter for Arrival
//     Rate (CCAR) and an Activation Status (AS) per runnable (§3.3);
//   - the program flow checking (PFC) unit, validating executed successors
//     against a predefined look-up table of allowed predecessor/successor
//     pairs (§3.4);
//   - the task state indication (TSI) unit, accumulating per-runnable error
//     indications in error indication vectors and deriving task,
//     application and global ECU state (§3.5).
//
// The heartbeat hot path is lock-free in the common (healthy) case: see
// hot.go for the layout and monitor.go for the per-runnable handle API.
// Detections and configuration changes take the single cold-path mutex;
// configuration changes are made as batches (batch.go).
//
// The watchdog is clock-agnostic: driven by an OSEK alarm on virtual time
// in the HIL reproduction, or by a time.Ticker when deployed as a live Go
// service (see the root swwd package).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"swwd/internal/calib"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// ErrUnknownRunnable is returned (wrapped) by every method taking a
// runnable identifier when the identifier is not part of the model. Test
// with errors.Is.
var ErrUnknownRunnable = errors.New("unknown runnable")

// Hypothesis is the per-runnable fault hypothesis: how many heartbeats the
// runnable must (aliveness) and may (arrival rate) produce within its
// monitoring periods, both expressed in watchdog cycles.
type Hypothesis struct {
	// AlivenessCycles is the aliveness monitoring period in watchdog
	// cycles (the CCA limit); zero disables aliveness monitoring.
	AlivenessCycles int
	// MinHeartbeats is the minimum number of heartbeats required per
	// aliveness period.
	MinHeartbeats int
	// ArrivalCycles is the arrival-rate monitoring period in watchdog
	// cycles (the CCAR limit); zero disables arrival-rate monitoring.
	ArrivalCycles int
	// MaxArrivals is the maximum number of heartbeats tolerated per
	// arrival-rate period.
	MaxArrivals int
}

// Validate checks internal consistency.
func (h Hypothesis) Validate() error {
	if h.AlivenessCycles < 0 || h.ArrivalCycles < 0 {
		return errors.New("core: negative monitoring period")
	}
	if h.AlivenessCycles > 0 && h.MinHeartbeats <= 0 {
		return errors.New("core: aliveness monitoring requires MinHeartbeats >= 1")
	}
	if h.ArrivalCycles > 0 && h.MaxArrivals <= 0 {
		return errors.New("core: arrival-rate monitoring requires MaxArrivals >= 1")
	}
	return nil
}

// Thresholds are the error-indication-vector limits of the TSI unit: how
// many errors of each kind one runnable may accumulate before its task is
// declared faulty (Fig. 6 uses a program-flow threshold of 3).
type Thresholds struct {
	Aliveness   int
	ArrivalRate int
	ProgramFlow int
}

// DefaultThresholds mirror the evaluation setup of the paper.
func DefaultThresholds() Thresholds {
	return Thresholds{Aliveness: 3, ArrivalRate: 3, ProgramFlow: 3}
}

func (t Thresholds) of(kind ErrorKind) int {
	switch kind {
	case AlivenessError:
		return t.Aliveness
	case ArrivalRateError:
		return t.ArrivalRate
	case ProgramFlowError:
		return t.ProgramFlow
	default:
		return 0
	}
}

// Config assembles a Watchdog.
type Config struct {
	Model *runnable.Model
	Clock sim.Clock
	// Sink receives fault reports and state events; nil attaches a
	// discarding sink (reports remain queryable via counters).
	Sink Sink
	// CyclePeriod documents the intended spacing of Cycle calls; the
	// driver (OSEK alarm or ticker) owns the actual cadence. Used only
	// for reporting. Defaults to 10ms, the tick of the paper's plots.
	CyclePeriod time.Duration
	// Thresholds for the TSI unit; zero value means DefaultThresholds.
	Thresholds Thresholds
	// EagerArrivalCheck trips an arrival-rate error the moment ARC
	// exceeds MaxArrivals instead of at period end (ablation; the paper
	// checks "shortly before the next period begins").
	EagerArrivalCheck bool
	// DisableCorrelation turns off the Fig. 6 collaboration between the
	// PFC and heartbeat units (ablation).
	DisableCorrelation bool
	// CorrelationWindowCycles is how many cycles after a program-flow
	// error an aliveness error on the same task is attributed to the flow
	// root cause. Zero means 2.
	CorrelationWindowCycles int
	// ECUFaultyAppCount is how many simultaneously faulty applications
	// mark the global ECU state faulty. Zero means 2; set to 1 to make
	// any faulty application an ECU-level fault.
	ECUFaultyAppCount int
	// JournalSize is the fault-event journal capacity in entries, rounded
	// up to a power of two. Zero selects the default (256); negative
	// disables the journal entirely; above 1<<20 New fails. Journal
	// writes happen only on the detection cold path, never on the
	// healthy beat path.
	JournalSize int
	// JournalSink, when set, receives a copy of every journaled
	// detection immediately after it lands in the ring, with its Seq
	// stamped. It runs under the watchdog's lock, so it MUST be
	// non-blocking and must not call any Watchdog method.
	// Hand the entry to a lock-free ring or drop it (the WAL shipper
	// does exactly that). The consumer of that ring may call Watchdog
	// methods, and may do so mid-sweep: see Sink. Ignored when the
	// journal is disabled (JournalSize < 0). Replaceable at runtime via
	// SetJournalSink.
	JournalSink func(JournalEntry)
	// MetricsSink, when set, receives a telemetry snapshot every
	// MetricsEveryCycles monitoring cycles, invoked on the goroutine that
	// called Cycle after the sweep finished. The *Snapshot points at a
	// buffer the watchdog reuses: copy what must outlive the call.
	MetricsSink func(*Snapshot)
	// MetricsEveryCycles spaces MetricsSink invocations in cycles; zero
	// means 100 (one emission per second at the default 10 ms cycle).
	MetricsEveryCycles int
	// EstimatorWindowCycles enables the online calibration estimator
	// (internal/calib): every EstimatorWindowCycles monitoring cycles the
	// lifetime per-runnable beat counts are sampled into one observation
	// window, on the goroutine that called Cycle. Zero disables the
	// estimator; the heartbeat hot path is identical either way.
	EstimatorWindowCycles int
	// wheelSize overrides the timer-wheel bucket count (power of two;
	// zero means defaultWheelSize). In-package test hook.
	wheelSize uint64
}

// tstate is the TSI state of one task. All fields are cold-path state
// guarded by the watchdog mutex; the PFC predecessor register lives
// separately under the flow shards (see hot.go).
type tstate struct {
	state HealthState
	// lastFlowCycle is the cycle of the most recent program-flow error on
	// this task, for the correlation window.
	lastFlowCycle uint64
	flowSeen      bool
	// correlatedAlivenessReported implements the paper's "only one
	// accumulated aliveness error is reported" during a flow-error
	// burst; a flow error past the previous one's correlation window
	// starts a new burst and clears it.
	correlatedAlivenessReported bool
	// suspendedAS remembers which runnables had their Activation Status
	// on when SuspendTaskMonitoring switched the task off.
	suspendedAS []runnable.ID
}

// astate is the TSI state of one application.
type astate struct {
	state HealthState
}

// Counters is a snapshot of one runnable's heartbeat-monitoring counters.
type Counters struct {
	Active bool
	AC     int
	ARC    int
	CCA    int
	CCAR   int
}

// Results are cumulative detection counts — the "AM Result", "AR Result"
// and "PFC Result" series of the paper's plots.
type Results struct {
	Aliveness   uint64
	ArrivalRate uint64
	ProgramFlow uint64
}

// Watchdog is the Software Watchdog service instance for one ECU.
//
// Concurrency model: Heartbeat / Monitor.Beat and Cycle are safe for
// unrestricted concurrent use; heartbeats are lock-free on the healthy
// path (see hot.go) and the Cycle sweep visits only runnables whose
// monitoring window expires this cycle (see wheel.go / sweep.go).
// Configuration methods (Apply and its one-op forms SetHypothesis,
// Activate, Deactivate, SetShadow and ClearShadow; AddFlowPair,
// Clear*, Suspend/Resume) serialize on the cold-path mutex and may run
// concurrently with heartbeats; a heartbeat racing a configuration
// change lands on either side of it. A Cycle sees a Batch whole or not
// at all, even when the batch lands while the sweep has given the lock
// away mid-cycle.
type Watchdog struct {
	cfg   Config
	model *runnable.Model
	clock sim.Clock
	sink  Sink

	// Hot state (lock-free): per-runnable counters, the PFC look-up table
	// snapshot, per-task predecessor registers and the cycle counter.
	hot    []hotState
	taskOf []runnable.TaskID // rid → hosting task, precomputed
	flow   atomic.Pointer[flowTable]
	preds  []predReg
	cycle  atomic.Uint64

	// sched is the due-cycle timer wheel driving the Cycle sweep, and
	// cold the arrival and shadow part of each runnable's sweep state,
	// indexed like hot (see wheel.go). Both guarded by mu.
	sched *scheduler
	cold  []coldSched

	// mu is the single cold-path mutex. It guards the sweep state (the
	// wheel, every runnable's window bookkeeping and the shadows), the
	// detections, error-indication vectors, the TSI derivation chain,
	// the fault-event journal, the hypothesis intern table and flow-table
	// edits.
	mu sync.Mutex
	// waiters counts callers blocked on mu (see lock.go), so the two
	// paged holders of mu, the due sweep and the scrape, know when
	// someone waits for it.
	waiters atomic.Int32
	// handoffs counts the times a blocked caller has taken mu, so a
	// paged holder that gave way knows when one got in.
	handoffs atomic.Uint32
	// cycleMu serializes the wheel sweep and ClearAll. The sweep may
	// give mu away between bitset words, and neither a second sweep
	// nor a cycle rewind may run in that gap. Taken before mu, never
	// while holding it.
	cycleMu  sync.Mutex
	errv     [][3]uint64 // error-indication vector, indexed by kind-1
	ts       []tstate
	as       []astate
	ecuState HealthState
	results  Results
	journal  *journal // nil when Config.JournalSize < 0
	// journalSink mirrors Config.JournalSink; guarded by mu (its only
	// call site, journalLocked, already holds it).
	journalSink func(JournalEntry)
	// hyps interns installed hypotheses so runnables with equal values
	// share one pointer; lastHyp is the most recent one, which answers
	// the common run of identical SetHypothesis calls without a map
	// lookup. Both guarded by mu.
	hyps    map[Hypothesis]*Hypothesis
	lastHyp *Hypothesis

	// Telemetry: the Cycle-duration histogram (atomic, written once per
	// cycle) and the reused MetricsSink snapshot buffer.
	sweepHist    histogram
	metricsEvery uint64
	metricsMu    sync.Mutex
	metricsBuf   Snapshot

	// shadows holds the shadow-guard candidate hypotheses, guarded by
	// mu like the wheel state it rides (see shadow.go). Nil until the
	// first SetShadow.
	shadows map[runnable.ID]*shadowState

	// Online calibration estimator state (nil/zero unless
	// Config.EstimatorWindowCycles > 0); see maybeSampleEstimator.
	est       *calib.Estimator
	estEvery  uint64
	estMu     sync.Mutex
	estPrimed bool
	estLast   []uint64
	estCounts []uint64
}

// New validates the configuration and builds a watchdog with all
// activation statuses off; configure runnables with SetHypothesis and the
// flow table with AddFlowPair/AddFlowSequence, then Activate them.
func New(cfg Config) (*Watchdog, error) {
	if cfg.Model == nil {
		return nil, errors.New("core: Config.Model is required")
	}
	if !cfg.Model.Frozen() {
		return nil, errors.New("core: model must be frozen")
	}
	if cfg.Clock == nil {
		return nil, errors.New("core: Config.Clock is required")
	}
	if cfg.Sink == nil {
		cfg.Sink = nopSink{}
	}
	if cfg.CyclePeriod <= 0 {
		cfg.CyclePeriod = 10 * time.Millisecond
	}
	if (cfg.Thresholds == Thresholds{}) {
		cfg.Thresholds = DefaultThresholds()
	}
	if cfg.Thresholds.Aliveness <= 0 || cfg.Thresholds.ArrivalRate <= 0 || cfg.Thresholds.ProgramFlow <= 0 {
		return nil, errors.New("core: thresholds must be positive")
	}
	if cfg.CorrelationWindowCycles <= 0 {
		cfg.CorrelationWindowCycles = 2
	}
	if cfg.ECUFaultyAppCount <= 0 {
		cfg.ECUFaultyAppCount = 2
	}
	if cfg.wheelSize != 0 && cfg.wheelSize&(cfg.wheelSize-1) != 0 {
		return nil, errors.New("core: wheel size must be a power of two")
	}
	if cfg.MetricsEveryCycles <= 0 {
		cfg.MetricsEveryCycles = 100
	}
	if cfg.EstimatorWindowCycles < 0 {
		return nil, errors.New("core: EstimatorWindowCycles must be non-negative")
	}
	if cfg.JournalSize > maxJournalSize {
		return nil, fmt.Errorf("core: JournalSize %d exceeds the maximum of %d entries", cfg.JournalSize, maxJournalSize)
	}
	n := cfg.Model.NumRunnables()
	w := &Watchdog{
		cfg:      cfg,
		model:    cfg.Model,
		clock:    cfg.Clock,
		sink:     cfg.Sink,
		hot:      make([]hotState, n),
		cold:     make([]coldSched, n),
		taskOf:   make([]runnable.TaskID, n),
		preds:    make([]predReg, cfg.Model.NumTasks()),
		errv:     make([][3]uint64, n),
		ts:       make([]tstate, cfg.Model.NumTasks()),
		as:       make([]astate, cfg.Model.NumApps()),
		ecuState: StateOK,
	}
	w.metricsEvery = uint64(cfg.MetricsEveryCycles)
	if cfg.EstimatorWindowCycles > 0 {
		w.est = calib.NewEstimator(n, calib.EstimatorConfig{WindowCycles: cfg.EstimatorWindowCycles})
		w.estEvery = uint64(cfg.EstimatorWindowCycles)
		w.estLast = make([]uint64, n)
		w.estCounts = make([]uint64, n)
	}
	if cfg.JournalSize >= 0 {
		w.journal = newJournal(cfg.JournalSize)
		w.journalSink = cfg.JournalSink
	}
	disabled := &Hypothesis{}
	w.hyps = map[Hypothesis]*Hypothesis{*disabled: disabled}
	w.lastHyp = disabled
	for i := range w.hot {
		w.hot[i].hyp.Store(disabled)
		w.hot[i].eagerAt.Store(eagerDisabled)
		w.taskOf[i] = cfg.Model.TaskOf(runnable.ID(i))
		w.hot[i].tid = int32(w.taskOf[i])
	}
	w.sched = newScheduler(w.hot, w.cold, cfg.wheelSize)
	w.flow.Store(newFlowTable(n))
	for i := range w.preds {
		w.preds[i].last.Store(int64(runnable.NoID))
	}
	for i := range w.ts {
		w.ts[i].state = StateOK
	}
	for i := range w.as {
		w.as[i].state = StateOK
	}
	return w, nil
}

// CyclePeriod reports the configured watchdog cycle period.
func (w *Watchdog) CyclePeriod() time.Duration { return w.cfg.CyclePeriod }

// checkRunnable validates a runnable identifier against the model.
func (w *Watchdog) checkRunnable(rid runnable.ID) error {
	if uint(rid) >= uint(len(w.hot)) {
		return fmt.Errorf("core: %w: id %d", ErrUnknownRunnable, rid)
	}
	return nil
}

// SetHypothesis installs the fault hypothesis for a runnable. The runnable
// is not activated; call Activate. Unknown identifiers report
// ErrUnknownRunnable. It is Apply with a one-op batch.
func (w *Watchdog) SetHypothesis(rid runnable.ID, h Hypothesis) error {
	return w.applyOps([]batchOp{{kind: setHypothesisOp, rid: rid, hyp: h}})
}

// setHypothesisLocked is SetHypothesis on a checked op. Requires w.mu.
func (w *Watchdog) setHypothesisLocked(rid runnable.ID, h Hypothesis) {
	hs, cs := &w.hot[rid], &w.cold[rid]
	if old := hs.hyp.Load(); old.ArrivalCycles == 0 && h.ArrivalCycles > 0 {
		// Arrival monitoring switches on: ARC has been accumulating since
		// the unit was last off (every beat counts in both) and must not
		// count against the first monitored window. Drain it; AC is
		// preserved, so aliveness supervision sees no gap.
		cs.arrBase = hs.beats.Load()
	}
	hs.hyp.Store(w.internLocked(h))
	if lim := eagerLimit(w.cfg.EagerArrivalCheck, &h); lim > 0 {
		hs.eagerAt.Store(cs.arrBase + lim)
	} else {
		hs.eagerAt.Store(eagerDisabled)
	}
	// Re-derive the deadlines under the new hypothesis, preserving the
	// in-flight windows' elapsed cycles: a hypothesis change resets no
	// counter.
	c, active := w.cycle.Load(), hs.active.Load() != 0
	w.reschedLocked(rid, kindAlive, h.AlivenessCycles, active, anchorElapsed(hs.aliveAnchor, c))
	w.reschedLocked(rid, kindArr, h.ArrivalCycles, active, anchorElapsed(cs.arrAnchor, c))
}

// maxInternedHyps bounds the intern table. A calibrated fleet may cycle
// through many distinct hypotheses over its life; past the bound a new
// value gets a private copy instead of a table entry.
const maxInternedHyps = 4096

// internLocked returns the shared pointer for h, adding it to the intern
// table on first use. Installed hypotheses are never written through
// their pointer, so sharing one among runnables is safe. Callers hold
// w.mu.
func (w *Watchdog) internLocked(h Hypothesis) *Hypothesis {
	if p := w.lastHyp; *p == h {
		return p
	}
	p, ok := w.hyps[h]
	if !ok {
		p = new(Hypothesis) // not &h, which would move h to the heap on every call
		*p = h
		if len(w.hyps) < maxInternedHyps {
			w.hyps[h] = p
		}
	}
	w.lastHyp = p
	return p
}

// Hypothesis reports the installed fault hypothesis of a runnable.
func (w *Watchdog) Hypothesis(rid runnable.ID) (Hypothesis, error) {
	if err := w.checkRunnable(rid); err != nil {
		return Hypothesis{}, err
	}
	return *w.hot[rid].hyp.Load(), nil
}

// Activate sets a runnable's Activation Status: its heartbeats are
// recorded and its hypothesis checked. It is Apply with a one-op batch.
func (w *Watchdog) Activate(rid runnable.ID) error {
	return w.applyOps([]batchOp{{kind: activateOp, rid: rid}})
}

// Deactivate clears a runnable's Activation Status and resets its
// counters. It is Apply with a one-op batch.
func (w *Watchdog) Deactivate(rid runnable.ID) error {
	return w.applyOps([]batchOp{{kind: deactivateOp, rid: rid}})
}

// setActiveLocked sets a runnable's Activation Status, resets its
// counters and restarts its monitored windows at the current cycle;
// every other counter freezes at zero. Activation changes, fault
// treatment and the ECU reset all go through it. Requires w.mu.
func (w *Watchdog) setActiveLocked(rid runnable.ID, on bool) {
	hs := &w.hot[rid]
	if on {
		hs.active.Store(1)
	} else {
		hs.active.Store(0)
	}
	hs.resetCounters(&w.cold[rid], w.cfg.EagerArrivalCheck)
	hyp := hs.hyp.Load()
	w.reschedLocked(rid, kindAlive, hyp.AlivenessCycles, on, 0)
	w.reschedLocked(rid, kindArr, hyp.ArrivalCycles, on, 0)
}

// MonitorFlow enrols a runnable in program-flow checking. Only enrolled
// (typically safety-critical, §3.4) runnables update and are checked
// against the flow look-up table.
func (w *Watchdog) MonitorFlow(rid runnable.ID) error {
	if err := w.checkRunnable(rid); err != nil {
		return err
	}
	w.lock()
	defer w.mu.Unlock()
	e := w.flow.Load().edit()
	e.setMonitored(rid)
	w.flow.Store(e.t)
	return nil
}

// AddFlowPair allows succ to execute immediately after pred within their
// common task. Both runnables are implicitly enrolled in flow monitoring.
func (w *Watchdog) AddFlowPair(pred, succ runnable.ID) error {
	return w.addFlowPairs([][2]runnable.ID{{pred, succ}})
}

// AddFlowSequence allows the straight-line order r0→r1→…→rn and the
// wrap-around rn→r0 (the task re-executes its sequence every activation).
// It is all-or-nothing: when any pair is invalid, none is installed.
func (w *Watchdog) AddFlowSequence(rids ...runnable.ID) error {
	if len(rids) < 2 {
		return errors.New("core: AddFlowSequence needs at least two runnables")
	}
	pairs := make([][2]runnable.ID, len(rids))
	for i, rid := range rids {
		pairs[i] = [2]runnable.ID{rid, rids[(i+1)%len(rids)]}
	}
	return w.addFlowPairs(pairs)
}

// addFlowPairs validates every pair, then installs them all with one
// copy-on-write edit of the flow table.
func (w *Watchdog) addFlowPairs(pairs [][2]runnable.ID) error {
	for _, p := range pairs {
		if err := w.checkRunnable(p[0]); err != nil {
			return err
		}
		if err := w.checkRunnable(p[1]); err != nil {
			return err
		}
		if w.taskOf[p[0]] != w.taskOf[p[1]] {
			return fmt.Errorf("core: AddFlowPair(%d,%d): runnables belong to different tasks", p[0], p[1])
		}
	}
	w.lock()
	defer w.mu.Unlock()
	e := w.flow.Load().edit()
	for _, p := range pairs {
		e.addPair(p[0], p[1])
	}
	w.flow.Store(e.t)
	return nil
}

// Heartbeat is the aliveness indication routine runnables call (directly,
// or via the OSEK observer glue). It records the heartbeat in AC and ARC
// and runs the event-triggered program-flow check. Unknown identifiers
// are ignored, matching the tolerance required of glue code.
//
// Heartbeat is lock-free in the healthy case; prefer Register and
// Monitor.Beat on hot call sites to also skip the bounds check and the
// task lookup.
func (w *Watchdog) Heartbeat(rid runnable.ID) {
	if uint(rid) >= uint(len(w.hot)) {
		return
	}
	w.beat(rid, &w.hot[rid])
}

// beat is the shared hot path of Heartbeat and Monitor.Beat. rid has been
// validated; hs is the runnable's hot state (which carries the hosting
// task). The telemetry layer adds NOTHING here: the beat counter AC and
// ARC are read off is never reset, so it is the lifetime beat count
// too, and a healthy beat costs one atomic add and one load.
func (w *Watchdog) beat(rid runnable.ID, hs *hotState) {
	if hs.active.Load() != 0 {
		if v := hs.beats.Add(1); v > hs.eagerAt.Load() {
			w.eagerArrival(rid, hs, v)
		}
	}
	ft := w.flow.Load()
	if ft.isMonitored(rid) {
		w.checkFlow(ft, rid, runnable.TaskID(hs.tid))
	}
}

// MaxBatchBeats bounds one BeatN call, so a single call can add only so
// much to a window's counters. The wire protocol's per-record cap is
// the same value.
const MaxBatchBeats = 1 << 24

// beatN is the batched-aliveness hot path behind Monitor.BeatN: n
// heartbeats recorded with one atomic add. Like beat it is lock-free in
// the healthy case; unlike beat it skips the program-flow check (order
// information does not survive coalescing — see FlowEvent).
func (w *Watchdog) beatN(rid runnable.ID, hs *hotState, n int) {
	if n <= 0 {
		return
	}
	if n > MaxBatchBeats {
		n = MaxBatchBeats
	}
	if hs.active.Load() == 0 {
		return
	}
	if v := hs.beats.Add(uint64(n)); v > hs.eagerAt.Load() {
		w.eagerArrival(rid, hs, v)
	}
}

// FlowEvent replays one ordered execution of a PFC-enrolled runnable
// without recording a heartbeat: the program-flow half of Heartbeat. The
// batched wire protocol splits the two concerns — beat *counts* travel
// compactly and land via Monitor.BeatN, while the ordered successor list
// of flow-monitored runnables replays here (or, a frame at a time,
// through FlowEventN) so the look-up-table check sees the same
// predecessor/successor pairs it would have seen locally. Unknown
// identifiers and unenrolled runnables are ignored, matching Heartbeat's
// tolerance.
func (w *Watchdog) FlowEvent(rid runnable.ID) {
	if uint(rid) >= uint(len(w.hot)) {
		return
	}
	ft := w.flow.Load()
	if ft.isMonitored(rid) {
		w.checkFlow(ft, rid, runnable.TaskID(w.hot[rid].tid))
	}
}

// FlowEventN replays an ordered list of flow records, record i naming
// the runnable table[idx[i]]: one frame's flow records resolved through
// the node's runnable table. It loads the flow table once and, for each
// run of consecutive records of one task, exchanges the task's
// predecessor register once and checks the run's inner pairs locally.
// The outcome — reports, their order and the final predecessor
// registers — equals calling FlowEvent for each record in order, as if
// each run executed atomically at the moment of its exchange. Records
// whose index or runnable is out of range, or whose runnable is not
// enrolled, are skipped as FlowEvent skips them.
func (w *Watchdog) FlowEventN(table []runnable.ID, idx []uint32) {
	ft := w.flow.Load()
	memo := newPairMemo()
	for i := 0; i < len(idx); i++ {
		first, ok := w.flowRecord(ft, table, idx[i])
		if !ok {
			continue
		}
		tid := w.taskOf[first]
		// Scan the task's run, checking its inner pairs as it goes.
		last, end, clean := first, i+1, true
		for ; end < len(idx); end++ {
			rid, ok := w.flowRecord(ft, table, idx[end])
			if !ok {
				continue
			}
			if w.taskOf[rid] != tid {
				break
			}
			clean = clean && memo.allowed(ft, last, rid)
			last = rid
		}
		if pred := runnable.ID(w.preds[tid].last.Swap(int64(last))); pred != runnable.NoID && !memo.allowed(ft, pred, first) {
			w.reportFlow(pred, first, tid)
		}
		if !clean {
			// Report the run's illegal inner pairs, in order, after the
			// pair that joins the run to its predecessor.
			prev := first
			for k := i + 1; k < end; k++ {
				if rid, ok := w.flowRecord(ft, table, idx[k]); ok {
					if !memo.allowed(ft, prev, rid) {
						w.reportFlow(prev, rid, tid)
					}
					prev = rid
				}
			}
		}
		i = end - 1
	}
}

// pairMemo remembers, for one FlowEventN call, pairs its flow table
// snapshot allows: a frame replaying a repeated sequence then looks up
// each distinct pair once instead of once per record. Slot pred&7 holds
// the last allowed pair with that predecessor. The memo is exact because
// it only caches positive answers of one immutable snapshot and lives no
// longer than the call that loaded it.
type pairMemo [8]struct{ pred, succ runnable.ID }

// newPairMemo returns an empty memo: no slot matches a real predecessor.
func newPairMemo() pairMemo {
	var m pairMemo
	for i := range m {
		m[i].pred = runnable.NoID
	}
	return m
}

// allowed reports ft.allowed(pred, succ), answering a remembered pair
// without the look-up. pred must not be NoID.
func (m *pairMemo) allowed(ft *flowTable, pred, succ runnable.ID) bool {
	e := &m[uint(pred)&7]
	if e.pred == pred && e.succ == succ {
		return true
	}
	if !ft.allowed(pred, succ) {
		return false
	}
	e.pred, e.succ = pred, succ
	return true
}

// flowRecord resolves one FlowEventN record to a PFC-enrolled runnable.
func (w *Watchdog) flowRecord(ft *flowTable, table []runnable.ID, i uint32) (runnable.ID, bool) {
	if uint(i) >= uint(len(table)) {
		return runnable.NoID, false
	}
	rid := table[i]
	if uint(rid) >= uint(len(w.hot)) || !ft.isMonitored(rid) {
		return runnable.NoID, false
	}
	return rid, true
}

// eagerArrival is the cold path of the EagerArrivalCheck ablation: the
// heartbeat whose beat count v pushed ARC beyond MaxArrivals reports
// the arrival-rate error immediately and resets the window. The
// election happens under w.mu: the first such heartbeat to take the
// lock finds v past the current window's limit, reports, and restarts
// the window at the current beat count, so every heartbeat that raced
// past the same limit then finds its v inside the new window, as does
// one whose window a Cycle sweep closed meanwhile.
func (w *Watchdog) eagerArrival(rid runnable.ID, hs *hotState, v uint64) {
	w.lock()
	defer w.mu.Unlock()
	hyp, cs := hs.hyp.Load(), &w.cold[rid]
	lim := eagerLimit(w.cfg.EagerArrivalCheck, hyp)
	if lim == 0 || v <= cs.arrBase+lim {
		return // disarmed, or another heartbeat or a sweep closed the window
	}
	arc := v - cs.arrBase
	hs.openArrival(cs, hs.beats.Load(), lim)
	// The mid-period ARC reset restarts the arrival window: CCAR
	// restarts at zero.
	w.reschedLocked(rid, kindArr, hyp.ArrivalCycles, true, 0)
	w.detectLocked(ArrivalRateError, rid, int(arc), hyp.MaxArrivals, runnable.NoID)
}

// checkFlow implements the PFC unit: compare the actually executed
// successor with the predefined successors of the predecessor. Flow is
// tracked per task, so legal preemption interleavings between tasks are
// not flagged. The read-predecessor/set-current step is one atomic
// exchange on the task's padded register; the look-up itself reads the
// immutable table snapshot.
func (w *Watchdog) checkFlow(ft *flowTable, rid runnable.ID, tid runnable.TaskID) {
	// NoID: the task's first monitored execution has no predecessor yet.
	if pred := runnable.ID(w.preds[tid].last.Swap(int64(rid))); pred != runnable.NoID && !ft.allowed(pred, rid) {
		w.reportFlow(pred, rid, tid)
	}
}

// reportFlow reports that rid followed pred in task tid although the
// look-up table does not allow it.
func (w *Watchdog) reportFlow(pred, rid runnable.ID, tid runnable.TaskID) {
	w.lock()
	defer w.mu.Unlock()
	ts := &w.ts[tid]
	c := w.cycle.Load()
	if !ts.flowSeen || c-ts.lastFlowCycle > uint64(w.cfg.CorrelationWindowCycles) {
		// A flow error past the previous one's correlation window starts
		// a new burst, which may accumulate its own aliveness error.
		ts.flowSeen = true
		ts.correlatedAlivenessReported = false
	}
	ts.lastFlowCycle = c
	w.detectLocked(ProgramFlowError, rid, 0, 0, pred)
}

// Cycle is implemented in sweep.go: the wheel-based due-cycle sweep.

// detectLocked routes one detected error through the collaboration logic
// and the TSI unit, and reports it to the sink. Callers hold w.mu.
func (w *Watchdog) detectLocked(kind ErrorKind, rid runnable.ID, observed, expected int, pred runnable.ID) {
	tid := w.taskOf[rid]
	app := w.model.AppOfRunnable(rid)
	ts := &w.ts[tid]

	cycle := w.cycle.Load()
	correlated := false
	if kind == AlivenessError && !w.cfg.DisableCorrelation && ts.flowSeen &&
		cycle-ts.lastFlowCycle <= uint64(w.cfg.CorrelationWindowCycles) {
		// Collaboration of the units (Fig. 6): this aliveness error is a
		// symptom of the program-flow fault. Accumulate it at most once.
		correlated = true
		if ts.correlatedAlivenessReported {
			return
		}
		ts.correlatedAlivenessReported = true
	}

	switch kind {
	case AlivenessError:
		w.results.Aliveness++
	case ArrivalRateError:
		w.results.ArrivalRate++
	case ProgramFlowError:
		w.results.ProgramFlow++
	}
	w.errv[rid][kind-1]++
	w.journalLocked(kind, rid, tid, app, cycle, observed, expected, pred, correlated)

	w.sink.Fault(Report{
		Time:        w.clock.Now(),
		Cycle:       cycle,
		Kind:        kind,
		Runnable:    rid,
		Task:        tid,
		App:         app,
		Observed:    observed,
		Expected:    expected,
		Predecessor: pred,
		Correlated:  correlated,
	})

	// TSI: element of the error indication vector reached its threshold →
	// the whole task is considered faulty (§3.5).
	if ts.state == StateOK && w.errv[rid][kind-1] >= uint64(w.cfg.Thresholds.of(kind)) {
		w.setTaskStateLocked(tid, StateFaulty, kind)
	}
}

// setTaskStateLocked performs the TSI derivation chain: task → application
// → global ECU state.
func (w *Watchdog) setTaskStateLocked(tid runnable.TaskID, state HealthState, cause ErrorKind) {
	ts := &w.ts[tid]
	if ts.state == state {
		return
	}
	ts.state = state
	cycle := w.cycle.Load()
	w.sink.StateChanged(StateEvent{
		Time: w.clock.Now(), Cycle: cycle,
		Scope: TaskScope, Task: tid, App: w.model.AppOf(tid),
		State: state, Cause: cause,
	})

	// A shared task hosts runnables of several applications; its state
	// feeds into every one of them (§1: runnables from different software
	// components can be mapped to the same task).
	for _, app := range w.model.AppsOfTask(tid) {
		appState := StateOK
		appModel, err := w.model.App(app)
		if err == nil {
			for _, t := range appModel.Tasks {
				if w.ts[t].state == StateFaulty {
					appState = StateFaulty
					break
				}
			}
		}
		if w.as[app].state != appState {
			w.as[app].state = appState
			w.sink.StateChanged(StateEvent{
				Time: w.clock.Now(), Cycle: cycle,
				Scope: AppScope, Task: runnable.NoID, App: app,
				State: appState, Cause: cause,
			})
		}
	}

	faultyApps := 0
	for i := range w.as {
		if w.as[i].state == StateFaulty {
			faultyApps++
		}
	}
	ecu := StateOK
	if faultyApps >= w.cfg.ECUFaultyAppCount {
		ecu = StateFaulty
	}
	if w.ecuState != ecu {
		w.ecuState = ecu
		w.sink.StateChanged(StateEvent{
			Time: w.clock.Now(), Cycle: cycle,
			Scope: ECUScope, Task: runnable.NoID, App: runnable.NoID,
			State: ecu, Cause: cause,
		})
	}
}

// ClearTask resets the TSI state and heartbeat counters of one task after
// fault treatment (task or application restart), returning it to OK.
func (w *Watchdog) ClearTask(tid runnable.TaskID) error {
	t, err := w.model.Task(tid)
	if err != nil {
		return err
	}
	w.lock()
	defer w.mu.Unlock()
	w.clearTaskLocked(tid, t.Runnables)
	return nil
}

// clearTaskLocked is ClearTask on a validated task hosting rids.
func (w *Watchdog) clearTaskLocked(tid runnable.TaskID, rids []runnable.ID) {
	// Reset the PFC predecessor register; a racing beat lands before or
	// after the reset, exactly as with a lock.
	w.preds[tid].last.Store(int64(runnable.NoID))
	ts := &w.ts[tid]
	ts.flowSeen = false
	ts.correlatedAlivenessReported = false
	for _, rid := range rids {
		w.setActiveLocked(rid, w.hot[rid].active.Load() != 0)
		w.errv[rid] = [3]uint64{}
	}
	if ts.state != StateOK {
		w.setTaskStateLocked(tid, StateOK, 0)
	}
}

// SuspendTaskMonitoring clears the Activation Status of every runnable of
// a task and remembers the previous set, used when the task's application
// is terminated: a deliberately stopped application must not accumulate
// aliveness errors (§3.3 AS semantics).
func (w *Watchdog) SuspendTaskMonitoring(tid runnable.TaskID) error {
	t, err := w.model.Task(tid)
	if err != nil {
		return err
	}
	w.lock()
	defer w.mu.Unlock()
	ts := &w.ts[tid]
	ts.suspendedAS = ts.suspendedAS[:0]
	for _, rid := range t.Runnables {
		if w.hot[rid].active.Load() != 0 {
			ts.suspendedAS = append(ts.suspendedAS, rid)
			w.setActiveLocked(rid, false)
		}
	}
	return nil
}

// ResumeTaskMonitoring restores the Activation Statuses recorded by
// SuspendTaskMonitoring.
func (w *Watchdog) ResumeTaskMonitoring(tid runnable.TaskID) error {
	if _, err := w.model.Task(tid); err != nil {
		return err
	}
	w.lock()
	defer w.mu.Unlock()
	w.resumeTaskLocked(tid)
	return nil
}

// resumeTaskLocked is ResumeTaskMonitoring on a validated task.
func (w *Watchdog) resumeTaskLocked(tid runnable.TaskID) {
	ts := &w.ts[tid]
	for _, rid := range ts.suspendedAS {
		w.setActiveLocked(rid, true)
	}
	ts.suspendedAS = ts.suspendedAS[:0]
}

// ClearAll resets every task and resumes suspended monitoring, e.g. after
// an ECU software reset (the boot configuration is re-applied). The reset
// is one critical section: a concurrent Cycle sees all of it or none.
// It waits for a running sweep to return, since it rewinds the cycle
// and releases every wheel slot, the one being swept included.
func (w *Watchdog) ClearAll() {
	w.cycleMu.Lock()
	defer w.cycleMu.Unlock()
	w.lock()
	defer w.mu.Unlock()
	for tid := range w.ts {
		t, _ := w.model.Task(runnable.TaskID(tid)) // tid is always valid here
		w.resumeTaskLocked(runnable.TaskID(tid))
		w.clearTaskLocked(runnable.TaskID(tid), t.Runnables)
	}
	s := w.sched
	w.cycle.Store(0)
	// Bucket slots are keyed by absolute cycle numbers: rewinding the
	// counter invalidates every indexed deadline, so rebuild the wheel
	// from the (freshly reset) per-runnable state.
	s.resetAll()
	for i := range w.hot {
		w.setActiveLocked(runnable.ID(i), w.hot[i].active.Load() != 0)
	}
	// Shadow candidates survive the reset: reopen their windows at cycle
	// zero from the (monotonic) lifetime beat counts.
	for rid, st := range w.shadows {
		st.startBeats = w.hot[rid].beats.Load()
		s.schedule(int(rid), kindShadow, st.window(), 0)
	}
}

// CycleCount reports how many monitoring cycles have elapsed.
func (w *Watchdog) CycleCount() uint64 { return w.cycle.Load() }

// CounterSnapshot reports the live heartbeat-monitoring counters of a
// runnable — the series plotted in Fig. 5. It takes the watchdog's lock
// (so it must not be called from a Sink or journal sink callback); CCA
// and CCAR are then consistent with the sweep, while AC and ARC can
// still move under concurrent heartbeats.
func (w *Watchdog) CounterSnapshot(rid runnable.ID) (Counters, error) {
	if err := w.checkRunnable(rid); err != nil {
		return Counters{}, err
	}
	w.lock()
	defer w.mu.Unlock()
	c, _ := w.countersLocked(rid)
	return c, nil
}

// countersLocked is the read behind CounterSnapshot, shared with the
// telemetry Snapshot and the journal's freeze-frames. It also returns
// the lifetime beat count AC and ARC were read off. rid must be valid;
// callers hold w.mu.
func (w *Watchdog) countersLocked(rid runnable.ID) (Counters, uint64) {
	hs, cs := &w.hot[rid], &w.cold[rid]
	b := hs.beats.Load()
	// The sweep does not increment CCA/CCAR every cycle; they are
	// derived from the window anchors.
	now := w.cycle.Load()
	return Counters{
		Active: hs.active.Load() != 0,
		AC:     int(b - hs.aliveBase),
		ARC:    int(b - cs.arrBase),
		CCA:    int(uint32(anchorElapsed(hs.aliveAnchor, now))),
		CCAR:   int(uint32(anchorElapsed(cs.arrAnchor, now))),
	}, b
}

// Results reports the cumulative detection counts (the AM/AR/PFC Result
// series).
func (w *Watchdog) Results() Results {
	w.lock()
	defer w.mu.Unlock()
	return w.results
}

// RunnableErrors reports the error-indication-vector element of one
// runnable: accumulated error counts by kind.
func (w *Watchdog) RunnableErrors(rid runnable.ID) (aliveness, arrival, flow uint64, err error) {
	if err := w.checkRunnable(rid); err != nil {
		return 0, 0, 0, err
	}
	w.lock()
	defer w.mu.Unlock()
	e := w.errv[rid]
	return e[0], e[1], e[2], nil
}

// TaskState reports the TSI-derived state of a task.
func (w *Watchdog) TaskState(tid runnable.TaskID) (HealthState, error) {
	if _, err := w.model.Task(tid); err != nil {
		return 0, err
	}
	w.lock()
	defer w.mu.Unlock()
	return w.ts[tid].state, nil
}

// AppState reports the TSI-derived state of an application.
func (w *Watchdog) AppState(app runnable.AppID) (HealthState, error) {
	if _, err := w.model.App(app); err != nil {
		return 0, err
	}
	w.lock()
	defer w.mu.Unlock()
	return w.as[app].state, nil
}

// ECUState reports the derived global ECU state.
func (w *Watchdog) ECUState() HealthState {
	w.lock()
	defer w.mu.Unlock()
	return w.ecuState
}
