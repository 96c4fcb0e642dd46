package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// traceOp is one step of a deterministic replay trace.
type traceOp struct {
	kind int // 0 = heartbeat, 1 = cycle, 2 = deactivate, 3 = activate
	rid  int // runnable index for kind 0/2/3
}

// makeTrace generates a deterministic pseudo-random simulation trace over
// n runnables: mostly heartbeats, regular cycles, occasional activation
// toggles — the op mix of the HIL scenarios, compressed.
func makeTrace(seed int64, n, length int) []traceOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]traceOp, length)
	for i := range ops {
		switch r := rng.Intn(20); {
		case r < 13:
			ops[i] = traceOp{kind: 0, rid: rng.Intn(n)}
		case r < 18:
			ops[i] = traceOp{kind: 1}
		case r < 19:
			ops[i] = traceOp{kind: 2, rid: rng.Intn(n)}
		default:
			ops[i] = traceOp{kind: 3, rid: rng.Intn(n)}
		}
	}
	return ops
}

// equivFixture builds one watchdog over the shared model wiring used by
// the equivalence replay.
func equivFixture(t *testing.T, eager bool) (*Watchdog, *sim.ManualClock, *collector, []runnable.ID) {
	t.Helper()
	m := runnable.NewModel()
	app, _ := m.AddApp("equiv", runnable.SafetyCritical)
	t1, _ := m.AddTask(app, "T1", 1)
	t2, _ := m.AddTask(app, "T2", 2)
	var rids []runnable.ID
	for i, task := range []runnable.TaskID{t1, t1, t1, t2, t2} {
		rid, err := m.AddRunnable(task, "r"+string(rune('0'+i)), time.Millisecond, runnable.SafetyCritical)
		if err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
		rids = append(rids, rid)
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	clock := sim.NewManualClock()
	sink := &collector{}
	w, err := New(Config{Model: m, Clock: clock, Sink: sink, EagerArrivalCheck: eager})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, rid := range rids {
		if err := w.SetHypothesis(rid, Hypothesis{
			AlivenessCycles: 5, MinHeartbeats: 1,
			ArrivalCycles: 5, MaxArrivals: 7,
		}); err != nil {
			t.Fatalf("SetHypothesis: %v", err)
		}
		if err := w.Activate(rid); err != nil {
			t.Fatalf("Activate: %v", err)
		}
	}
	if err := w.AddFlowSequence(rids[0], rids[1], rids[2]); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	if err := w.AddFlowSequence(rids[3], rids[4]); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	return w, clock, sink, rids
}

// TestMonitorBeatEquivalence replays the same deterministic sim trace
// through the seed-style Heartbeat entry point and through Monitor.Beat
// handles on two identically configured watchdogs, and requires the
// detection Results, the full fault Report stream and the state-event
// stream to be identical — the tentpole's "bit-identical semantics"
// acceptance gate.
func TestMonitorBeatEquivalence(t *testing.T) {
	for _, eager := range []bool{false, true} {
		name := "period-end"
		if eager {
			name = "eager"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				wa, clockA, sinkA, ridsA := equivFixture(t, eager)
				wb, clockB, sinkB, ridsB := equivFixture(t, eager)
				monitors := make([]*Monitor, len(ridsB))
				for i, rid := range ridsB {
					var err error
					if monitors[i], err = wb.Register(rid); err != nil {
						t.Fatalf("Register: %v", err)
					}
				}
				trace := makeTrace(seed, len(ridsA), 3000)
				for _, op := range trace {
					switch op.kind {
					case 0:
						wa.Heartbeat(ridsA[op.rid])
						monitors[op.rid].Beat()
					case 1:
						clockA.Advance(10 * time.Millisecond)
						clockB.Advance(10 * time.Millisecond)
						wa.Cycle()
						wb.Cycle()
					case 2:
						_ = wa.Deactivate(ridsA[op.rid])
						_ = wb.Deactivate(ridsB[op.rid])
					case 3:
						_ = wa.Activate(ridsA[op.rid])
						_ = wb.Activate(ridsB[op.rid])
					}
				}
				if ra, rb := wa.Results(), wb.Results(); ra != rb {
					t.Fatalf("seed %d: Results diverge: Heartbeat=%+v Monitor.Beat=%+v", seed, ra, rb)
				}
				if !reflect.DeepEqual(sinkA.faults, sinkB.faults) {
					t.Fatalf("seed %d: fault report streams diverge:\n  Heartbeat:    %v\n  Monitor.Beat: %v",
						seed, sinkA.faults, sinkB.faults)
				}
				if !reflect.DeepEqual(sinkA.states, sinkB.states) {
					t.Fatalf("seed %d: state event streams diverge:\n  Heartbeat:    %v\n  Monitor.Beat: %v",
						seed, sinkA.states, sinkB.states)
				}
				// Counter snapshots agree runnable by runnable.
				for i := range ridsA {
					ca, _ := wa.CounterSnapshot(ridsA[i])
					cb, _ := wb.CounterSnapshot(ridsB[i])
					if ca != cb {
						t.Fatalf("seed %d: counters diverge for runnable %d: %+v vs %+v", seed, i, ca, cb)
					}
				}
			}
		})
	}
}

// --- Sweep equivalence: timer wheel vs the legacy full-table walk ----

// Extended op kinds for the sweep replay (the tentpole's acceptance
// gate): mid-window hypothesis swaps, activation churn and fault
// treatment interleaved with heartbeats and cycles.
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
)

// sweepHypTable is the hypothesis mix of the sweep replay: disabled
// units, periods shorter than / equal to / far beyond the 8-slot test
// wheel (exercising bucket reinsertion on the same slot and the overflow
// list across several wheel revolutions), and limits tight enough to
// produce real detections.
var sweepHypTable = []Hypothesis{
	{}, // both units disabled: counters freeze mid-window
	{AlivenessCycles: 3, MinHeartbeats: 1},
	{AlivenessCycles: 5, MinHeartbeats: 2, ArrivalCycles: 4, MaxArrivals: 3},
	{ArrivalCycles: 2, MaxArrivals: 1},
	{AlivenessCycles: 1, MinHeartbeats: 1},                                   // due every cycle
	{AlivenessCycles: 8, MinHeartbeats: 1, ArrivalCycles: 9, MaxArrivals: 2}, // == and > wheel size
	{AlivenessCycles: 40, MinHeartbeats: 1},                                  // deep overflow, several revolutions
}

// sweepOp is one step of the sweep replay trace.
type sweepOp struct {
	kind int
	rid  int // runnable index for beat/act/deact/setHyp
	hyp  int // index into sweepHypTable for opSetHyp
	tid  int // task index for clearTask/suspend/resume
}

// makeSweepTrace generates the deterministic mixed-op trace.
func makeSweepTrace(seed int64, nR, nT, length int) []sweepOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]sweepOp, length)
	for i := range ops {
		switch r := rng.Intn(100); {
		case r < 38:
			ops[i] = sweepOp{kind: opBeat, rid: rng.Intn(nR)}
		case r < 70:
			ops[i] = sweepOp{kind: opCycle}
		case r < 80:
			ops[i] = sweepOp{kind: opSetHyp, rid: rng.Intn(nR), hyp: rng.Intn(len(sweepHypTable))}
		case r < 85:
			ops[i] = sweepOp{kind: opDeactivate, rid: rng.Intn(nR)}
		case r < 90:
			ops[i] = sweepOp{kind: opActivate, rid: rng.Intn(nR)}
		case r < 94:
			ops[i] = sweepOp{kind: opClearTask, tid: rng.Intn(nT)}
		case r < 97:
			ops[i] = sweepOp{kind: opSuspend, tid: rng.Intn(nT)}
		case r < 99:
			ops[i] = sweepOp{kind: opResume, tid: rng.Intn(nT)}
		default:
			ops[i] = sweepOp{kind: opClearAll}
		}
	}
	return ops
}

// sweepFixture builds one watchdog over the shared 2-task model with an
// arbitrary Config modifier (sweep selection, wheel size, shards).
func sweepFixture(t *testing.T, eager bool, mod func(*Config)) (*Watchdog, *sim.ManualClock, *collector, []runnable.ID, []runnable.TaskID) {
	t.Helper()
	m := runnable.NewModel()
	app, _ := m.AddApp("equiv", runnable.SafetyCritical)
	t1, _ := m.AddTask(app, "T1", 1)
	t2, _ := m.AddTask(app, "T2", 2)
	tids := []runnable.TaskID{t1, t2}
	var rids []runnable.ID
	for i, task := range []runnable.TaskID{t1, t1, t1, t2, t2} {
		rid, err := m.AddRunnable(task, "r"+string(rune('0'+i)), time.Millisecond, runnable.SafetyCritical)
		if err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
		rids = append(rids, rid)
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	clock := sim.NewManualClock()
	sink := &collector{}
	cfg := Config{Model: m, Clock: clock, Sink: sink, EagerArrivalCheck: eager}
	if mod != nil {
		mod(&cfg)
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, rid := range rids {
		if err := w.SetHypothesis(rid, sweepHypTable[1+i%(len(sweepHypTable)-1)]); err != nil {
			t.Fatalf("SetHypothesis: %v", err)
		}
		if err := w.Activate(rid); err != nil {
			t.Fatalf("Activate: %v", err)
		}
	}
	if err := w.AddFlowSequence(rids[0], rids[1], rids[2]); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	if err := w.AddFlowSequence(rids[3], rids[4]); err != nil {
		t.Fatalf("AddFlowSequence: %v", err)
	}
	return w, clock, sink, rids, tids
}

// applySweepOp replays one trace op onto a watchdog.
func applySweepOp(w *Watchdog, clock *sim.ManualClock, rids []runnable.ID, tids []runnable.TaskID, op sweepOp) {
	switch op.kind {
	case opBeat:
		w.Heartbeat(rids[op.rid])
	case opCycle:
		clock.Advance(10 * time.Millisecond)
		w.Cycle()
	case opDeactivate:
		_ = w.Deactivate(rids[op.rid])
	case opActivate:
		_ = w.Activate(rids[op.rid])
	case opSetHyp:
		_ = w.SetHypothesis(rids[op.rid], sweepHypTable[op.hyp])
	case opClearTask:
		_ = w.ClearTask(tids[op.tid])
	case opSuspend:
		_ = w.SuspendTaskMonitoring(tids[op.tid])
	case opResume:
		_ = w.ResumeTaskMonitoring(tids[op.tid])
	case opClearAll:
		w.ClearAll()
	}
}

// TestSweepEquivalence replays deterministic mixed-op traces through the
// legacy O(N) full-table sweep (kept in-tree as Config.legacySweep) and
// through the timer-wheel sweep — on a deliberately tiny 8-slot wheel to
// force overflow migration and same-slot reinsertion, and on the default
// wheel — and requires the detection
// Results, the full fault Report stream (kind, runnable, observed,
// expected, cycle, correlation), the state-event stream and every
// per-runnable counter snapshot to be bit-identical.
func TestSweepEquivalence(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"wheel-8slot", func(c *Config) { c.wheelSize = 8 }},
		{"wheel-default", nil},
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
						ref, clockA, sinkA, ridsA, tidsA := sweepFixture(t, eager, func(c *Config) { c.legacySweep = true })
						cand, clockB, sinkB, sinkBRids, tidsB := sweepFixture(t, eager, v.mod)
						trace := makeSweepTrace(seed, len(ridsA), len(tidsA), 5000)
						for oi, op := range trace {
							applySweepOp(ref, clockA, ridsA, tidsA, op)
							applySweepOp(cand, clockB, sinkBRids, tidsB, op)
							if op.kind == opCycle && oi%5 == 0 {
								for i := range ridsA {
									ca, _ := ref.CounterSnapshot(ridsA[i])
									cb, _ := cand.CounterSnapshot(sinkBRids[i])
									if ca != cb {
										t.Fatalf("seed %d op %d: counters diverge for runnable %d: legacy=%+v wheel=%+v",
											seed, oi, i, ca, cb)
									}
								}
							}
						}
						if ra, rb := ref.Results(), cand.Results(); ra != rb {
							t.Fatalf("seed %d: Results diverge: legacy=%+v wheel=%+v", seed, ra, rb)
						}
						if !reflect.DeepEqual(sinkA.faults, sinkB.faults) {
							na, nb := len(sinkA.faults), len(sinkB.faults)
							for i := 0; i < na && i < nb; i++ {
								if !reflect.DeepEqual(sinkA.faults[i], sinkB.faults[i]) {
									t.Fatalf("seed %d: fault streams diverge at %d/%d vs %d:\n  legacy: %+v\n  wheel:  %+v",
										seed, i, na, nb, sinkA.faults[i], sinkB.faults[i])
								}
							}
							t.Fatalf("seed %d: fault stream lengths diverge: legacy=%d wheel=%d", seed, na, nb)
						}
						if !reflect.DeepEqual(sinkA.states, sinkB.states) {
							t.Fatalf("seed %d: state event streams diverge:\n  legacy: %v\n  wheel:  %v",
								seed, sinkA.states, sinkB.states)
						}
						for i := range ridsA {
							ca, _ := ref.CounterSnapshot(ridsA[i])
							cb, _ := cand.CounterSnapshot(sinkBRids[i])
							if ca != cb {
								t.Fatalf("seed %d: final counters diverge for runnable %d: legacy=%+v wheel=%+v", seed, i, ca, cb)
							}
						}
					}
				})
			}
		})
	}
}

// TestRegisterUnknownRunnable pins the sentinel error contract of the
// handle API.
func TestRegisterUnknownRunnable(t *testing.T) {
	w, _, _, rids := equivFixture(t, false)
	if _, err := w.Register(runnable.ID(len(rids) + 7)); err == nil {
		t.Fatal("Register accepted an unknown runnable")
	}
	if _, err := w.Register(runnable.NoID); err == nil {
		t.Fatal("Register accepted NoID")
	}
	m, err := w.Register(rids[0])
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if m.ID() != rids[0] {
		t.Fatalf("ID() = %d, want %d", m.ID(), rids[0])
	}
	if err := m.Deactivate(); err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	if c := m.Counters(); c.Active {
		t.Fatal("Counters().Active after Deactivate")
	}
	if err := m.Activate(); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	m.Beat()
	if c := m.Counters(); c.AC != 1 {
		t.Fatalf("AC = %d after one Beat, want 1", c.AC)
	}
}
