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
