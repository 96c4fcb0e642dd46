package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// TestQuickHeartbeatSemantics drives random heartbeat/cycle interleavings
// for random hypotheses through the watchdog and the specification
// (spec_test.go) and requires identical counters after every step and
// identical detections.
func TestQuickHeartbeatSemantics(t *testing.T) {
	m := runnable.NewModel()
	app, _ := m.AddApp("A", runnable.QM)
	task, _ := m.AddTask(app, "T", 1)
	rid, err := m.AddRunnable(task, "R", time.Millisecond, runnable.QM)
	if err != nil {
		t.Fatalf("AddRunnable: %v", err)
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	f := func(seed int64, aCycles, minBeats, rCycles, maxArr uint8) bool {
		hyp := Hypothesis{
			AlivenessCycles: int(aCycles%8) + 1,
			MinHeartbeats:   int(minBeats%4) + 1,
			ArrivalCycles:   int(rCycles%8) + 1,
			MaxArrivals:     int(maxArr%6) + 1,
		}
		r := newSpecRun(t, m, defaultSpecConfig(false), 0)
		r.apply(specOp{kind: opSetHyp, rid: rid, hyp: hyp})
		r.apply(specOp{kind: opActivate, rid: rid})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			op := specOp{kind: opBeat, rid: rid}
			if rng.Intn(3) == 0 {
				op.kind = opCycle
			}
			r.apply(op)
			r.compareState(t, fmt.Sprintf("seed %d hyp %+v op %d", seed, hyp, i))
		}
		r.compareOutputs(t)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFlowTableSoundness: for any declared flow table, heartbeats
// that follow declared pairs are never flagged, and every undeclared
// transition between monitored runnables of the same task is flagged.
func TestQuickFlowTableSoundness(t *testing.T) {
	f := func(seed int64, nRunnables uint8, density uint8) bool {
		n := int(nRunnables%6) + 2
		rng := rand.New(rand.NewSource(seed))
		m := runnable.NewModel()
		app, _ := m.AddApp("A", runnable.QM)
		task, _ := m.AddTask(app, "T", 1)
		rids := make([]runnable.ID, n)
		for i := range rids {
			var err error
			rids[i], err = m.AddRunnable(task, "r"+string(rune('A'+i)), time.Millisecond, runnable.QM)
			if err != nil {
				return false
			}
		}
		if err := m.Freeze(); err != nil {
			return false
		}
		w, err := New(Config{Model: m, Clock: sim.NewManualClock(),
			Thresholds: Thresholds{Aliveness: 1 << 30, ArrivalRate: 1 << 30, ProgramFlow: 1 << 30}})
		if err != nil {
			return false
		}
		allowed := make(map[[2]runnable.ID]bool)
		// Random table; ensure every runnable has at least one successor.
		for i := 0; i < n; i++ {
			k := int(density%3) + 1
			for j := 0; j < k; j++ {
				succ := rids[rng.Intn(n)]
				if err := w.AddFlowPair(rids[i], succ); err != nil {
					return false
				}
				allowed[[2]runnable.ID{rids[i], succ}] = true
			}
		}
		// Also enrol all runnables even if they got no pair (AddFlowPair
		// enrolled both ends already).
		expected := uint64(0)
		var prev runnable.ID = runnable.NoID
		for i := 0; i < 300; i++ {
			next := rids[rng.Intn(n)]
			if prev != runnable.NoID && !allowed[[2]runnable.ID{prev, next}] {
				expected++
			}
			w.Heartbeat(next)
			prev = next
		}
		return w.Results().ProgramFlow == expected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTSIThresholdExactness: the task becomes faulty exactly when an
// error-indication-vector element reaches its threshold, never before.
func TestQuickTSIThresholdExactness(t *testing.T) {
	f := func(th uint8) bool {
		threshold := int(th%10) + 1
		m := runnable.NewModel()
		app, _ := m.AddApp("A", runnable.QM)
		task, _ := m.AddTask(app, "T", 1)
		a, _ := m.AddRunnable(task, "a", time.Millisecond, runnable.QM)
		b, err := m.AddRunnable(task, "b", time.Millisecond, runnable.QM)
		if err != nil {
			return false
		}
		if err := m.Freeze(); err != nil {
			return false
		}
		w, err := New(Config{Model: m, Clock: sim.NewManualClock(),
			Thresholds: Thresholds{Aliveness: threshold, ArrivalRate: threshold, ProgramFlow: threshold}})
		if err != nil {
			return false
		}
		if err := w.AddFlowPair(a, b); err != nil {
			return false
		}
		// Each a→a transition is one flow error on runnable a.
		w.Heartbeat(a)
		for i := 1; i < threshold; i++ {
			w.Heartbeat(a)
			if st, _ := w.TaskState(task); st != StateOK {
				return false // faulty too early
			}
		}
		w.Heartbeat(a) // threshold-th error
		st, _ := w.TaskState(task)
		return st == StateFaulty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
