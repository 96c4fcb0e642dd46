package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// The tests in this file pin the yield contract of the due sweep: past
// the hold budget, after a detection, the sweep gives the watchdog's
// lock away between bitset words. A configuration call made in that gap
// applies before the next word, a batch as a whole; a second Cycle and
// a ClearAll wait for the sweep to return.

// yieldFleet is the aligned fleet of the yield tests: five bitset words
// of runnables with one 2-cycle aliveness window each, all activated on
// cycle 0, so every window comes due on the sweep of cycle 2. The
// runnables in yieldSilent never beat.
const yieldFleet = 5 * 64

// yieldSilent are the runnables that miss their beats: the first
// runnable of words 0 and 2, and yieldTarget in the last word. Words 1
// and 3 end a burst of detections, so the sweep gives way after each.
var yieldSilent = []runnable.ID{0, 128, yieldTarget}

// yieldTarget is the silent runnable of the last word, which a
// treatment goroutine deactivates mid-sweep.
const yieldTarget runnable.ID = yieldFleet - 6

// yieldSink records every fault and runs onFault, under the watchdog's
// lock, for each.
type yieldSink struct {
	collector
	onFault func(Report)
}

func (s *yieldSink) Fault(r Report) {
	s.collector.Fault(r)
	if s.onFault != nil {
		s.onFault(r)
	}
}

func newYieldWatchdog(t *testing.T, sink Sink) *Watchdog {
	t.Helper()
	m := runnable.NewModel()
	app, _ := m.AddApp("fleet", runnable.SafetyRelevant)
	task, _ := m.AddTask(app, "T", 1)
	for i := 0; i < yieldFleet; i++ {
		if _, err := m.AddRunnable(task, fmt.Sprintf("r%d", i), time.Millisecond, runnable.SafetyRelevant); err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock(), Sink: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for rid := runnable.ID(0); rid < yieldFleet; rid++ {
		if err := w.SetHypothesis(rid, Hypothesis{AlivenessCycles: 2, MinHeartbeats: 1}); err != nil {
			t.Fatalf("SetHypothesis(%d): %v", rid, err)
		}
		if err := w.Activate(rid); err != nil {
			t.Fatalf("Activate(%d): %v", rid, err)
		}
	}
	return w
}

// beatHealthy beats every runnable but the silent ones.
func beatHealthy(w *Watchdog) {
	for rid := runnable.ID(0); rid < yieldFleet; rid++ {
		if !slices.Contains(yieldSilent, rid) {
			w.Heartbeat(rid)
		}
	}
}

// holdPastBudget keeps the sweep's hold of the lock past the budget
// from inside a Sink callback, so the sweep gives way at the end of the
// next word without a detection.
func holdPastBudget() { time.Sleep(2 * holdBudget) }

// faultsOf returns the runnables and cycles of the recorded faults.
func faultsOf(faults []Report) (rids []runnable.ID, cycles []uint64) {
	for _, f := range faults {
		rids = append(rids, f.Runnable)
		cycles = append(cycles, f.Cycle)
	}
	return rids, cycles
}

// TestSweepYieldsToTreatment is the point of the yield: runnable 0's
// fault starts a treatment goroutine that deactivates yieldTarget, a
// silent runnable in the last word of the same due sweep. The sweep
// gives the lock to it after the word that follows runnable 0's, so
// yieldTarget is deactivated before its word is reached and goes
// unreported. A sweep that held the lock to the end would report it.
func TestSweepYieldsToTreatment(t *testing.T) {
	sink := &yieldSink{}
	w := newYieldWatchdog(t, sink)
	done := make(chan error, 1)
	sink.onFault = func(r Report) {
		if r.Runnable == 0 {
			go func() { done <- w.Deactivate(yieldTarget) }()
			// Wait until the goroutine is counted as waiting for the
			// lock, so the sweep knows someone waits.
			for deadline := time.Now().Add(time.Second); w.waiters.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(10 * time.Microsecond)
			}
		}
		holdPastBudget()
	}
	for c := 0; c < 2; c++ {
		beatHealthy(w)
		w.Cycle()
	}
	if err := <-done; err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	rids, cycles := faultsOf(sink.faults)
	if want := []runnable.ID{0, 128}; !slices.Equal(rids, want) {
		t.Fatalf("faulted runnables = %v, want %v: runnable %d was judged although the treatment deactivated it mid-sweep", rids, want, yieldTarget)
	}
	if !slices.Equal(cycles, []uint64{2, 2}) {
		t.Fatalf("fault cycles = %v, want [2 2]", cycles)
	}
}

// TestSweepYieldSerializesCycleAndClearAll issues a second Cycle and a
// ClearAll from a goroutine that runnable 0's fault starts, while the
// sweep gives way after each burst of detections. Both wait for the
// sweep to return: every fault of the sweep carries its cycle, the
// silent runnable of the last word is still judged, and afterwards the
// wheel fires the silent windows on schedule, from cycle zero after
// the ClearAll as in TestWheelClearAllRebuild.
func TestSweepYieldSerializesCycleAndClearAll(t *testing.T) {
	for _, tc := range []struct {
		name  string
		call  func(*Watchdog)
		cycle uint64 // CycleCount after the call
	}{
		{"Cycle", (*Watchdog).Cycle, 3},
		{"ClearAll", (*Watchdog).ClearAll, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &yieldSink{}
			w := newYieldWatchdog(t, sink)
			started, done := make(chan struct{}), make(chan struct{})
			sink.onFault = func(r Report) {
				if r.Runnable == 0 {
					go func() {
						close(started)
						tc.call(w)
						close(done)
					}()
					<-started
				}
				holdPastBudget()
			}
			for c := 0; c < 2; c++ {
				beatHealthy(w)
				w.Cycle()
			}
			<-done
			rids, cycles := faultsOf(sink.faults)
			if !slices.Equal(rids, yieldSilent) || !slices.Equal(cycles, []uint64{2, 2, 2}) {
				t.Fatalf("sweep faults = %v at cycles %v, want %v all at cycle 2", rids, cycles, yieldSilent)
			}
			if got := w.CycleCount(); got != tc.cycle {
				t.Fatalf("CycleCount after %s = %d, want %d", tc.name, got, tc.cycle)
			}
			// The silent windows restarted at cycle 2 (or, after the
			// ClearAll, at cycle 0) and come due every two cycles.
			sink.onFault, sink.faults = nil, nil
			for w.CycleCount() < 6 {
				beatHealthy(w)
				w.Cycle()
			}
			rids, cycles = faultsOf(sink.faults)
			var wantRids []runnable.ID
			var wantCycles []uint64
			for c := tc.cycle + 1; c <= 6; c++ {
				if c%2 == 0 {
					wantRids = append(wantRids, yieldSilent...)
					wantCycles = append(wantCycles, c, c, c)
				}
			}
			if !slices.Equal(rids, wantRids) || !slices.Equal(cycles, wantCycles) {
				t.Fatalf("faults after %s = %v at cycles %v, want %v at %v", tc.name, rids, cycles, wantRids, wantCycles)
			}
		})
	}
}

// TestSweepYieldsToBatch: runnable 0's fault starts a treatment that
// deactivates runnable 128 and yieldTarget, the silent runnables of
// words 2 and 4, in one Apply. The batch applies whole in the gap the
// sweep leaves after word 1, so neither is judged: the sweep cuts
// between decisions, not between the runnables of one. Issued as
// Deactivate(yieldTarget) then Deactivate(128), the second call can
// miss the gap, and runnable 128 is judged.
func TestSweepYieldsToBatch(t *testing.T) {
	sink := &yieldSink{}
	w := newYieldWatchdog(t, sink)
	done := make(chan error, 1)
	sink.onFault = func(r Report) {
		if r.Runnable == 0 {
			go func() {
				var b Batch
				b.Deactivate(128)
				b.Deactivate(yieldTarget)
				done <- w.Apply(&b)
			}()
			for deadline := time.Now().Add(time.Second); w.waiters.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(10 * time.Microsecond)
			}
		}
		holdPastBudget()
	}
	for c := 0; c < 2; c++ {
		beatHealthy(w)
		w.Cycle()
	}
	if err := <-done; err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if rids, _ := faultsOf(sink.faults); !slices.Equal(rids, []runnable.ID{0}) {
		t.Fatalf("faulted runnables = %v, want [0]: the batch deactivating 128 and %d did not apply whole mid-sweep", rids, yieldTarget)
	}
}
