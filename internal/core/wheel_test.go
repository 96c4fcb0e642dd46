package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// --- bitset -----------------------------------------------------------

func TestBitsetBasics(t *testing.T) {
	b := newBitset(700)
	ids := []int{0, 63, 64, 127, 128, 500, 699}
	for _, id := range ids {
		if b.contains(id) {
			t.Fatalf("contains(%d) before set", id)
		}
		b.set(id)
		b.set(id) // duplicate insert must be a no-op
	}
	if b.len() != len(ids) {
		t.Fatalf("len = %d, want %d", b.len(), len(ids))
	}
	for _, id := range ids {
		if !b.contains(id) {
			t.Fatalf("contains(%d) after set = false", id)
		}
	}
	got := b.appendMembers(nil)
	for i, id := range ids {
		if int(got[i]) != id {
			t.Fatalf("appendMembers[%d] = %d, want %d", i, got[i], id)
		}
	}
	if b.len() != len(ids) {
		t.Fatalf("appendMembers drained the set: len = %d", b.len())
	}
	b.clear(63)
	b.clear(63) // duplicate clear must be a no-op
	if b.contains(63) || b.len() != len(ids)-1 {
		t.Fatalf("clear(63): contains=%v len=%d", b.contains(63), b.len())
	}
	drained := b.drainInto(nil)
	want := []int{0, 64, 127, 128, 500, 699}
	if len(drained) != len(want) {
		t.Fatalf("drainInto = %v, want %v", drained, want)
	}
	for i, id := range want {
		if int(drained[i]) != id {
			t.Fatalf("drainInto[%d] = %d, want %d", i, drained[i], id)
		}
	}
	if b.len() != 0 {
		t.Fatalf("len after drain = %d", b.len())
	}
	for _, id := range ids {
		if b.contains(id) {
			t.Fatalf("contains(%d) after drain", id)
		}
	}
	// The set must be reusable after a drain (buckets are recycled).
	b.set(42)
	if !b.contains(42) || b.len() != 1 {
		t.Fatalf("reuse after drain failed")
	}
}

// TestSweepDueOrder drives the one-pass sweep over a bitset word that
// holds both an aliveness and an arrival bit of the same runnables, next
// to neighbours due for only one kind, plus a runnable in a later word:
// faults must come out runnable-ascending, aliveness before arrival, and
// the bucket must be drained.
func TestSweepDueOrder(t *testing.T) {
	m := runnable.NewModel()
	app, _ := m.AddApp("order", runnable.SafetyCritical)
	task, _ := m.AddTask(app, "T", 1)
	for i := 0; i < 70; i++ {
		if _, err := m.AddRunnable(task, fmt.Sprintf("r%d", i), time.Millisecond, runnable.SafetyCritical); err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	sink := &collector{}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock(), Sink: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Two beats per window: below MinHeartbeats 3, above MaxArrivals 1,
	// so a runnable monitoring both units faults on both.
	aliveOnly := Hypothesis{AlivenessCycles: 2, MinHeartbeats: 3}
	arrOnly := Hypothesis{ArrivalCycles: 2, MaxArrivals: 1}
	both := Hypothesis{AlivenessCycles: 2, MinHeartbeats: 3, ArrivalCycles: 2, MaxArrivals: 1}
	hyps := map[runnable.ID]Hypothesis{0: aliveOnly, 1: both, 2: arrOnly, 3: both, 4: aliveOnly, 66: both}
	for rid, h := range hyps {
		if err := w.SetHypothesis(rid, h); err != nil {
			t.Fatalf("SetHypothesis(%d): %v", rid, err)
		}
		if err := w.Activate(rid); err != nil {
			t.Fatalf("Activate(%d): %v", rid, err)
		}
		w.Heartbeat(rid)
		w.Heartbeat(rid)
	}
	w.Cycle()
	if len(sink.faults) != 0 {
		t.Fatalf("faults before the due cycle: %+v", sink.faults)
	}
	w.Cycle()
	type fault struct {
		rid  runnable.ID
		kind ErrorKind
	}
	want := []fault{
		{0, AlivenessError},
		{1, AlivenessError}, {1, ArrivalRateError},
		{2, ArrivalRateError},
		{3, AlivenessError}, {3, ArrivalRateError},
		{4, AlivenessError},
		{66, AlivenessError}, {66, ArrivalRateError},
	}
	var got []fault
	for _, f := range sink.faults {
		got = append(got, fault{f.Runnable, f.Kind})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fault order = %v, want %v", got, want)
	}
	b := &w.sched.buckets[2&w.sched.mask]
	if b.alive.len() != 0 || b.arr.len() != 0 {
		t.Fatalf("due bucket not drained: alive %d, arr %d", b.alive.len(), b.arr.len())
	}
	for _, bs := range []*bitset{b.alive, b.arr} {
		for i, word := range bs.words {
			if word != 0 {
				t.Fatalf("due bucket word %d = %#x after the sweep", i, word)
			}
		}
		for i, word := range bs.summary {
			if word != 0 {
				t.Fatalf("due bucket summary word %d = %#x after the sweep", i, word)
			}
		}
	}
	// Every closed window restarted: its counter is zero and its cycle
	// counter reads zero on the closing cycle.
	for rid, h := range hyps {
		c, _ := w.CounterSnapshot(rid)
		if (h.AlivenessCycles > 0 && c.AC != 0) || (h.ArrivalCycles > 0 && c.ARC != 0) || c.CCA != 0 || c.CCAR != 0 {
			t.Fatalf("runnable %d counters after the close = %+v", rid, c)
		}
	}
}

// streamSink reads runnable 2's live AC when runnable 0's fault arrives:
// one atomic load, no lock (the sink already runs under both watchdog
// locks).
type streamSink struct {
	collector
	w     *Watchdog
	acOf2 []uint32
}

func (s *streamSink) Fault(r Report) {
	if r.Runnable == 0 {
		s.acOf2 = append(s.acOf2, s.w.hot[2].loadAC())
	}
	s.collector.Fault(r)
}

// TestSweepStreamsDetections pins that the sweep reports a detection as
// soon as it judges the window, before it visits the later runnables of
// the same cycle: when runnable 0's aliveness fault reaches the sink,
// runnable 2's window — due on the same cycle — is still open and still
// holds its beat. A sweep that held detections back until the end would
// show that window already closed (AC 0).
func TestSweepStreamsDetections(t *testing.T) {
	m := runnable.NewModel()
	app, _ := m.AddApp("stream", runnable.SafetyCritical)
	task, _ := m.AddTask(app, "T", 1)
	for i := 0; i < 3; i++ {
		if _, err := m.AddRunnable(task, fmt.Sprintf("r%d", i), time.Millisecond, runnable.SafetyCritical); err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	sink := &streamSink{}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock(), Sink: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sink.w = w
	for rid := runnable.ID(0); rid < 3; rid++ {
		if err := w.SetHypothesis(rid, Hypothesis{AlivenessCycles: 2, MinHeartbeats: 1}); err != nil {
			t.Fatalf("SetHypothesis(%d): %v", rid, err)
		}
		if err := w.Activate(rid); err != nil {
			t.Fatalf("Activate(%d): %v", rid, err)
		}
	}
	w.Heartbeat(1)
	w.Heartbeat(2) // runnable 0 misses its beat
	w.Cycle()
	w.Cycle() // all three windows are due
	if len(sink.faults) != 1 || sink.faults[0].Runnable != 0 || sink.faults[0].Kind != AlivenessError {
		t.Fatalf("faults = %+v, want one aliveness fault of runnable 0", sink.faults)
	}
	if !slices.Equal(sink.acOf2, []uint32{1}) {
		t.Fatalf("runnable 2's AC seen by the sink = %v, want [1]: the detection was held until the sweep ended", sink.acOf2)
	}
	if c, _ := w.CounterSnapshot(2); c.AC != 0 {
		t.Fatalf("runnable 2's AC after the sweep = %d, want 0", c.AC)
	}
}

// TestWheelRecyclesBitsets runs an aligned fleet — every window on the
// same phase, the 30-cycle period of the fleet's link hypotheses — over
// two wheel revolutions. The due slot moves round the wheel, but drained
// bitsets go back to the free list, so the wheel keeps a couple of
// bitsets per kind rather than one on every slot the deadlines visit.
func TestWheelRecyclesBitsets(t *testing.T) {
	const n, period = 200, 30
	m := runnable.NewModel()
	app, _ := m.AddApp("fleet", runnable.SafetyRelevant)
	task, _ := m.AddTask(app, "T", 1)
	for i := 0; i < n; i++ {
		if _, err := m.AddRunnable(task, fmt.Sprintf("r%d", i), time.Millisecond, runnable.SafetyRelevant); err != nil {
			t.Fatalf("AddRunnable: %v", err)
		}
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	sink := &collector{}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock(), Sink: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hyp := Hypothesis{AlivenessCycles: period, MinHeartbeats: 1, ArrivalCycles: period, MaxArrivals: 2 * period}
	for rid := runnable.ID(0); rid < n; rid++ {
		if err := w.SetHypothesis(rid, hyp); err != nil {
			t.Fatalf("SetHypothesis(%d): %v", rid, err)
		}
		if err := w.Activate(rid); err != nil {
			t.Fatalf("Activate(%d): %v", rid, err)
		}
	}
	s := w.sched
	seen := map[*bitset]bool{}
	for c := 0; c < 2*defaultWheelSize; c++ {
		for rid := runnable.ID(0); rid < n; rid++ {
			w.Heartbeat(rid)
		}
		w.Cycle()
		held := [3]int{}
		for i := range s.buckets {
			for kind := kindAlive; kind <= kindShadow; kind++ {
				if bs := s.buckets[i].peek(kind); bs != nil {
					held[kind]++
					seen[bs] = true
				}
			}
		}
		for _, bs := range s.free {
			if bs.len() != 0 {
				t.Fatalf("cycle %d: free bitset holds %d deadlines", w.CycleCount(), bs.len())
			}
			seen[bs] = true
		}
		if held[kindAlive] > 2 || held[kindArr] > 2 || held[kindShadow] != 0 {
			t.Fatalf("cycle %d: slots hold %v bitsets (alive, arr, shadow), want at most 2 per active kind", w.CycleCount(), held)
		}
	}
	if len(sink.faults) != 0 {
		t.Fatalf("healthy aligned fleet faulted: %+v", sink.faults[0])
	}
	if len(seen) > 4 {
		t.Fatalf("the wheel used %d distinct bitsets over two revolutions, want at most 4 (2 per kind)", len(seen))
	}
}

// --- wheel fixtures ---------------------------------------------------

// wheelFixture builds a single-runnable watchdog with a tiny wheel so the
// overflow and slot-alias paths are exercised in a handful of cycles.
func wheelFixture(t *testing.T, size uint64, hyp Hypothesis) (*Watchdog, *collector, runnable.ID, runnable.TaskID) {
	t.Helper()
	m := runnable.NewModel()
	app, _ := m.AddApp("wheel", runnable.SafetyCritical)
	task, _ := m.AddTask(app, "T", 1)
	rid, err := m.AddRunnable(task, "r", time.Millisecond, runnable.SafetyCritical)
	if err != nil {
		t.Fatalf("AddRunnable: %v", err)
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	sink := &collector{}
	w, err := New(Config{Model: m, Clock: sim.NewManualClock(), Sink: sink, wheelSize: size})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := w.SetHypothesis(rid, hyp); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	if err := w.Activate(rid); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	return w, sink, rid, task
}

func faultCycles(sink *collector) []uint64 {
	var cs []uint64
	for _, f := range sink.faults {
		cs = append(cs, f.Cycle)
	}
	return cs
}

// --- wheel behavior ---------------------------------------------------

// TestWheelOverflowMigration parks a deadline beyond the wheel horizon
// (L=9 on a 4-slot wheel) and checks it is migrated in and fires exactly
// on schedule, including the re-armed second window.
func TestWheelOverflowMigration(t *testing.T) {
	w, sink, _, _ := wheelFixture(t, 4, Hypothesis{AlivenessCycles: 9, MinHeartbeats: 1})
	for i := 0; i < 18; i++ {
		w.Cycle()
	}
	got := faultCycles(sink)
	if len(got) != 2 || got[0] != 9 || got[1] != 18 {
		t.Fatalf("fault cycles = %v, want [9 18]", got)
	}
}

// TestWheelPeriodEqualsSize re-arms a window whose period equals the
// wheel size, so the fresh deadline lands in the very slot being swept.
// The drain-before-process design must not re-process it on the same
// cycle nor lose it.
func TestWheelPeriodEqualsSize(t *testing.T) {
	w, sink, _, _ := wheelFixture(t, 8, Hypothesis{AlivenessCycles: 8, MinHeartbeats: 1})
	for i := 0; i < 24; i++ {
		w.Cycle()
	}
	got := faultCycles(sink)
	if len(got) != 3 || got[0] != 8 || got[1] != 16 || got[2] != 24 {
		t.Fatalf("fault cycles = %v, want [8 16 24]", got)
	}
}

// TestWheelDeactivateFromOverflow deactivates a runnable whose deadline
// still sits in the overflow set (before any migration) and checks the
// stale deadline neither fires nor corrupts a later re-activation — the
// regression for the explicit per-runnable location tracking.
func TestWheelDeactivateFromOverflow(t *testing.T) {
	w, sink, rid, _ := wheelFixture(t, 4, Hypothesis{AlivenessCycles: 40, MinHeartbeats: 1})
	w.Cycle()
	w.Cycle() // cycle 2: deadline 40 still parked in overflow
	if err := w.Deactivate(rid); err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	for i := 0; i < 60; i++ {
		w.Cycle()
	}
	if got := faultCycles(sink); len(got) != 0 {
		t.Fatalf("faults after deactivate = %v, want none", got)
	}
	// Re-activate at cycle 62: the fresh window must expire at 102.
	if err := w.Activate(rid); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	for i := 0; i < 45; i++ {
		w.Cycle()
	}
	got := faultCycles(sink)
	if len(got) != 1 || got[0] != 102 {
		t.Fatalf("fault cycles = %v, want [102]", got)
	}
}

// TestWheelClearAllRebuild checks ClearAll resets the cycle counter and
// reindexes every deadline: the wheel's bucket keys are absolute cycle
// numbers, so the rebuild must restart windows from the new cycle zero.
func TestWheelClearAllRebuild(t *testing.T) {
	w, sink, _, _ := wheelFixture(t, 4, Hypothesis{AlivenessCycles: 6, MinHeartbeats: 1})
	for i := 0; i < 7; i++ {
		w.Cycle()
	}
	if got := faultCycles(sink); len(got) != 1 || got[0] != 6 {
		t.Fatalf("pre-ClearAll fault cycles = %v, want [6]", got)
	}
	w.ClearAll()
	sink.faults = nil
	for i := 0; i < 13; i++ {
		w.Cycle()
	}
	got := faultCycles(sink)
	if len(got) != 2 || got[0] != 6 || got[1] != 12 {
		t.Fatalf("post-ClearAll fault cycles = %v, want [6 12]", got)
	}
}

// TestWheelSetHypothesisPreservesElapsed shrinks a window mid-flight and
// checks the already-elapsed cycles are honored: after 4 cycles of an
// L=10 window, shrinking to L=3 means the window is already overdue and
// must fire on the next cycle, exactly like the legacy per-cycle counter
// hitting its new limit.
func TestWheelSetHypothesisPreservesElapsed(t *testing.T) {
	w, sink, rid, _ := wheelFixture(t, 8, Hypothesis{AlivenessCycles: 10, MinHeartbeats: 1})
	for i := 0; i < 4; i++ {
		w.Cycle()
	}
	if err := w.SetHypothesis(rid, Hypothesis{AlivenessCycles: 3, MinHeartbeats: 1}); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	w.Cycle() // cycle 5: overdue window fires immediately
	got := faultCycles(sink)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("fault cycles = %v, want [5]", got)
	}
}

// TestWheelCounterSnapshotAnchors checks the anchor-derived CCA matches
// the per-cycle counter semantics across freeze (Suspend) and resume.
func TestWheelCounterSnapshotAnchors(t *testing.T) {
	w, _, rid, tid := wheelFixture(t, 8, Hypothesis{AlivenessCycles: 50, MinHeartbeats: 1})
	for i := 0; i < 4; i++ {
		w.Cycle()
	}
	if c, _ := w.CounterSnapshot(rid); c.CCA != 4 {
		t.Fatalf("CCA after 4 cycles = %d, want 4", c.CCA)
	}
	if err := w.SuspendTaskMonitoring(tid); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	for i := 0; i < 3; i++ {
		w.Cycle()
	}
	if c, _ := w.CounterSnapshot(rid); c.CCA != 0 {
		t.Fatalf("CCA while suspended = %d, want 0 (frozen at reset)", c.CCA)
	}
}
