package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// buildConcurrencyFixture builds a model with nTasks tasks of
// runnablesPerTask runnables each, a full hypothesis on every runnable,
// every runnable active, and the straight-line flow sequence installed per
// task. mutate, when given, adjusts the Config before New.
func buildConcurrencyFixture(t testing.TB, nTasks, runnablesPerTask int, mutate ...func(*Config)) (*Watchdog, []runnable.ID, []runnable.TaskID) {
	t.Helper()
	m := runnable.NewModel()
	app, err := m.AddApp("stress", runnable.SafetyCritical)
	if err != nil {
		t.Fatalf("AddApp: %v", err)
	}
	var rids []runnable.ID
	var tids []runnable.TaskID
	for ti := 0; ti < nTasks; ti++ {
		task, err := m.AddTask(app, "T"+string(rune('A'+ti)), ti+1)
		if err != nil {
			t.Fatalf("AddTask: %v", err)
		}
		tids = append(tids, task)
		for ri := 0; ri < runnablesPerTask; ri++ {
			rid, err := m.AddRunnable(task, "r"+string(rune('A'+ti))+string(rune('0'+ri)), time.Millisecond, runnable.SafetyCritical)
			if err != nil {
				t.Fatalf("AddRunnable: %v", err)
			}
			rids = append(rids, rid)
		}
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	cfg := Config{
		Model: m, Clock: sim.NewManualClock(),
		EagerArrivalCheck: true, // exercise the eager cold path too
		JournalSize:       16,   // tiny ring so the stress run wraps it constantly
	}
	for _, fn := range mutate {
		fn(&cfg)
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, rid := range rids {
		if err := w.SetHypothesis(rid, Hypothesis{
			AlivenessCycles: 4, MinHeartbeats: 1,
			ArrivalCycles: 4, MaxArrivals: 64,
		}); err != nil {
			t.Fatalf("SetHypothesis: %v", err)
		}
		if err := w.Activate(rid); err != nil {
			t.Fatalf("Activate: %v", err)
		}
	}
	for ti := 0; ti < nTasks; ti++ {
		seq := rids[ti*runnablesPerTask : (ti+1)*runnablesPerTask]
		if len(seq) >= 2 {
			if err := w.AddFlowSequence(seq...); err != nil {
				t.Fatalf("AddFlowSequence: %v", err)
			}
		}
	}
	return w, rids, tids
}

// TestConcurrentBeatCycle_Race hammers the watchdog from many goroutines
// at once — heartbeats via both the legacy Heartbeat entry point and
// Monitor handles, the time-triggered Cycle sweep, activation toggles and
// fault treatment — and is intended to run under `go test -race`. It
// asserts only invariants that hold under any interleaving: no panics, no
// data races, a bounded snapshot, and that results remain monotonic.
func TestConcurrentBeatCycle_Race(t *testing.T) {
	const (
		nTasks     = 8
		perTask    = 8
		goroutines = 8
		iterations = 2000
	)
	w, rids, tids := buildConcurrencyFixture(t, nTasks, perTask)

	monitors := make([]*Monitor, len(rids))
	for i, rid := range rids {
		var err error
		monitors[i], err = w.Register(rid)
		if err != nil {
			t.Fatalf("Register(%d): %v", rid, err)
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})

	// Beaters: half through handles, half through the legacy wrapper.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < iterations; i++ {
				k := rng.Intn(len(rids))
				if seed%2 == 0 {
					monitors[k].Beat()
				} else {
					w.Heartbeat(rids[k])
				}
			}
		}(int64(g))
	}

	// Cycle ticker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < iterations/4; i++ {
			w.Cycle()
		}
	}()

	// Activation churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		<-start
		for i := 0; i < iterations/4; i++ {
			rid := rids[rng.Intn(len(rids))]
			if i%2 == 0 {
				_ = w.Deactivate(rid)
			} else {
				_ = w.Activate(rid)
			}
		}
	}()

	// Fault treatment: ClearTask plus suspend/resume.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		<-start
		for i := 0; i < iterations/8; i++ {
			tid := tids[rng.Intn(len(tids))]
			switch i % 3 {
			case 0:
				_ = w.ClearTask(tid)
			case 1:
				_ = w.SuspendTaskMonitoring(tid)
			default:
				_ = w.ResumeTaskMonitoring(tid)
			}
		}
	}()

	// Readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < iterations/4; i++ {
			_ = w.Results()
			_, _ = w.CounterSnapshot(rids[i%len(rids)])
			_ = w.ECUState()
			_ = w.CycleCount()
		}
	}()

	// Telemetry scrapers: full snapshots and journal copies with reused
	// buffers, racing the beaters, the sweep and the treatment paths —
	// the shape of a live metrics endpoint scraping a busy watchdog.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var snap Snapshot
		var entries []JournalEntry
		<-start
		for i := 0; i < iterations/4; i++ {
			w.SnapshotInto(&snap)
			if len(snap.Runnables) != len(rids) {
				t.Errorf("snapshot has %d runnables, want %d", len(snap.Runnables), len(rids))
				return
			}
			entries = w.JournalInto(entries[:0])
			for j := 1; j < len(entries); j++ {
				if entries[j].Seq != entries[j-1].Seq+1 {
					t.Errorf("journal copy not contiguous: seq %d after %d",
						entries[j].Seq, entries[j-1].Seq)
					return
				}
			}
			_ = w.JournalStats()
			_ = w.SweepHistogram()
		}
	}()

	close(start)
	wg.Wait()

	// Monotonicity / sanity: one more quiet window must be observable.
	before := w.Results()
	w.Cycle()
	after := w.Results()
	if after.Aliveness < before.Aliveness || after.ArrivalRate < before.ArrivalRate ||
		after.ProgramFlow < before.ProgramFlow {
		t.Fatalf("results went backwards: %+v -> %+v", before, after)
	}

	// Journal accounting closes consistent: written = retained + dropped,
	// and the drop counter only exceeds zero once the ring has wrapped.
	st := w.JournalStats()
	if uint64(st.Len) != st.Written-st.Dropped {
		t.Fatalf("journal accounting: Len %d != Written %d - Dropped %d", st.Len, st.Written, st.Dropped)
	}
	if st.Written > uint64(st.Cap) && st.Dropped == 0 {
		t.Fatalf("journal wrapped (%d written into %d slots) but dropped nothing", st.Written, st.Cap)
	}
}

// TestConcurrentLockContract_Race races every reader and writer of the
// state guarded by the watchdog's lock against Cycle and live
// heartbeats: SnapshotInto and CounterSnapshot, program-flow violations
// and eager arrival detections (whose journal freeze-frames read the
// sweep state), the estimator sampler (from the Cycle driver and a
// goroutine of its own), Activate/SetHypothesis with interned values,
// batches over whole tasks, flow-table edits, the result, TSI and
// journal readers, journal sink swaps, the shadow guard and ClearAll. Run it
// under -race. The fleet spans four bitset words, two of its tasks miss
// beats, and the journal sinks now and then hold the lock past the hold
// budget, so the due sweeps raise detections and give the lock away
// mid-bucket to the racing callers.
func TestConcurrentLockContract_Race(t *testing.T) {
	const iterations = 1500
	const perTask = 64
	w, rids, tids := buildConcurrencyFixture(t, 4, perTask, func(c *Config) { c.EstimatorWindowCycles = 3 })
	var journaled atomic.Uint64
	slowSink := func(JournalEntry) {
		if journaled.Add(1)%64 == 0 {
			time.Sleep(holdBudget)
		}
	}
	w.SetJournalSink(slowSink)
	monitors := make([]*Monitor, len(rids))
	for i, rid := range rids {
		var err error
		if monitors[i], err = w.Register(rid); err != nil {
			t.Fatalf("Register(%d): %v", rid, err)
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iterations; i++ {
				fn(i)
			}
		}()
	}
	run(func(int) { w.Cycle() })
	// Healthy beats in sequence order for tasks 1 and 3, which fill
	// bitset words 1 and 3: their words end the bursts of detections of
	// the silent tasks 0 and 2, and the sweep gives way after them.
	run(func(int) {
		for _, m := range monitors[perTask : 2*perTask] {
			m.Beat()
		}
		for _, m := range monitors[3*perTask:] {
			m.Beat()
		}
	})
	// Program-flow violations: a runnable following itself is not in
	// any task's sequence, and a frame replays records out of order.
	idx := []uint32{3, 1, 2, 0}
	run(func(i int) {
		rid := rids[i%len(rids)]
		w.Heartbeat(rid)
		w.Heartbeat(rid)
		if i%8 == 0 {
			w.FlowEventN(rids, idx)
		}
	})
	// Eager arrival detections: one batch past MaxArrivals trips it.
	run(func(i int) {
		if i%4 == 0 {
			monitors[(i/4)%len(monitors)].BeatN(100)
		}
	})
	// The estimator sampler, besides the one the Cycle driver runs every
	// third cycle: it reads the beat counters without the lock.
	run(func(i int) {
		if i%8 == 0 {
			w.estMu.Lock()
			if w.sampleCounts() {
				w.est.SampleWindows(w.estCounts)
			}
			w.estMu.Unlock()
		}
	})
	// Readers of the sweep state.
	run(func(i int) {
		var snap Snapshot
		if i%16 == 0 {
			w.SnapshotInto(&snap)
		}
		_, _ = w.CounterSnapshot(rids[i%len(rids)])
	})
	// Configuration: re-installs alternate two interned values.
	hyps := []Hypothesis{
		{AlivenessCycles: 4, MinHeartbeats: 1, ArrivalCycles: 4, MaxArrivals: 64},
		{AlivenessCycles: 3, MinHeartbeats: 1, ArrivalCycles: 3, MaxArrivals: 32},
	}
	run(func(i int) {
		rid := rids[i%len(rids)]
		_ = w.SetHypothesis(rid, hyps[(i/len(rids))%2])
		if i%5 == 0 {
			_ = w.Deactivate(rid)
		} else {
			_ = w.Activate(rid)
		}
	})
	// Batches: a whole task deactivated and activated again, or all its
	// hypotheses re-installed, in one Apply, while sweeps give way.
	var batch Batch
	run(func(i int) {
		ti := i % len(tids)
		batch.Reset()
		for _, rid := range rids[ti*perTask : (ti+1)*perTask] {
			if i%3 == 0 {
				batch.Deactivate(rid)
				batch.Activate(rid)
			} else {
				batch.SetHypothesis(rid, hyps[i%2])
			}
		}
		if err := w.Apply(&batch); err != nil {
			t.Errorf("Apply: %v", err)
		}
	})
	// Writers of the rest of the locked state: flow-table edits that
	// re-install the sequence pairs (so self-follows stay violations),
	// journal sink swaps, shadow candidates and the whole-watchdog reset.
	sinks := []func(JournalEntry){slowSink, func(JournalEntry) { journaled.Add(1) }}
	shadow := Hypothesis{AlivenessCycles: 3, MinHeartbeats: 1}
	run(func(i int) {
		rid := rids[i%len(rids)]
		base := i % len(rids) / perTask * perTask
		_ = w.MonitorFlow(rid)
		_ = w.AddFlowPair(rids[base+i%perTask], rids[base+(i+1)%perTask])
		w.SetJournalSink(sinks[i%2])
		_ = w.SetShadow(rid, shadow)
		if i%100 == 99 {
			w.ClearAll()
		}
	})
	// Readers of the rest of the locked state.
	var journal []JournalEntry
	run(func(i int) {
		_ = w.Results()
		_, _ = w.TaskState(tids[i%len(tids)])
		journal = w.JournalInto(journal[:0])
		_, _ = w.ShadowVerdict(rids[i%len(rids)])
		if i%16 == 0 {
			_ = w.Shadows()
		}
	})
	close(start)
	wg.Wait()

	r := w.Results()
	if r.ProgramFlow == 0 || r.ArrivalRate == 0 {
		t.Fatalf("stress raised no flow or arrival detection: %+v", r)
	}
	if journaled.Load() == 0 {
		t.Fatal("journal sink saw no detection")
	}
}

// TestEagerArrivalElection_Race beats one eager-armed runnable from
// many goroutines while Cycle closes its short arrival windows. Every
// beat past a window's MaxArrivals calls the election, and it must elect
// one reporter per exceeded window: each report observed more than
// MaxArrivals beats, so there are at most beats/(MaxArrivals+1) of them,
// and no beat is lost or counted twice. Run it under -race.
func TestEagerArrivalElection_Race(t *testing.T) {
	const (
		maxArrivals = 7
		beaters     = 8
		perBeater   = 2000
	)
	f := newFixture(t, func(c *Config) { c.EagerArrivalCheck = true })
	if err := f.w.SetHypothesis(f.a, Hypothesis{ArrivalCycles: 2, MaxArrivals: maxArrivals}); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	if err := f.w.Activate(f.a); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	m, err := f.w.Register(f.a)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	var issued atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < beaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perBeater; i++ {
				if g%2 == 0 {
					m.Beat()
					issued.Add(1)
				} else {
					m.BeatN(3)
					issued.Add(3)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-start
		for i := 0; i < perBeater/4; i++ {
			f.w.Cycle()
		}
	}()
	close(start)
	wg.Wait()
	<-done

	beats := issued.Load()
	reports := 0
	for _, r := range f.sink.faults {
		if r.Kind != ArrivalRateError {
			t.Fatalf("unexpected report %+v", r)
		}
		if r.Observed <= maxArrivals {
			t.Fatalf("report observed %d beats, want > %d: %+v", r.Observed, maxArrivals, r)
		}
		reports++
	}
	if reports == 0 || uint64(reports) > beats/(maxArrivals+1) {
		t.Fatalf("%d reports for %d beats, want 1..%d", reports, beats, beats/(maxArrivals+1))
	}
	if got := f.w.Snapshot().Runnables[f.a].Beats; got != beats {
		t.Fatalf("lifetime beats = %d, want %d", got, beats)
	}
}

// TestConcurrentRegisterAndConfig races Register/SetHypothesis/flow-table
// growth against live heartbeats and frames of flow records:
// configuration is copy-on-write, so beats and frames in flight must
// always see either the old or the new table.
func TestConcurrentRegisterAndConfig(t *testing.T) {
	w, rids, _ := buildConcurrencyFixture(t, 4, 4)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			idx := make([]uint32, 8)
			<-start
			for i := 0; i < 1000; i++ {
				if seed%2 == 0 {
					w.Heartbeat(rids[rng.Intn(len(rids))])
					continue
				}
				for j := range idx {
					idx[j] = uint32(rng.Intn(len(rids)))
				}
				w.FlowEventN(rids, idx)
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 500; i++ {
			m, err := w.Register(rids[i%len(rids)])
			if err != nil {
				t.Errorf("Register: %v", err)
				return
			}
			m.Beat()
			_ = m.Counters()
			_ = w.SetHypothesis(rids[i%len(rids)], Hypothesis{
				AlivenessCycles: 3, MinHeartbeats: 1,
				ArrivalCycles: 3, MaxArrivals: 32,
			})
			_ = w.MonitorFlow(rids[i%len(rids)])
			_ = w.AddFlowPair(rids[i%len(rids)], rids[(i+1)%len(rids)]) // cross-task pairs are rejected
		}
	}()
	close(start)
	wg.Wait()
}
