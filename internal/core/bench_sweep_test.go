// BenchmarkCycleSweep measures the per-cycle sweep cost across monitored
// population size and due fraction — the evidence that the due-cycle
// timer wheel's cost follows the due work, not the population (README
// §Performance, `make bench-json`) — plus the aligned fleet row, where
// every window of 25,005 runnables expires on the same cycle. It lives
// in-package beside BenchmarkLockWait, which reads the watchdog's lock.
// BenchmarkLockWait times what the O(fleet) holders of the watchdog's
// lock cost everyone else: a Deactivate issued while the aligned sweep
// or a scrape runs.
package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// buildSweepWatchdog constructs a watchdog over n runnables of which
// duePct percent have an arrival window expiring on every single cycle
// (ArrivalCycles=1); the rest carry a far deadline that never comes due
// during the benchmark, so they park in the wheel's overflow set. The
// huge MaxArrivals keeps every window closure detection-free: the bench
// measures the sweep mechanism, not the reporting path.
func buildSweepWatchdog(b *testing.B, n, duePct int) *Watchdog {
	b.Helper()
	m := runnable.NewModel()
	app, err := m.AddApp("sweep", runnable.SafetyCritical)
	if err != nil {
		b.Fatalf("AddApp: %v", err)
	}
	task, err := m.AddTask(app, "sweepTask", 1)
	if err != nil {
		b.Fatalf("AddTask: %v", err)
	}
	rids := make([]runnable.ID, n)
	for i := range rids {
		rids[i], err = m.AddRunnable(task, fmt.Sprintf("r%d", i), time.Millisecond, runnable.SafetyCritical)
		if err != nil {
			b.Fatalf("AddRunnable: %v", err)
		}
	}
	if err := m.Freeze(); err != nil {
		b.Fatalf("Freeze: %v", err)
	}
	w, err := New(Config{Model: m, Clock: sim.NewWallClock()})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	// Spread the due population evenly through the ID space.
	stride := 0
	if duePct > 0 {
		stride = 100 / duePct
	}
	for i, rid := range rids {
		hyp := Hypothesis{ArrivalCycles: 1 << 20, MaxArrivals: 1 << 30}
		if stride > 0 && i%stride == 0 {
			hyp.ArrivalCycles = 1 // due on every cycle
		}
		if err := w.SetHypothesis(rid, hyp); err != nil {
			b.Fatalf("SetHypothesis: %v", err)
		}
		if err := w.Activate(rid); err != nil {
			b.Fatalf("Activate: %v", err)
		}
	}
	return w
}

// buildAlignedWatchdog constructs the fleet shape: tasks × perTask
// runnables, all sharing one aliveness hypothesis and all activated on
// the same cycle, so every window comes due on the same sweep. It
// returns a Monitor per runnable. sink may be nil.
func buildAlignedWatchdog(b *testing.B, tasks, perTask int, hyp Hypothesis, sink Sink) (*Watchdog, []*Monitor) {
	b.Helper()
	m := runnable.NewModel()
	app, err := m.AddApp("fleet", runnable.SafetyRelevant)
	if err != nil {
		b.Fatalf("AddApp: %v", err)
	}
	for t := 0; t < tasks; t++ {
		task, err := m.AddTask(app, fmt.Sprintf("node%d", t), 1)
		if err != nil {
			b.Fatalf("AddTask: %v", err)
		}
		for r := 0; r < perTask; r++ {
			if _, err := m.AddRunnable(task, fmt.Sprintf("node%d/r%d", t, r), time.Millisecond, runnable.SafetyRelevant); err != nil {
				b.Fatalf("AddRunnable: %v", err)
			}
		}
	}
	if err := m.Freeze(); err != nil {
		b.Fatalf("Freeze: %v", err)
	}
	w, err := New(Config{Model: m, Clock: sim.NewWallClock(), Sink: sink})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	mons := make([]*Monitor, m.NumRunnables())
	for i := range mons {
		rid := runnable.ID(i)
		if err := w.SetHypothesis(rid, hyp); err != nil {
			b.Fatalf("SetHypothesis: %v", err)
		}
		if err := w.Activate(rid); err != nil {
			b.Fatalf("Activate: %v", err)
		}
		if mons[i], err = w.Register(rid); err != nil {
			b.Fatalf("Register: %v", err)
		}
	}
	return w, mons
}

func BenchmarkCycleSweep(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		for _, duePct := range []int{1, 50, 100} {
			// The impl=wheel suffix keeps the rows matching the
			// committed BENCH_cycle.json.
			b.Run(fmt.Sprintf("n=%d/due=%d%%/impl=wheel", n, duePct), func(b *testing.B) {
				w := buildSweepWatchdog(b, n, duePct)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.Cycle()
				}
			})
		}
	}
	// The fleet's case: 5,001 nodes × 5 runnables activated together, so
	// all 25,005 aliveness windows expire on one cycle in every 30. Each
	// runnable beats once per window (no detections); only the due cycle
	// is timed. In "aligned" the benchmark goroutine beats; in
	// "aligned-remote" a goroutine locked to another OS thread does, as
	// the ingest read loops do in the daemon, so the due sweep reads
	// counter lines another CPU wrote last.
	b.Run("n=25000/aligned", func(b *testing.B) { benchAligned(b, false) })
	b.Run("n=25000/aligned-remote", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 {
			b.Skip("needs GOMAXPROCS >= 2 for a second beating thread")
		}
		benchAligned(b, true)
	})
}

// benchAligned times the due cycle of the aligned fleet (see
// BenchmarkCycleSweep), with the beats from a goroutine locked to an OS
// thread of its own when remote.
func benchAligned(b *testing.B, remote bool) {
	const period = 30
	w, mons := buildAlignedWatchdog(b, 5001, 5, Hypothesis{AlivenessCycles: period, MinHeartbeats: 1}, nil)
	local := func() {
		for _, m := range mons {
			m.Beat()
		}
	}
	beatAll := local
	if remote {
		beat, beaten := make(chan struct{}), make(chan struct{})
		go func() {
			runtime.LockOSThread()
			for range beat {
				local()
				beaten <- struct{}{}
			}
		}()
		defer close(beat)
		beatAll = func() {
			beat <- struct{}{}
			<-beaten
		}
	}
	// Beat once and run the window's cycles up to the due one.
	window := func() {
		beatAll()
		for k := 1; k < period; k++ {
			w.Cycle()
		}
	}
	// Two due cycles put the wheel's recycled bitsets on the free
	// list, so the timed loop sees the steady state.
	for i := 0; i < 2; i++ {
		window()
		w.Cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		window()
		b.StartTimer()
		w.Cycle()
	}
	b.StopTimer()
	if r := w.Results(); r.Aliveness != 0 {
		b.Fatalf("aligned sweep raised %d aliveness faults", r.Aliveness)
	}
}

// onFault0 is a Sink that calls fn on each fault of runnable 0. The
// aligned sweep judges runnable 0 first, so the call means the sweep
// is running and holds the watchdog's lock.
type onFault0 struct{ fn func() }

func (s *onFault0) Fault(r Report) {
	if r.Runnable == 0 && s.fn != nil {
		s.fn()
	}
}

func (*onFault0) StateChanged(StateEvent) {}

// BenchmarkLockWait times one Deactivate issued while an O(fleet)
// holder of the watchdog's lock runs, at 25,005 runnables (5,001 nodes
// × 5, as the aligned sweep row): "sweep" while the aligned due sweep
// runs, in which runnable 0 faults, and "snapshot" while a scrape
// copies the fleet. The reported ns/op is the mean wait of that one
// Deactivate, from the moment the issuer finds the lock held to its
// return; the rest of each pass is not in it. A holder that keeps the
// lock for its whole pass makes the Deactivate wait for the rest of
// it, hundreds of µs on the 2-CPU Xeon VM; one that gives way past the
// hold budget, about the budget and a hand-off. The issuer spins on a
// processor of its own, so the figure needs GOMAXPROCS ≥ 2.
func BenchmarkLockWait(b *testing.B) {
	const period = 30
	hyp := Hypothesis{AlivenessCycles: period, MinHeartbeats: 1}
	// measure runs pass b.N times on the benchmark goroutine; pass calls
	// arm once it is about to hold, or holds, the lock for its O(fleet)
	// stretch. An issuer goroutine waits for arm, then for the lock to
	// be held, and times a Deactivate of the fleet's last runnable,
	// which is re-activated after the pass. A sample whose pass ended
	// before the issuer saw the lock held is dropped.
	measure := func(b *testing.B, w *Watchdog, pass func(arm func())) {
		target := runnable.ID(len(w.hot) - 1)
		var armed, passed, quit atomic.Bool
		var wait time.Duration
		var samples int
		issued := make(chan struct{})
		go func() {
			for {
				for !armed.Load() {
					if quit.Load() {
						return
					}
					runtime.Gosched()
				}
				armed.Store(false)
				held := true
				for held && w.mu.TryLock() {
					w.mu.Unlock() // the holder has not taken it yet
					held = !passed.Load()
				}
				start := time.Now()
				if err := w.Deactivate(target); err != nil {
					b.Errorf("Deactivate: %v", err)
				}
				if held {
					wait += time.Since(start)
					samples++
				}
				issued <- struct{}{}
			}
		}()
		defer quit.Store(true)
		arm := func() { armed.Store(true) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(arm)
			passed.Store(true)
			<-issued
			passed.Store(false)
			if err := w.Activate(target); err != nil {
				b.Fatalf("Activate: %v", err)
			}
		}
		b.StopTimer()
		if samples > 0 {
			b.ReportMetric(float64(wait.Nanoseconds())/float64(samples), "ns/op")
		}
	}
	b.Run("n=25000/sweep", func(b *testing.B) {
		sink := &onFault0{}
		w, mons := buildAlignedWatchdog(b, 5001, 5, hyp, sink)
		measure(b, w, func(arm func()) {
			// Every runnable but 0 beats once; the cycles up to the due
			// one run, then the due sweep, which calls arm on runnable
			// 0's fault.
			for _, m := range mons[1:] {
				m.Beat()
			}
			for k := 1; k < period; k++ {
				w.Cycle()
			}
			sink.fn = arm
			w.Cycle()
			sink.fn = nil
		})
	})
	b.Run("n=25000/snapshot", func(b *testing.B) {
		w, _ := buildAlignedWatchdog(b, 5001, 5, hyp, nil)
		snap := Snapshot{Runnables: make([]RunnableStats, len(w.hot))}
		measure(b, w, func(arm func()) {
			arm()
			w.SnapshotInto(&snap)
		})
	})
}
