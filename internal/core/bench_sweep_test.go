// BenchmarkCycleSweep measures the per-cycle sweep cost across monitored
// population size, due fraction and sweep implementation — the evidence
// that the due-cycle timer wheel killed the O(N) per-cycle walk (README
// §Performance, `make bench-json`) — plus the aligned fleet row, where
// every window of 25,005 runnables expires on the same cycle. It lives in-package because the walk
// is reachable only through the unexported legacySweep test hook.
package core

import (
	"fmt"
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
func buildSweepWatchdog(b *testing.B, n, duePct int, legacy bool) *Watchdog {
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
	w, err := New(Config{Model: m, Clock: sim.NewWallClock(), legacySweep: legacy})
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
// returns a Monitor per runnable.
func buildAlignedWatchdog(b *testing.B, tasks, perTask int, hyp Hypothesis) (*Watchdog, []*Monitor) {
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
	w, err := New(Config{Model: m, Clock: sim.NewWallClock()})
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
	impls := []struct {
		name   string
		legacy bool
	}{
		{"wheel", false},
		{"walk", true},
	}
	for _, n := range []int{1000, 10000, 100000} {
		for _, duePct := range []int{1, 50, 100} {
			for _, impl := range impls {
				name := fmt.Sprintf("n=%d/due=%d%%/impl=%s", n, duePct, impl.name)
				b.Run(name, func(b *testing.B) {
					w := buildSweepWatchdog(b, n, duePct, impl.legacy)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						w.Cycle()
					}
				})
			}
		}
	}
	// The fleet's case: 5,001 nodes × 5 runnables activated together, so
	// all 25,005 aliveness windows expire on one cycle in every 30. Each
	// runnable beats once per window (no detections); only the due cycle
	// is timed.
	b.Run("n=25000/aligned", func(b *testing.B) {
		const period = 30
		w, mons := buildAlignedWatchdog(b, 5001, 5, Hypothesis{AlivenessCycles: period, MinHeartbeats: 1})
		// Beat once and run the window's cycles up to the due one.
		window := func() {
			for _, m := range mons {
				m.Beat()
			}
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
	})
}
