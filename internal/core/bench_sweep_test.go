// BenchmarkCycleSweep measures the per-cycle sweep cost across monitored
// population size, due fraction and sweep implementation — the evidence
// that the due-cycle timer wheel killed the O(N) per-cycle walk (README
// §Performance, `make bench-json`). It lives in-package because the walk
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
}
