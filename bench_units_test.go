// Microbenchmarks for the auxiliary monitoring units.
package swwd_test

import (
	"testing"
	"time"

	"swwd/internal/deadline"
	"swwd/internal/hwwd"
	"swwd/internal/osek"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// newHW builds a started hardware watchdog for benchmarking.
func newHW(b *testing.B, k *sim.Kernel) *hwwd.Watchdog {
	b.Helper()
	w, err := hwwd.New(hwwd.Config{Kernel: k, Timeout: time.Second})
	if err != nil {
		b.Fatalf("hwwd.New: %v", err)
	}
	if err := w.Start(); err != nil {
		b.Fatalf("Start: %v", err)
	}
	return w
}

// BenchmarkDeadlineMonitorTransition measures the task-level baseline's
// observer cost per task state transition.
func BenchmarkDeadlineMonitorTransition(b *testing.B) {
	m := runnable.NewModel()
	app, _ := m.AddApp("bench", runnable.QM)
	task, _ := m.AddTask(app, "t", 1)
	if _, err := m.AddRunnable(task, "r", time.Millisecond, runnable.QM); err != nil {
		b.Fatalf("AddRunnable: %v", err)
	}
	if err := m.Freeze(); err != nil {
		b.Fatalf("Freeze: %v", err)
	}
	clk := sim.NewManualClock()
	mon, err := deadline.New(m, clk)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	if err := mon.SetDeadline(task, 10*time.Millisecond); err != nil {
		b.Fatalf("SetDeadline: %v", err)
	}
	if err := mon.SetBudget(task, 5*time.Millisecond); err != nil {
		b.Fatalf("SetBudget: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.TaskTransition(task, osek.Suspended, osek.Ready)
		mon.TaskTransition(task, osek.Ready, osek.Running)
		clk.Advance(time.Millisecond)
		mon.TaskTransition(task, osek.Running, osek.Suspended)
	}
}

// BenchmarkHWWatchdogKick measures the hardware-watchdog service path via
// the hil assembly's components (kernel event cancel + re-arm).
func BenchmarkHWWatchdogKick(b *testing.B) {
	k := sim.NewKernel()
	w := newHW(b, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Kick()
		if i%1024 == 1023 {
			// Drain the cancelled-event garbage occasionally.
			b.StopTimer()
			if err := k.Run(k.Now() + 1); err != nil {
				b.Fatalf("Run: %v", err)
			}
			b.StartTimer()
		}
	}
}
