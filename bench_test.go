// Benchmarks regenerating the paper's evaluation artefacts (one bench per
// table/figure, see DESIGN.md §4) plus mechanism- and substrate-level
// microbenchmarks.
//
// Run with: go test -bench=. -benchmem
package swwd_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"swwd"
	"swwd/internal/cfc"
	"swwd/internal/core"
	"swwd/internal/experiments"
	"swwd/internal/hil"
	"swwd/internal/inject"
	"swwd/internal/osek"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// buildWatchdog constructs a watchdog monitoring n runnables in one task.
func buildWatchdog(b *testing.B, n int) (*swwd.Watchdog, []swwd.RunnableID) {
	b.Helper()
	m := swwd.NewModel()
	app, err := m.AddApp("bench", swwd.SafetyCritical)
	if err != nil {
		b.Fatalf("AddApp: %v", err)
	}
	task, err := m.AddTask(app, "benchTask", 1)
	if err != nil {
		b.Fatalf("AddTask: %v", err)
	}
	rids := make([]swwd.RunnableID, n)
	for i := range rids {
		rids[i], err = m.AddRunnable(task, fmt.Sprintf("r%d", i), time.Millisecond, swwd.SafetyCritical)
		if err != nil {
			b.Fatalf("AddRunnable: %v", err)
		}
	}
	if err := m.Freeze(); err != nil {
		b.Fatalf("Freeze: %v", err)
	}
	w, err := swwd.New(m, swwd.WithClock(swwd.NewWallClock()))
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for _, rid := range rids {
		if err := w.SetHypothesis(rid, swwd.Hypothesis{
			AlivenessCycles: 5, MinHeartbeats: 1,
			ArrivalCycles: 5, MaxArrivals: 1 << 30, // never trip during the bench
		}); err != nil {
			b.Fatalf("SetHypothesis: %v", err)
		}
		if err := w.Activate(rid); err != nil {
			b.Fatalf("Activate: %v", err)
		}
	}
	if err := w.AddFlowSequence(rids...); err != nil && n > 1 {
		b.Fatalf("AddFlowSequence: %v", err)
	}
	return w, rids
}

// BenchmarkHeartbeat measures the aliveness-indication hot path (counter
// update + flow check) — the per-runnable run-time cost the paper's
// "minimize performance penalty" goal is about.
func BenchmarkHeartbeat(b *testing.B) {
	w, rids := buildWatchdog(b, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Heartbeat(rids[i%3])
	}
}

// BenchmarkWatchdogCycle measures the time-triggered check cost per
// monitoring cycle as the monitored-runnable population grows.
func BenchmarkWatchdogCycle(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("runnables=%d", n), func(b *testing.B) {
			w, _ := buildWatchdog(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Cycle()
			}
		})
	}
}

// benchGraph builds the ring+branch CFG used by the T1 comparison.
func benchGraph(b *testing.B, n int) *cfc.Graph {
	b.Helper()
	g, err := cfc.NewGraph(n)
	if err != nil {
		b.Fatalf("NewGraph: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := g.AddEdge(cfc.BlockID(i), cfc.BlockID((i+1)%n)); err != nil {
			b.Fatalf("AddEdge: %v", err)
		}
	}
	for i := 0; i+2 < n; i += 4 {
		if err := g.AddEdge(cfc.BlockID(i), cfc.BlockID(i+2)); err != nil {
			b.Fatalf("AddEdge: %v", err)
		}
	}
	return g
}

// benchWalk precomputes a legal pseudo-random walk over the graph: a
// fixed modulo walk would be perfectly branch-predictable and would
// flatten the mechanism difference that the random-branching workload
// (cmd/experiments -run overhead) exposes.
func benchWalk(b *testing.B, g *cfc.Graph, length int, seed int64) []cfc.BlockID {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	walk := make([]cfc.BlockID, length)
	cur := cfc.BlockID(0)
	for i := range walk {
		ss := g.Successors(cur)
		cur = ss[rng.Intn(len(ss))]
		walk[i] = cur
	}
	return walk
}

// BenchmarkPFCLookup measures the look-up-table check (T1, the paper's
// chosen mechanism).
func BenchmarkPFCLookup(b *testing.B) {
	for _, n := range []int{3, 10, 30, 100} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			g := benchGraph(b, n)
			walk := benchWalk(b, g, 4096, int64(n))
			c := cfc.NewTablePFC(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(walk) {
				c.Reset(0)
				for _, blk := range walk {
					c.Enter(blk)
				}
			}
			if c.Detected() != 0 {
				b.Fatal("legal walk flagged")
			}
		})
	}
}

// BenchmarkCFCSSSignature measures the embedded-signature baseline (T1,
// the paper's reference [10]).
func BenchmarkCFCSSSignature(b *testing.B) {
	for _, n := range []int{3, 10, 30, 100} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			g := benchGraph(b, n)
			walk := benchWalk(b, g, 4096, int64(n))
			c, err := cfc.NewCFCSS(g, 42)
			if err != nil {
				b.Fatalf("NewCFCSS: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(walk) {
				c.Reset(0)
				for _, blk := range walk {
					c.Enter(blk)
				}
			}
		})
	}
}

// BenchmarkFig5AlivenessDetection regenerates E1 end-to-end: a full 6s
// validator scenario with the aliveness injection.
func BenchmarkFig5AlivenessDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5()
		if err != nil {
			b.Fatalf("Fig5: %v", err)
		}
		if r.Results.Aliveness == 0 {
			b.Fatal("no detection")
		}
	}
}

// BenchmarkFig6Collaboration regenerates E2 end-to-end.
func BenchmarkFig6Collaboration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6()
		if err != nil {
			b.Fatalf("Fig6: %v", err)
		}
		if r.Results.ProgramFlow < 3 || r.Results.Aliveness != 1 {
			b.Fatalf("shape broken: %+v", r.Results)
		}
	}
}

// BenchmarkArrivalRateDetection regenerates E3 end-to-end.
func BenchmarkArrivalRateDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ArrivalRate()
		if err != nil {
			b.Fatalf("ArrivalRate: %v", err)
		}
		if r.Results.ArrivalRate == 0 {
			b.Fatal("no detection")
		}
	}
}

// BenchmarkPFCStandalone regenerates E4 end-to-end.
func BenchmarkPFCStandalone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.PFC()
		if err != nil {
			b.Fatalf("PFC: %v", err)
		}
		if r.Results.ProgramFlow == 0 {
			b.Fatal("no detection")
		}
	}
}

// BenchmarkDetectionLatency reports the E1 detection latency as a custom
// metric (ms), the quantity tabulated by T2.
func BenchmarkDetectionLatency(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5()
		if err != nil {
			b.Fatalf("Fig5: %v", err)
		}
		total += r.FirstDetection.Sub(r.InjectedAt)
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ms/detection")
}

// BenchmarkTreatmentEscalation regenerates T3 end-to-end.
func BenchmarkTreatmentEscalation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Treatment()
		if err != nil {
			b.Fatalf("Treatment: %v", err)
		}
		if len(rows) != 3 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkGranularity regenerates E5 end-to-end: the task-level
// baselines stay blind while the watchdog detects.
func BenchmarkGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Granularity()
		if err != nil {
			b.Fatalf("Granularity: %v", err)
		}
		if r.DeadlineMisses != 0 || r.ProgramFlowErrors == 0 {
			b.Fatalf("shape broken: %+v", r)
		}
	}
}

// BenchmarkReconfiguration regenerates X1 end-to-end: termination of the
// faulty application engages the limp-home fallback.
func BenchmarkReconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Reconfig()
		if err != nil {
			b.Fatalf("Reconfig: %v", err)
		}
		if r.EngagedAt == 0 || r.SpeedAfterKph > 62 {
			b.Fatalf("shape broken: %+v", r)
		}
	}
}

// BenchmarkHardwareWatchdogLayering regenerates X2 end-to-end.
func BenchmarkHardwareWatchdogLayering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.HardwareWatchdog()
		if err != nil {
			b.Fatalf("HardwareWatchdog: %v", err)
		}
		if r.BranchHWExpiries != 0 || r.HogHWExpiries == 0 {
			b.Fatalf("shape broken: %+v", r)
		}
	}
}

// BenchmarkCorrelationAblation compares the Fig. 6 run with and without
// the unit-collaboration logic (DESIGN.md §5 ablation): the reported
// metric is accumulated aliveness errors per run.
func BenchmarkCorrelationAblation(b *testing.B) {
	b.Run("with-correlation", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			r, err := experiments.Fig6()
			if err != nil {
				b.Fatalf("Fig6: %v", err)
			}
			total += r.Results.Aliveness
		}
		b.ReportMetric(float64(total)/float64(b.N), "aliveness/run")
	})
	b.Run("without-correlation", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			r, err := experiments.PFC() // ablated variant of the same scenario
			if err != nil {
				b.Fatalf("PFC: %v", err)
			}
			total += r.Results.Aliveness
		}
		b.ReportMetric(float64(total)/float64(b.N), "aliveness/run")
	})
}

// BenchmarkSimKernel measures the discrete-event kernel's event
// throughput.
func BenchmarkSimKernel(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(k.Now()+sim.Time(i%64), func() {})
		if k.Pending() > 1024 {
			b.StopTimer()
			if err := k.RunUntilIdle(); err != nil {
				b.Fatalf("RunUntilIdle: %v", err)
			}
			b.StartTimer()
		}
	}
	if err := k.RunUntilIdle(); err != nil {
		b.Fatalf("RunUntilIdle: %v", err)
	}
}

// BenchmarkOSEKDispatch measures scheduler throughput: activations of a
// short task, including dispatch, execution and termination.
func BenchmarkOSEKDispatch(b *testing.B) {
	k := sim.NewKernel()
	m := runnable.NewModel()
	app, _ := m.AddApp("bench", runnable.QM)
	task, _ := m.AddTask(app, "T", 1)
	rid, err := m.AddRunnable(task, "R", time.Microsecond, runnable.QM)
	if err != nil {
		b.Fatalf("AddRunnable: %v", err)
	}
	if err := m.Freeze(); err != nil {
		b.Fatalf("Freeze: %v", err)
	}
	os, err := osek.New(osek.Config{Model: m, Kernel: k})
	if err != nil {
		b.Fatalf("osek.New: %v", err)
	}
	if err := os.DefineTask(task, osek.TaskAttrs{}, osek.Program{osek.Exec{Runnable: rid}}); err != nil {
		b.Fatalf("DefineTask: %v", err)
	}
	if err := os.Start(); err != nil {
		b.Fatalf("Start: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := os.ActivateTask(task); err != nil {
			b.Fatalf("ActivateTask: %v", err)
		}
		if err := k.RunUntilIdle(); err != nil {
			b.Fatalf("RunUntilIdle: %v", err)
		}
	}
}

// BenchmarkDistributedReporting regenerates X3 end-to-end: remote fault
// reports crossing the CAN bus.
func BenchmarkDistributedReporting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Distributed()
		if err != nil {
			b.Fatalf("Distributed: %v", err)
		}
		if r.ReportsReceived == 0 || !r.CentralClean {
			b.Fatalf("shape broken: %+v", r)
		}
	}
}

// BenchmarkSharedTask regenerates E7 end-to-end.
func BenchmarkSharedTask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SharedTask()
		if err != nil {
			b.Fatalf("SharedTask: %v", err)
		}
		if r.FlowErrors == 0 || !r.BEverFaulty {
			b.Fatalf("shape broken: %+v", r)
		}
	}
}

// BenchmarkEagerArrivalAblation measures the detection-latency difference
// between the paper's passive period-end arrival check and the eager
// variant (DESIGN.md §5 ablation). Metric: ms from injection to first
// arrival-rate detection.
func BenchmarkEagerArrivalAblation(b *testing.B) {
	run := func(b *testing.B, eager bool) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			v, err := hil.New(hil.Options{EagerArrivalCheck: eager})
			if err != nil {
				b.Fatalf("hil.New: %v", err)
			}
			burst := &inject.BurstDispatch{OS: v.OS, Task: v.SafeSpeed.Task, Period: 2 * time.Millisecond}
			v.Injector.ApplyAt(2*sim.Second, burst)
			if err := v.Run(4 * time.Second); err != nil {
				b.Fatalf("Run: %v", err)
			}
			first := v.FirstDetection(core.ArrivalRateError)
			if first == 0 {
				b.Fatal("no detection")
			}
			total += first.Sub(2 * sim.Second)
		}
		b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "ms/detection")
	}
	b.Run("period-end", func(b *testing.B) { run(b, false) })
	b.Run("eager", func(b *testing.B) { run(b, true) })
}
