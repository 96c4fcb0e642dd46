// Calibration benchmarks (BENCH_calib.json): the healthy-beat cost
// with the online estimator enabled (must match BenchmarkMonitorBeat —
// the estimator is fed from lifetime counts on the Cycle goroutine, never
// the beat path), the per-window estimator sampling cost, and the pure
// Suggest derivation over a fleet-sized baseline.
//
// Run with: make bench-json  (or: go test -bench 'CalibEstimatorSample|CalibSuggest|MonitorBeatCalib' -benchmem)
package swwd_test

import (
	"fmt"
	"testing"

	"swwd"
	"swwd/internal/calib"
)

// BenchmarkMonitorBeatCalib measures the handle fast path with the
// online estimator configured. The estimator samples lifetime beat
// counts every window on the Cycle caller's goroutine, so this must
// match BenchmarkMonitorBeat to within noise — the zero-cost-when-
// healthy contract of the calibration subsystem, enforced at exactly
// zero allocations by the benchdiff gate.
func BenchmarkMonitorBeatCalib(b *testing.B) {
	w, monitors := buildParallelWatchdog(b, 1, 3, swwd.WithEstimatorWindow(1<<20))
	_ = w
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monitors[i%3].Beat()
	}
}

// BenchmarkCalibEstimatorSample measures one complete observation
// window landing in the estimator: a single lock acquisition folding
// every runnable's lifetime beat count into the EWMA, extremes and
// quantile sketch. This is the whole per-window cost of online
// calibration for a fleet of n runnables.
func BenchmarkCalibEstimatorSample(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := calib.NewEstimator(n, calib.EstimatorConfig{WindowCycles: 100})
			counts := make([]uint64, n)
			for i := range counts {
				counts[i] = uint64(2 + i%7)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SampleWindows(counts)
			}
		})
	}
}

// BenchmarkCalibSuggest10k measures the pure hypothesis derivation
// over a 10k-runnable baseline — the deterministic replay unit of a
// rollout decision (rebuilding the proposal set from the recorded
// baseline must be cheap enough to audit on every round).
func BenchmarkCalibSuggest10k(b *testing.B) {
	const n = 10_000
	base := calib.Baseline{WindowCycles: 100, Runnables: make([]calib.RunnableBaseline, n)}
	for i := range base.Runnables {
		base.Runnables[i] = calib.RunnableBaseline{
			Runnable: i, Windows: 50,
			Min: uint64(2 + i%3), Max: uint64(5 + i%4),
			Rate: 3.4, P50: 3, P95: 6,
		}
	}
	pol := calib.Policy{Margin: 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if props := calib.Suggest(base, pol); len(props) != n {
			b.Fatalf("got %d proposals, want %d", len(props), n)
		}
	}
}
