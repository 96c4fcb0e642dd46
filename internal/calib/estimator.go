// Package calib is the online auto-calibration subsystem: it owns the
// whole hypothesis lifecycle from observation to fleet rollout.
//
//   - The Estimator (this file) maintains per-runnable arrival-rate
//     baselines — exact window extremes, an EWMA rate and a fixed-size
//     log-bucketed quantile sketch — fed off the hot path from the beat
//     counts the core already banks (see core.Config.EstimatorWindowCycles):
//     one sampling pass per observation window on the Cycle caller's
//     goroutine, zero added cost per heartbeat.
//   - Suggest (suggest.go) is the pure, deterministic suggestion engine
//     turning a recorded Baseline into tightened hypothesis Proposals.
//   - Params/Stage (rollout.go) are the operator knobs and the staged
//     rollout state machine (shadow → canary → fleet) executed by
//     fleet.CalibController.
//
// The shadow guard itself lives in the core (Watchdog.SetShadow): a
// candidate hypothesis rides the timer wheel's due-cycle machinery and
// counts would-be faults against the live beat stream without raising
// any.
package calib

import (
	"math"
	"math/bits"
	"sync"
)

// SkipWindow marks a runnable excluded from one sampling pass (its
// Activation Status was off, so a zero count would be a monitoring
// artifact, not an observation).
const SkipWindow = ^uint64(0)

// DefaultAlpha is the EWMA smoothing factor when EstimatorConfig.Alpha
// is zero: heavy enough to follow drift within a few dozen windows,
// light enough that one outlier window barely moves the rate.
const DefaultAlpha = 0.25

// histBuckets sizes the per-runnable quantile sketch: bucket 0 counts
// zero-beat windows, bucket i (i ≥ 1) counts windows whose beat count
// has bit length i, i.e. lies in [2^(i-1), 2^i). 64 value buckets cover
// the full uint64 range in fixed space.
const histBuckets = 65

// EstimatorConfig configures an Estimator.
type EstimatorConfig struct {
	// WindowCycles is the observation-window length in watchdog cycles.
	// The estimator itself is clock-free (it only sees completed
	// windows); the value is recorded so baselines and the hypotheses
	// suggested from them carry the right monitoring period.
	WindowCycles int
	// Alpha is the EWMA smoothing factor in (0,1]; zero means
	// DefaultAlpha.
	Alpha float64
}

// rstate is the per-runnable estimator state.
type rstate struct {
	windows uint64
	min     uint64
	max     uint64
	rate    float64
	hist    [histBuckets]uint64
}

// Estimator maintains online per-runnable arrival baselines. It is safe
// for concurrent use: SampleWindows is called once per observation
// window (cold), readers take the same mutex. The hot heartbeat path
// never touches it — the core feeds it from already-banked beat counts.
type Estimator struct {
	mu     sync.Mutex
	cfg    EstimatorConfig
	passes uint64
	rs     []rstate
}

// NewEstimator builds an estimator for n runnables.
func NewEstimator(n int, cfg EstimatorConfig) *Estimator {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = DefaultAlpha
	}
	e := &Estimator{cfg: cfg, rs: make([]rstate, n)}
	for i := range e.rs {
		e.rs[i].min = math.MaxUint64
	}
	return e
}

// WindowCycles reports the configured observation-window length.
func (e *Estimator) WindowCycles() int { return e.cfg.WindowCycles }

// bucketOf maps a window beat count to its sketch bucket.
func bucketOf(count uint64) int { return bits.Len64(count) }

// bucketCeil is the largest count a bucket can hold — the conservative
// (upper-bound) value a quantile query reports for it.
func bucketCeil(b int) uint64 {
	if b == 0 {
		return 0
	}
	if b >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(b) - 1
}

// SampleWindows records one completed observation window for every
// runnable: counts[i] is runnable i's beat count in the window, or
// SkipWindow to exclude it from this pass. One call per window, one
// lock acquisition for the whole fleet.
func (e *Estimator) SampleWindows(counts []uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.passes++
	n := len(counts)
	if n > len(e.rs) {
		n = len(e.rs)
	}
	for i := 0; i < n; i++ {
		c := counts[i]
		if c == SkipWindow {
			continue
		}
		r := &e.rs[i]
		r.windows++
		if c < r.min {
			r.min = c
		}
		if c > r.max {
			r.max = c
		}
		if r.windows == 1 {
			r.rate = float64(c)
		} else {
			r.rate += e.cfg.Alpha * (float64(c) - r.rate)
		}
		r.hist[bucketOf(c)]++
	}
}

// Windows reports how many sampling passes (complete observation
// windows) have been recorded.
func (e *Estimator) Windows() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.passes
}

// RunnableBaseline is the recorded baseline of one runnable.
type RunnableBaseline struct {
	// Runnable is the runnable's index in the model.
	Runnable int
	// Windows is how many observation windows included the runnable.
	Windows uint64
	// Min and Max are the exact per-window beat-count extremes.
	Min, Max uint64
	// Rate is the EWMA beats-per-window estimate.
	Rate float64
	// P50 and P95 are conservative (upper-bound) quantiles from the
	// log-bucketed sketch — the confidence band around Rate.
	P50, P95 uint64
}

// Baseline is a point-in-time copy of the estimator's statistics, the
// input to Suggest. Runnables appear in index order, so feeding the
// same Baseline to Suggest twice yields bit-identical proposals.
type Baseline struct {
	WindowCycles int
	Runnables    []RunnableBaseline
}

// quantileLocked returns the sketch's conservative q-quantile (0 < q ≤ 1)
// for one runnable. Callers hold e.mu.
func (r *rstate) quantileLocked(q float64) uint64 {
	if r.windows == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(r.windows)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += r.hist[b]
		if cum >= need {
			// Clamp to the exact observed maximum: the bucket ceiling
			// can overshoot it by nearly 2×.
			if c := bucketCeil(b); c < r.max {
				return c
			}
			return r.max
		}
	}
	return r.max
}

// baselineOfLocked assembles one runnable's baseline. Callers hold e.mu.
func (e *Estimator) baselineOfLocked(i int) RunnableBaseline {
	r := &e.rs[i]
	rb := RunnableBaseline{Runnable: i, Windows: r.windows}
	if r.windows > 0 {
		rb.Min, rb.Max = r.min, r.max
		rb.Rate = r.rate
		rb.P50 = r.quantileLocked(0.50)
		rb.P95 = r.quantileLocked(0.95)
	}
	return rb
}

// RunnableBaseline reports one runnable's baseline; ok is false when
// the index is out of range.
func (e *Estimator) RunnableBaseline(i int) (RunnableBaseline, bool) {
	if i < 0 || i >= len(e.rs) {
		return RunnableBaseline{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.baselineOfLocked(i), true
}

// BaselineInto fills b with the current statistics, reusing
// b.Runnables when it has capacity.
func (e *Estimator) BaselineInto(b *Baseline) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b.WindowCycles = e.cfg.WindowCycles
	n := len(e.rs)
	if cap(b.Runnables) < n {
		b.Runnables = make([]RunnableBaseline, n)
	}
	b.Runnables = b.Runnables[:n]
	for i := 0; i < n; i++ {
		b.Runnables[i] = e.baselineOfLocked(i)
	}
}

// Baseline returns a freshly allocated baseline snapshot.
func (e *Estimator) Baseline() Baseline {
	var b Baseline
	e.BaselineInto(&b)
	return b
}
