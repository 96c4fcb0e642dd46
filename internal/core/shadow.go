package core

import (
	"errors"
	"fmt"
	"sort"

	"swwd/internal/calib"
	"swwd/internal/runnable"
)

// This file holds the two core-side halves of the online calibration
// subsystem (internal/calib):
//
//   - the estimator feed: every Config.EstimatorWindowCycles cycles the
//     per-runnable lifetime beat counts (hotState.beats) are
//     differenced into window counts and handed to a calib.Estimator —
//     on the Cycle caller's goroutine, after the sweep's locks are
//     released, exactly like the metrics sink. The heartbeat hot path
//     is untouched: a healthy beat costs what it did before
//     (pinned by BenchmarkMonitorBeatCalib vs BenchmarkMonitorBeat).
//
//   - the shadow guard: a candidate hypothesis installed with SetShadow
//     is evaluated against the live beat stream in parallel with the
//     active one. Its window deadlines ride the timer wheel
//     (kindShadow), so evaluation is due-cycle work inside the normal
//     sweep, not a second walk; window beat counts are derived as
//     lifetime-beat deltas, so the active hypothesis's AC consumption
//     is never disturbed. A shadow counts would-be faults — it never
//     raises one — and a rollout promotes it only after N consecutive
//     clean windows (ShadowStats.CleanStreak).

// shadowState is the bookkeeping of one shadow hypothesis. Guarded by
// w.mu (the sweep evaluates while holding it).
type shadowState struct {
	hyp        Hypothesis
	startBeats uint64 // lifetime beats at the current window's open
	windows    uint64
	wouldAlive uint64
	wouldArr   uint64
	clean      uint64 // consecutive clean windows
}

// window is the shadow's single due period in cycles.
func (st *shadowState) window() uint64 {
	if st.hyp.AlivenessCycles > 0 {
		return uint64(st.hyp.AlivenessCycles)
	}
	return uint64(st.hyp.ArrivalCycles)
}

// ShadowStats is the verdict of a shadow hypothesis so far.
type ShadowStats struct {
	// Hyp is the candidate under evaluation.
	Hyp Hypothesis
	// Windows is how many shadow windows closed with the runnable
	// active (inactive windows are skipped, not judged).
	Windows uint64
	// WouldAliveness / WouldArrival count windows the candidate would
	// have faulted on. No live fault is ever raised by a shadow.
	WouldAliveness uint64
	WouldArrival   uint64
	// CleanStreak is the current run of consecutive clean windows —
	// the promotion criterion of the staged rollout.
	CleanStreak uint64
}

// ShadowReport is one runnable's shadow verdict, as listed by Shadows.
type ShadowReport struct {
	Runnable runnable.ID
	ShadowStats
}

// errNoShadow is the not-installed sentinel under ShadowVerdict.
var errNoShadow = errors.New("no shadow hypothesis installed")

// SetShadow installs a candidate hypothesis for shadow evaluation,
// replacing any previous candidate (the verdict counters restart). The
// candidate needs a single monitoring window: AlivenessCycles and
// ArrivalCycles must be equal when both are set, and at least one must
// be set. It is Apply with a one-op batch.
func (w *Watchdog) SetShadow(rid runnable.ID, h Hypothesis) error {
	return w.applyOps([]batchOp{{kind: setShadowOp, rid: rid, hyp: h}})
}

// checkShadow checks that a valid hypothesis h can be a shadow
// candidate: it monitors one window.
func checkShadow(rid runnable.ID, h Hypothesis) error {
	if h.AlivenessCycles == 0 && h.ArrivalCycles == 0 {
		return fmt.Errorf("core: SetShadow(%d): candidate monitors nothing", rid)
	}
	if h.AlivenessCycles > 0 && h.ArrivalCycles > 0 && h.AlivenessCycles != h.ArrivalCycles {
		return fmt.Errorf("core: SetShadow(%d): shadow evaluation needs one window, got %d/%d cycles",
			rid, h.AlivenessCycles, h.ArrivalCycles)
	}
	return nil
}

// setShadowLocked is SetShadow on a checked op; a replaced candidate's
// state is reused. Requires w.mu.
func (w *Watchdog) setShadowLocked(rid runnable.ID, h Hypothesis) {
	s := w.sched
	if w.shadows == nil {
		w.shadows = make(map[runnable.ID]*shadowState)
	}
	st, ok := w.shadows[rid]
	if ok {
		s.unschedule(int(rid), kindShadow)
	} else {
		st = new(shadowState)
		w.shadows[rid] = st
	}
	*st = shadowState{hyp: h, startBeats: w.hot[rid].beats.Load()}
	c := w.cycle.Load()
	s.schedule(int(rid), kindShadow, c+st.window(), c)
}

// ClearShadow removes a runnable's shadow hypothesis, if any. It is
// Apply with a one-op batch.
func (w *Watchdog) ClearShadow(rid runnable.ID) error {
	return w.applyOps([]batchOp{{kind: clearShadowOp, rid: rid}})
}

// clearShadowLocked is ClearShadow on a checked op. Requires w.mu.
func (w *Watchdog) clearShadowLocked(rid runnable.ID) {
	if _, ok := w.shadows[rid]; ok {
		w.sched.unschedule(int(rid), kindShadow)
		delete(w.shadows, rid)
	}
}

// ShadowVerdict reports the shadow evaluation of one runnable.
func (w *Watchdog) ShadowVerdict(rid runnable.ID) (ShadowStats, error) {
	if err := w.checkRunnable(rid); err != nil {
		return ShadowStats{}, err
	}
	w.lock()
	defer w.mu.Unlock()
	st, ok := w.shadows[rid]
	if !ok {
		return ShadowStats{}, fmt.Errorf("core: ShadowVerdict(%d): %w", rid, errNoShadow)
	}
	return ShadowStats{
		Hyp:            st.hyp,
		Windows:        st.windows,
		WouldAliveness: st.wouldAlive,
		WouldArrival:   st.wouldArr,
		CleanStreak:    st.clean,
	}, nil
}

// Shadows lists every installed shadow hypothesis and its verdict, in
// ascending runnable order.
func (w *Watchdog) Shadows() []ShadowReport {
	w.lock()
	defer w.mu.Unlock()
	if len(w.shadows) == 0 {
		return nil
	}
	out := make([]ShadowReport, 0, len(w.shadows))
	for rid, st := range w.shadows {
		out = append(out, ShadowReport{Runnable: rid, ShadowStats: ShadowStats{
			Hyp:            st.hyp,
			Windows:        st.windows,
			WouldAliveness: st.wouldAlive,
			WouldArrival:   st.wouldArr,
			CleanStreak:    st.clean,
		}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Runnable < out[j].Runnable })
	return out
}

// sweepShadows judges the shadow windows expiring this cycle. Called
// from cycleWheel while holding w.mu, after the active windows were
// processed. The window's beat count is the lifetime-beat delta since
// the window opened; a racing beat lands in this window or the next,
// exactly as with the active counters. Windows closing while the
// runnable is inactive are skipped:
// they resynchronize the baseline without rendering a verdict.
func (w *Watchdog) sweepShadows(c uint64) {
	s := w.sched
	for _, rid := range s.dueShadow {
		hs := &w.hot[rid]
		w.cold[rid].shadowDue, hs.shadowLoc = 0, locNone // drained: consumed
		st := w.shadows[runnable.ID(rid)]
		if st == nil {
			continue // defensive: due bit without state
		}
		cur := hs.beats.Load()
		if hs.active.Load() != 0 {
			beats := cur - st.startBeats
			st.windows++
			clean := true
			if st.hyp.AlivenessCycles > 0 && beats < uint64(st.hyp.MinHeartbeats) {
				st.wouldAlive++
				clean = false
			}
			if st.hyp.ArrivalCycles > 0 && beats > uint64(st.hyp.MaxArrivals) {
				st.wouldArr++
				clean = false
			}
			if clean {
				st.clean++
			} else {
				st.clean = 0
			}
		}
		st.startBeats = cur
		s.schedule(int(rid), kindShadow, c+st.window(), c)
	}
}

// Estimator returns the online calibration estimator, or nil when
// Config.EstimatorWindowCycles is zero.
func (w *Watchdog) Estimator() *calib.Estimator { return w.est }

// maybeSampleEstimator feeds one observation window to the estimator
// every EstimatorWindowCycles cycles: per-runnable lifetime-beat deltas
// since the previous sample, with inactive runnables excluded. Runs on
// the Cycle caller's goroutine after the sweep released its lock, like
// maybeEmitMetrics; estMu serializes concurrent Cycle callers so the
// deltas stay consistent. The counts are atomic loads and never take
// w.mu, so the O(fleet) read holds off neither the sweep nor treatment.
func (w *Watchdog) maybeSampleEstimator(c uint64) {
	if w.est == nil || c%w.estEvery != 0 {
		return
	}
	w.estMu.Lock()
	defer w.estMu.Unlock()
	if !w.sampleCounts() {
		return
	}
	w.est.SampleWindows(w.estCounts)
}

// sampleCounts reads the lifetime beat counts into estLast and, after
// the first call, their deltas into estCounts. It reports whether
// estCounts holds a window. Callers hold estMu.
func (w *Watchdog) sampleCounts() bool {
	if !w.estPrimed {
		// The first boundary only primes the per-runnable baselines: the
		// window behind it has no known left edge (beats may predate the
		// cycle driver — fleet warm-up traffic) and would inflate the
		// recorded extremes.
		for i := range w.hot {
			w.estLast[i] = w.hot[i].beats.Load()
		}
		w.estPrimed = true
		return false
	}
	for i := range w.hot {
		hs := &w.hot[i]
		cur := hs.beats.Load()
		delta := cur - w.estLast[i]
		w.estLast[i] = cur
		if hs.active.Load() == 0 {
			w.estCounts[i] = calib.SkipWindow
		} else {
			w.estCounts[i] = delta
		}
	}
	return true
}
