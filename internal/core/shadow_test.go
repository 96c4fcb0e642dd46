package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"swwd/internal/calib"
	"swwd/internal/runnable"
)

// TestShadowGuardRejectsTooTight is the shadow-guard safety property: a
// candidate hypothesis tighter than the live behaviour accumulates
// would-be faults and never builds a clean streak — and not a single
// live fault is raised while it is evaluated.
func TestShadowGuardRejectsTooTight(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()

	// A beats once per cycle: 5 beats per 5-cycle window. A candidate
	// demanding 8 is too tight.
	tooTight := Hypothesis{AlivenessCycles: 5, MinHeartbeats: 8, ArrivalCycles: 5, MaxArrivals: 9}
	if err := f.w.SetShadow(f.a, tooTight); err != nil {
		t.Fatalf("SetShadow: %v", err)
	}
	f.spin(25, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.c)
	})

	st, err := f.w.ShadowVerdict(f.a)
	if err != nil {
		t.Fatalf("ShadowVerdict: %v", err)
	}
	if st.Windows != 5 {
		t.Fatalf("shadow windows = %d, want 5", st.Windows)
	}
	if st.WouldAliveness != 5 || st.CleanStreak != 0 {
		t.Fatalf("verdict = %+v, want 5 would-aliveness and zero streak", st)
	}
	if got := f.w.Results(); got != (Results{}) {
		t.Fatalf("shadow raised live faults: %+v", got)
	}
	if n := len(f.sink.faults); n != 0 {
		t.Fatalf("sink saw %d reports during shadow evaluation", n)
	}
}

// TestShadowCleanStreakAndPromotion drives a fitting candidate to a
// clean streak, then verifies promotion via SetHypothesis keeps the
// runnable fault-free (the zero-downtime path) and that ClearShadow
// retires the evaluation.
func TestShadowCleanStreak(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()

	fits := Hypothesis{AlivenessCycles: 5, MinHeartbeats: 4, ArrivalCycles: 5, MaxArrivals: 6}
	if err := f.w.SetShadow(f.a, fits); err != nil {
		t.Fatalf("SetShadow: %v", err)
	}
	f.spin(20, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.c)
	})
	st, err := f.w.ShadowVerdict(f.a)
	if err != nil {
		t.Fatalf("ShadowVerdict: %v", err)
	}
	if st.Windows != 4 || st.CleanStreak != 4 || st.WouldAliveness != 0 || st.WouldArrival != 0 {
		t.Fatalf("verdict = %+v, want 4 clean windows", st)
	}
	reports := f.w.Shadows()
	if len(reports) != 1 || reports[0].Runnable != f.a || reports[0].CleanStreak != 4 {
		t.Fatalf("Shadows() = %+v", reports)
	}

	// Promote: apply the candidate live, retire the shadow, keep beating.
	if err := f.w.SetHypothesis(f.a, fits); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	if err := f.w.ClearShadow(f.a); err != nil {
		t.Fatalf("ClearShadow: %v", err)
	}
	if _, err := f.w.ShadowVerdict(f.a); err == nil {
		t.Fatal("verdict survived ClearShadow")
	}
	f.spin(20, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.c)
	})
	if got := f.w.Results(); got != (Results{}) {
		t.Fatalf("promotion caused faults: %+v", got)
	}
}

// TestShadowSkipsInactiveWindows: a deactivated runnable's shadow
// windows render no verdict (and the reactivated stream judges cleanly
// from the resynchronized baseline).
func TestShadowSkipsInactiveWindows(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	if err := f.w.SetShadow(f.a, Hypothesis{AlivenessCycles: 5, MinHeartbeats: 4}); err != nil {
		t.Fatalf("SetShadow: %v", err)
	}
	if err := f.w.Deactivate(f.a); err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	f.spin(20, nil)
	st, _ := f.w.ShadowVerdict(f.a)
	if st.Windows != 0 || st.WouldAliveness != 0 {
		t.Fatalf("inactive runnable was judged: %+v", st)
	}
	if err := f.w.Activate(f.a); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	f.spin(20, func(int) { f.w.Heartbeat(f.a) })
	st, _ = f.w.ShadowVerdict(f.a)
	if st.Windows == 0 || st.WouldAliveness != 0 || st.CleanStreak != st.Windows {
		t.Fatalf("post-reactivation verdict = %+v, want all-clean windows", st)
	}
}

// TestShadowValidation pins the SetShadow argument contract.
func TestShadowValidation(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	if err := f.w.SetShadow(99, Hypothesis{AlivenessCycles: 5, MinHeartbeats: 1}); !errors.Is(err, ErrUnknownRunnable) {
		t.Errorf("unknown runnable: err = %v", err)
	}
	if err := f.w.SetShadow(f.a, Hypothesis{}); err == nil {
		t.Error("monitors-nothing candidate accepted")
	}
	if err := f.w.SetShadow(f.a, Hypothesis{AlivenessCycles: 5, MinHeartbeats: 1, ArrivalCycles: 7, MaxArrivals: 9}); err == nil {
		t.Error("unequal-period candidate accepted")
	}
	if err := f.w.SetShadow(f.a, Hypothesis{AlivenessCycles: -1}); err == nil {
		t.Error("invalid hypothesis accepted")
	}
	if _, err := f.w.ShadowVerdict(f.b); err == nil {
		t.Error("verdict without a shadow installed")
	}
}

// TestShadowSurvivesClearAll: ClearAll rewinds the cycle counter and
// rebuilds the wheel; installed shadows must keep evaluating.
func TestShadowSurvivesClearAll(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	if err := f.w.SetShadow(f.a, Hypothesis{AlivenessCycles: 5, MinHeartbeats: 4}); err != nil {
		t.Fatalf("SetShadow: %v", err)
	}
	f.spin(7, func(int) { f.w.Heartbeat(f.a) })
	f.w.ClearAll()
	f.spin(20, func(int) { f.w.Heartbeat(f.a) })
	st, err := f.w.ShadowVerdict(f.a)
	if err != nil {
		t.Fatalf("ShadowVerdict after ClearAll: %v", err)
	}
	if st.Windows < 4 || st.WouldAliveness != 0 {
		t.Fatalf("post-ClearAll verdict = %+v, want clean windows", st)
	}
}

// TestEstimatorSampling checks the Cycle-driven estimator feed: window
// counts equal the beats recorded between samples, and inactive runnables
// are excluded rather than recorded as silent.
func TestEstimatorSampling(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.EstimatorWindowCycles = 5 })
	f.monitorAll()
	if err := f.w.Deactivate(f.c); err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	f.spin(25, func(int) {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.c) // inactive: not recorded
	})
	est := f.w.Estimator()
	if est == nil {
		t.Fatal("estimator not wired")
	}
	// 25 cycles = 5 window boundaries; the first only primes.
	if est.Windows() != 4 {
		t.Fatalf("estimator windows = %d, want 4", est.Windows())
	}
	rb, _ := est.RunnableBaseline(int(f.a))
	if rb.Min != 5 || rb.Max != 5 || rb.Windows != 4 {
		t.Fatalf("runnable A baseline = %+v, want steady 5", rb)
	}
	rb, _ = est.RunnableBaseline(int(f.b))
	if rb.Min != 10 || rb.Max != 10 {
		t.Fatalf("runnable B baseline = %+v, want steady 10", rb)
	}
	rb, _ = est.RunnableBaseline(int(f.c))
	if rb.Windows != 0 {
		t.Fatalf("inactive runnable C accumulated windows: %+v", rb)
	}

	// The baseline feeds Suggest directly.
	props := calib.Suggest(est.Baseline(), calib.Policy{Margin: 0.3})
	if len(props) != 2 {
		t.Fatalf("got %d proposals, want 2 (A and B): %+v", len(props), props)
	}
	if props[0].Runnable != int(f.a) || props[0].Hyp.MinHeartbeats != 3 || props[0].Hyp.MaxArrivals != 7 {
		t.Fatalf("proposal for A = %+v", props[0])
	}

	// Estimator off → nil accessor, zero extra work.
	off := newFixture(t, nil)
	if off.w.Estimator() != nil {
		t.Fatal("estimator present without EstimatorWindowCycles")
	}
}

// TestSampleCountsWithoutLock pins that the estimator sampler reads the
// lifetime beat counts without the watchdog's lock: it completes, with
// the right window counts, while another goroutine holds w.mu.
func TestSampleCountsWithoutLock(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.EstimatorWindowCycles = 5 })
	f.monitorAll()
	sample := func() bool {
		f.w.estMu.Lock()
		defer f.w.estMu.Unlock()
		return f.w.sampleCounts()
	}
	sample() // primes the baselines
	for i := 0; i < 3; i++ {
		f.w.Heartbeat(f.b)
	}
	f.w.mu.Lock()
	done := make(chan bool)
	go func() { done <- sample() }()
	select {
	case ok := <-done:
		f.w.mu.Unlock()
		if !ok {
			t.Fatal("primed sampler reported no window")
		}
	case <-time.After(5 * time.Second):
		f.w.mu.Unlock()
		<-done
		t.Fatal("sampleCounts waited for the watchdog's lock")
	}
	if got := f.w.estCounts[f.b]; got != 3 {
		t.Fatalf("window count of B = %d, want 3", got)
	}
}

// TestCalibRaceStress exercises the estimator sampling and the shadow
// guard concurrently with beats, cycles, snapshots and verdict reads —
// the satellite race test, meaningful under -race.
func TestCalibRaceStress(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.EstimatorWindowCycles = 3 })
	f.monitorAll()
	if err := f.w.SetShadow(f.a, Hypothesis{AlivenessCycles: 5, MinHeartbeats: 1, ArrivalCycles: 5, MaxArrivals: 50}); err != nil {
		t.Fatalf("SetShadow: %v", err)
	}

	const iters = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, rid := range []runnable.ID{f.a, f.b, f.c} {
		rid := rid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f.w.Heartbeat(rid)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // concurrent Cycle driver (second caller next to spin below)
		defer wg.Done()
		for i := 0; i < iters; i++ {
			f.w.Cycle()
		}
	}()
	wg.Add(1)
	go func() { // snapshot + journal-style scrapes
		defer wg.Done()
		var snap Snapshot
		for i := 0; i < iters; i++ {
			f.w.SnapshotInto(&snap)
			_, _ = f.w.ShadowVerdict(f.a)
			_ = f.w.Shadows()
			if est := f.w.Estimator(); est != nil {
				_ = est.Baseline()
			}
		}
	}()
	wg.Add(1)
	go func() { // shadow churn
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = f.w.SetShadow(f.b, Hypothesis{AlivenessCycles: 4, MinHeartbeats: 1})
			_ = f.w.ClearShadow(f.b)
		}
	}()
	for i := 0; i < iters; i++ {
		f.w.Cycle()
	}
	close(stop)
	wg.Wait()
}
