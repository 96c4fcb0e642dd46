package core

import (
	"testing"

	"swwd/internal/calib"
	"swwd/internal/runnable"
)

// Calibration runs online: a watchdog built with EstimatorWindowCycles
// feeds one observation window per period to its calib.Estimator, and
// calib.Suggest turns the recorded baseline into hypotheses. These tests
// drive that path end to end through the watchdog.

// looseHyp supervises while observing: no beat count below exceeds it,
// though a silent window still raises an aliveness error.
func looseHyp(window int) Hypothesis {
	return Hypothesis{AlivenessCycles: window, MinHeartbeats: 1, ArrivalCycles: window, MaxArrivals: 1000}
}

// newObserver builds a fixture with the estimator on, activates rids
// under looseHyp and runs the priming window the estimator discards, so
// the next window is the first recorded one.
func newObserver(t *testing.T, window int, rids ...func(*fixture) runnable.ID) *fixture {
	t.Helper()
	f := newFixture(t, func(c *Config) { c.EstimatorWindowCycles = window })
	for _, rid := range rids {
		id := rid(f)
		if err := f.w.SetHypothesis(id, looseHyp(window)); err != nil {
			t.Fatalf("SetHypothesis: %v", err)
		}
		if err := f.w.Activate(id); err != nil {
			t.Fatalf("Activate: %v", err)
		}
	}
	f.spin(window, nil)
	return f
}

func runnableA(f *fixture) runnable.ID { return f.a }
func runnableB(f *fixture) runnable.ID { return f.b }

// observeWindow delivers beats heartbeats to rid, then closes one
// observation window.
func (f *fixture) observeWindow(rid runnable.ID, beats, window int) {
	for b := 0; b < beats; b++ {
		f.w.Heartbeat(rid)
	}
	f.spin(window, nil)
}

func baselineOf(t *testing.T, f *fixture, rid runnable.ID) calib.RunnableBaseline {
	t.Helper()
	rb, ok := f.w.Estimator().RunnableBaseline(int(rid))
	if !ok {
		t.Fatalf("no baseline for runnable %d", rid)
	}
	return rb
}

// suggestFor runs Suggest over the watchdog's baseline and returns the
// proposal for rid, if any.
func suggestFor(f *fixture, rid runnable.ID, margin float64) (calib.Proposal, bool) {
	for _, p := range calib.Suggest(f.w.Estimator().Baseline(), calib.Policy{Margin: margin}) {
		if p.Runnable == int(rid) {
			return p, true
		}
	}
	return calib.Proposal{}, false
}

func TestCalibratorObservesExtremes(t *testing.T) {
	f := newObserver(t, 5, runnableA)
	// Window 1: 5 beats; window 2: 3 beats; window 3: 7 beats.
	for _, n := range []int{5, 3, 7} {
		f.observeWindow(f.a, n, 5)
	}
	rb := baselineOf(t, f, f.a)
	if rb.Min != 3 || rb.Max != 7 {
		t.Fatalf("observed = %d..%d, want 3..7", rb.Min, rb.Max)
	}
	if rb.Windows != 3 || f.w.Estimator().Windows() != 3 {
		t.Fatalf("Windows = %d (estimator %d), want 3", rb.Windows, f.w.Estimator().Windows())
	}
	// An inactive runnable takes no part in the windows.
	if rb := baselineOf(t, f, f.b); rb.Windows != 0 {
		t.Fatalf("inactive runnable recorded %d windows", rb.Windows)
	}
}

func TestCalibratorSuggest(t *testing.T) {
	f := newObserver(t, 5, runnableA)
	for w := 0; w < 4; w++ {
		f.observeWindow(f.a, 5, 5)
	}
	p, ok := suggestFor(f, f.a, 0.3)
	if !ok {
		t.Fatal("no proposal after four healthy windows")
	}
	h := Hypothesis{
		AlivenessCycles: p.Hyp.AlivenessCycles,
		MinHeartbeats:   p.Hyp.MinHeartbeats,
		ArrivalCycles:   p.Hyp.ArrivalCycles,
		MaxArrivals:     p.Hyp.MaxArrivals,
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("suggested hypothesis invalid: %v", err)
	}
	// min=max=5, margin 0.3: floor(5*0.7)=3, ceil(5*1.3)=7.
	if h.MinHeartbeats != 3 || h.MaxArrivals != 7 {
		t.Fatalf("suggested = %+v, want min 3 max 7", h)
	}
	if h.AlivenessCycles != 5 || h.ArrivalCycles != 5 {
		t.Fatalf("suggested windows = %+v", h)
	}
	// The suggestion is consistent with the observed behaviour: feeding
	// the same pattern to the watchdog now supervising with it yields
	// nothing. (The silent priming window already counted against the
	// loose hypothesis, so compare against the count before the switch.)
	if err := f.w.SetHypothesis(f.a, h); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	before := f.w.Results()
	f.spin(25, func(int) { f.w.Heartbeat(f.a) })
	if got := f.w.Results(); got != before {
		t.Fatalf("calibrated hypothesis false-positives: %+v, before %+v", got, before)
	}
	// But silence is detected.
	f.spin(5, nil)
	if got := f.w.Results(); got.Aliveness == before.Aliveness {
		t.Fatal("calibrated hypothesis missed silence")
	}
}

func TestCalibratorSuggestErrors(t *testing.T) {
	f := newObserver(t, 5, runnableA, runnableB)
	if _, ok := suggestFor(f, f.a, 0.3); ok {
		t.Error("suggestion without observations accepted")
	}
	if _, ok := f.w.Estimator().RunnableBaseline(99); ok {
		t.Error("unknown runnable accepted")
	}
	// Two windows only: still refused. b beats in every other window, so
	// its recorded minimum is a silent window.
	for w := 0; w < 2; w++ {
		f.w.Heartbeat(f.a)
		if w%2 == 0 {
			f.w.Heartbeat(f.b)
		}
		f.spin(5, nil)
	}
	if _, ok := suggestFor(f, f.a, 0.3); ok {
		t.Error("two windows accepted, need three")
	}
	for w := 2; w < 4; w++ {
		f.w.Heartbeat(f.a)
		if w%2 == 0 {
			f.w.Heartbeat(f.b)
		}
		f.spin(5, nil)
	}
	if _, ok := suggestFor(f, f.a, 0.3); !ok {
		t.Error("four healthy windows refused")
	}
	// Margins outside [0,1) yield nothing.
	for _, m := range []float64{-0.1, 1} {
		if _, ok := suggestFor(f, f.a, m); ok {
			t.Errorf("margin %v accepted", m)
		}
	}
	// A runnable with silent windows is refused (monitoring would flap).
	if rb := baselineOf(t, f, f.b); rb.Windows != 4 || rb.Min != 0 {
		t.Fatalf("b baseline = %+v, want 4 windows with a silent one", rb)
	}
	if _, ok := suggestFor(f, f.b, 0.3); ok {
		t.Error("silent-window runnable accepted")
	}
}

func TestCalibratorIgnoresUnknownHeartbeats(t *testing.T) {
	f := newObserver(t, 2, runnableA)
	f.w.Heartbeat(runnable.ID(-1))
	f.w.Heartbeat(runnable.ID(99))
	f.spin(2, nil)
	rb := baselineOf(t, f, f.a)
	if rb.Windows != 1 || rb.Min != 0 || rb.Max != 0 {
		t.Fatalf("baseline = %+v, want one empty window", rb)
	}
	for _, rid := range []runnable.ID{f.b, f.c} {
		if rb := baselineOf(t, f, rid); rb.Windows != 0 || rb.Max != 0 {
			t.Fatalf("runnable %d baseline = %+v, want none", rid, rb)
		}
	}
}
