package core

import (
	"errors"
	"reflect"
	"testing"

	"swwd/internal/runnable"
)

// TestApplyAllocs pins the configuration path at zero allocations: each
// one-op method, and Apply on a warmed Batch whose hypothesis is
// already interned and whose shadow replaces an installed one.
func TestApplyAllocs(t *testing.T) {
	f := newFixture(t, nil)
	h := Hypothesis{AlivenessCycles: 5, MinHeartbeats: 1, ArrivalCycles: 5, MaxArrivals: 7}
	shadow := Hypothesis{AlivenessCycles: 4, MinHeartbeats: 1}
	if err := f.w.SetHypothesis(f.a, h); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	if err := f.w.SetShadow(f.c, shadow); err != nil {
		t.Fatalf("SetShadow: %v", err)
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"SetHypothesis", func() error { return f.w.SetHypothesis(f.a, h) }},
		{"Activate", func() error { return f.w.Activate(f.a) }},
		{"Deactivate", func() error { return f.w.Deactivate(f.a) }},
		{"SetShadow", func() error { return f.w.SetShadow(f.c, shadow) }},
		{"ClearShadow", func() error { return f.w.ClearShadow(f.b) }},
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	var b Batch
	apply := func() {
		b.Reset()
		for _, rid := range []runnable.ID{f.a, f.b, f.c} {
			b.SetHypothesis(rid, h)
			b.Activate(rid)
		}
		b.Deactivate(f.b)
		b.SetShadow(f.c, shadow)
		b.ClearShadow(f.a)
		if err := f.w.Apply(&b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	apply()
	if allocs := testing.AllocsPerRun(100, apply); allocs != 0 {
		t.Errorf("Apply: %v allocs/op, want 0", allocs)
	}
}

// TestApplyRejectsWholeBatch applies batches whose last op is invalid
// after valid ops that would change every kind of state. Each is
// rejected with that op's error and changes nothing: hypotheses,
// activation, counters, error indication vectors, window bookkeeping
// and wheel deadlines, and shadows read the same before and after, and
// the watchdog then detects exactly what a twin that never saw the
// batches detects.
func TestApplyRejectsWholeBatch(t *testing.T) {
	h := Hypothesis{AlivenessCycles: 3, MinHeartbeats: 2, ArrivalCycles: 3, MaxArrivals: 2}
	shadow := Hypothesis{AlivenessCycles: 4, MinHeartbeats: 1}
	setup := func() *fixture {
		f := newFixture(t, nil)
		f.monitorAll()
		if err := f.w.SetShadow(f.c, shadow); err != nil {
			t.Fatalf("SetShadow: %v", err)
		}
		f.spin(3, func(int) { f.w.Heartbeat(f.a) })
		return f
	}
	f, twin := setup(), setup()
	type row struct {
		hyp   Hypothesis
		c     Counters
		errv  [3]uint64
		alive aliveSched
		cold  coldSched
	}
	state := func() ([]row, []ShadowReport, Results) {
		var rows []row
		for _, rid := range []runnable.ID{f.a, f.b, f.c} {
			var r row
			r.hyp, _ = f.w.Hypothesis(rid)
			r.c, _ = f.w.CounterSnapshot(rid)
			r.errv[0], r.errv[1], r.errv[2], _ = f.w.RunnableErrors(rid)
			r.alive, r.cold = f.w.hot[rid].aliveSched, f.w.cold[rid]
			rows = append(rows, r)
		}
		return rows, f.w.Shadows(), f.w.Results()
	}
	rows, shadows, results := state()
	for _, tc := range []struct {
		name    string
		invalid func(*Batch)
		unknown bool
	}{
		{"unknown runnable", func(b *Batch) { b.Activate(99) }, true},
		{"invalid hypothesis", func(b *Batch) { b.SetHypothesis(f.b, Hypothesis{AlivenessCycles: 2}) }, false},
		{"two-window shadow", func(b *Batch) {
			b.SetShadow(f.a, Hypothesis{AlivenessCycles: 2, MinHeartbeats: 1, ArrivalCycles: 4, MaxArrivals: 1})
		}, false},
		{"shadow monitoring nothing", func(b *Batch) { b.SetShadow(f.a, Hypothesis{}) }, false},
	} {
		var b Batch
		b.SetHypothesis(f.a, h)
		b.Deactivate(f.b)
		b.ClearShadow(f.c)
		b.SetShadow(f.a, shadow)
		b.Activate(f.b)
		tc.invalid(&b)
		err := f.w.Apply(&b)
		if err == nil || errors.Is(err, ErrUnknownRunnable) != tc.unknown {
			t.Fatalf("%s: Apply error %v", tc.name, err)
		}
		r, s, res := state()
		if !reflect.DeepEqual(r, rows) || !reflect.DeepEqual(s, shadows) || res != results {
			t.Fatalf("%s: rejected batch changed the watchdog:\n  before %+v %+v %+v\n  after  %+v %+v %+v", tc.name, rows, shadows, results, r, s, res)
		}
	}
	for _, x := range []*fixture{f, twin} {
		x.spin(12, func(c int) {
			if c%2 == 0 {
				x.w.Heartbeat(x.b)
			}
		})
	}
	if !reflect.DeepEqual(f.sink.faults, twin.sink.faults) || !reflect.DeepEqual(f.w.Shadows(), twin.w.Shadows()) {
		t.Fatalf("after the rejected batches: faults %v shadows %+v, twin %v %+v", f.sink.faults, f.w.Shadows(), twin.sink.faults, twin.w.Shadows())
	}
}
