package calib

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func sample(e *Estimator, counts ...uint64) { e.SampleWindows(counts) }

func TestEstimatorExtremes(t *testing.T) {
	e := NewEstimator(2, EstimatorConfig{WindowCycles: 5})
	sample(e, 5, 2)
	sample(e, 3, 0)
	sample(e, 7, 4, 9) // a count past the last runnable is ignored
	if e.Windows() != 3 {
		t.Fatalf("Windows = %d, want 3", e.Windows())
	}
	rb, ok := e.RunnableBaseline(0)
	if !ok || rb.Min != 3 || rb.Max != 7 {
		t.Fatalf("runnable 0 baseline = %+v, ok=%v, want min 3 max 7", rb, ok)
	}
	rb, _ = e.RunnableBaseline(1)
	if rb.Min != 0 || rb.Max != 4 {
		t.Fatalf("runnable 1 baseline = %+v, want min 0 max 4", rb)
	}
	if _, ok := e.RunnableBaseline(2); ok {
		t.Error("out-of-range runnable accepted")
	}
}

func TestEstimatorSkipWindow(t *testing.T) {
	e := NewEstimator(2, EstimatorConfig{WindowCycles: 5})
	sample(e, 4, SkipWindow)
	sample(e, 4, SkipWindow)
	rb, _ := e.RunnableBaseline(1)
	if rb.Windows != 0 || rb.Min != 0 || rb.Max != 0 {
		t.Fatalf("skipped runnable accumulated state: %+v", rb)
	}
	rb, _ = e.RunnableBaseline(0)
	if rb.Windows != 2 || rb.Min != 4 || rb.Max != 4 {
		t.Fatalf("sampled runnable baseline = %+v", rb)
	}
}

func TestEstimatorRateFollowsDrift(t *testing.T) {
	e := NewEstimator(1, EstimatorConfig{WindowCycles: 10})
	for i := 0; i < 20; i++ {
		sample(e, 4)
	}
	rb, _ := e.RunnableBaseline(0)
	if math.Abs(rb.Rate-4) > 1e-9 {
		t.Fatalf("steady rate = %v, want 4", rb.Rate)
	}
	// Load doubles: the EWMA converges toward 8 within a few windows.
	for i := 0; i < 30; i++ {
		sample(e, 8)
	}
	rb, _ = e.RunnableBaseline(0)
	if rb.Rate < 7.9 {
		t.Fatalf("post-drift rate = %v, want ~8", rb.Rate)
	}
}

func TestEstimatorQuantiles(t *testing.T) {
	e := NewEstimator(1, EstimatorConfig{WindowCycles: 10})
	// 18 windows of 4 beats, two of 12: P50 must stay in the 4s bucket,
	// P95 must reach the outliers' bucket (clamped to the exact max).
	for i := 0; i < 18; i++ {
		sample(e, 4)
	}
	sample(e, 12)
	sample(e, 12)
	rb, _ := e.RunnableBaseline(0)
	if rb.P50 > 7 {
		t.Fatalf("P50 = %d, want within the [4,8) bucket", rb.P50)
	}
	if rb.P95 != 12 {
		t.Fatalf("P95 = %d, want 12 (bucket ceiling clamped to max)", rb.P95)
	}
}

func TestSuggestRules(t *testing.T) {
	b := Baseline{
		WindowCycles: 5,
		Runnables: []RunnableBaseline{
			{Runnable: 0, Windows: 4, Min: 5, Max: 5},  // proposed: floor(5*0.7)=3, ceil(5*1.3)=7
			{Runnable: 1, Windows: 2, Min: 5, Max: 5},  // too few windows
			{Runnable: 2, Windows: 4, Min: 0, Max: 3},  // silent windows
			{Runnable: 3, Windows: 4, Min: 1, Max: 20}, // floor clamps to 1
			{Runnable: 4, Windows: 3, Min: 4, Max: 6},  // exactly 3 windows: floor(4*0.7)=2, ceil(6*1.3)=8
			{Runnable: 5}, // never observed
		},
	}
	props := Suggest(b, Policy{Margin: 0.3})
	if len(props) != 3 {
		t.Fatalf("got %d proposals, want 3: %+v", len(props), props)
	}
	p := props[0]
	if p.Runnable != 0 || p.Hyp.MinHeartbeats != 3 || p.Hyp.MaxArrivals != 7 {
		t.Fatalf("proposal 0 = %+v, want min 3 max 7", p)
	}
	if p.Hyp.AlivenessCycles != 5 || p.Hyp.ArrivalCycles != 5 {
		t.Fatalf("proposal 0 windows = %+v, want 5/5", p.Hyp)
	}
	if props[1].Runnable != 3 || props[1].Hyp.MinHeartbeats != 1 || props[1].Hyp.MaxArrivals != 26 {
		t.Fatalf("proposal 1 = %+v, want min 1 max 26", props[1])
	}
	if props[2].Runnable != 4 || props[2].Hyp.MinHeartbeats != 2 || props[2].Hyp.MaxArrivals != 8 {
		t.Fatalf("proposal 2 = %+v, want min 2 max 8", props[2])
	}
	for _, m := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if got := Suggest(b, Policy{Margin: m}); got != nil {
			t.Errorf("margin %v produced proposals", m)
		}
	}
}

// TestSuggestDeterminism replays one recorded baseline through Suggest
// twice and requires bit-identical output — the replay property a fleet
// rollout audit depends on.
func TestSuggestDeterminism(t *testing.T) {
	e := NewEstimator(64, EstimatorConfig{WindowCycles: 20})
	for w := 0; w < 8; w++ {
		counts := make([]uint64, 64)
		for i := range counts {
			// A deterministic but irregular load shape.
			counts[i] = uint64(3 + (i*7+w*5)%9)
			if i%13 == 5 {
				counts[i] = SkipWindow
			}
		}
		e.SampleWindows(counts)
	}
	recorded := e.Baseline()
	pol := Policy{Margin: 0.25, MinWindows: 4}
	a := Suggest(recorded, pol)
	b := Suggest(recorded, pol)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Suggest runs over the same baseline differ")
	}
	// Bit-for-bit, including float formatting of every field.
	if fmt.Sprintf("%#v", a) != fmt.Sprintf("%#v", b) {
		t.Fatal("rendered proposals differ")
	}
	if len(a) == 0 {
		t.Fatal("no proposals from a dense baseline")
	}
}

func TestParams(t *testing.T) {
	p := Params{WindowCycles: 50}.WithDefaults()
	if p.Margin != DefaultMargin || p.PromoteAfter != DefaultPromoteAfter || p.CanaryFraction != DefaultCanaryFraction {
		t.Fatalf("defaults not applied: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("defaulted params invalid: %v", err)
	}
	for _, bad := range []Params{
		{WindowCycles: 0, Margin: 0.3, PromoteAfter: 3, CanaryFraction: 0.5},
		{WindowCycles: 10, Margin: -1, PromoteAfter: 3, CanaryFraction: 0.5},
		{WindowCycles: 10, Margin: 1, PromoteAfter: 3, CanaryFraction: 0.5},
		{WindowCycles: 10, Margin: 0.3, PromoteAfter: -1, CanaryFraction: 0.5},
		{WindowCycles: 10, Margin: 0.3, PromoteAfter: 3, CanaryFraction: 1.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("params %+v accepted", bad)
		}
	}
	cc := Params{WindowCycles: 10, CanaryFraction: 0.25}
	for _, tc := range []struct{ n, want int }{{0, 0}, {1, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}} {
		if got := cc.CanaryCount(tc.n); got != tc.want {
			t.Errorf("CanaryCount(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	full := Params{WindowCycles: 10, CanaryFraction: 1}
	if got := full.CanaryCount(4); got != 4 {
		t.Errorf("CanaryCount full fraction = %d, want 4", got)
	}
}

func TestStageString(t *testing.T) {
	for s, want := range map[Stage]string{
		StageIdle: "idle", StageShadow: "shadow", StageCanary: "canary",
		StageFleet: "fleet", StageRolledBack: "rolled_back",
	} {
		if s.String() != want {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}
