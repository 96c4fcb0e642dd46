package calib

import "math"

// Hypothesis mirrors the core's per-runnable fault hypothesis without
// importing it (the core imports this package for the estimator, so the
// dependency must point this way). All four fields are watchdog-cycle /
// beat counts; see core.Hypothesis for the field semantics.
type Hypothesis struct {
	AlivenessCycles int
	MinHeartbeats   int
	ArrivalCycles   int
	MaxArrivals     int
}

// DefaultMinWindows is how many observation windows a runnable needs
// before Suggest will propose for it when Policy.MinWindows is zero —
// the long-standing "at least three windows" rule.
const DefaultMinWindows = 3

// Policy is the suggestion policy.
type Policy struct {
	// Margin is the jitter tolerance in [0,1): the aliveness floor is
	// the observed minimum reduced by Margin, the arrival ceiling the
	// observed maximum increased by Margin. 0.3 tolerates 30% jitter
	// around the recorded healthy behaviour.
	Margin float64
	// MinWindows is the observation-window count a runnable needs
	// before it is proposed for; zero means DefaultMinWindows.
	MinWindows uint64
}

// Valid reports whether the policy is usable by Suggest.
func (p Policy) Valid() bool { return p.Margin >= 0 && p.Margin < 1 }

// Proposal is one suggested hypothesis, carrying the baseline evidence
// it was derived from (the confidence band a reviewer — human or the
// shadow guard — judges it by).
type Proposal struct {
	// Runnable is the runnable's index in the model.
	Runnable int
	// Hyp is the proposed hypothesis: both monitoring periods equal the
	// baseline's observation window.
	Hyp Hypothesis
	// Windows/Min/Max/Rate/P50/P95 are the baseline evidence.
	Windows  uint64
	Min, Max uint64
	Rate     float64
	P50, P95 uint64
}

// Suggest derives tightened hypothesis proposals from a recorded
// baseline. It is pure and deterministic: no clocks, no map iteration —
// the same (baseline, policy) input always yields the bit-identical
// proposal slice, so a rollout decision can be replayed and audited
// like a treatment trace (treat.Replay).
//
// A runnable is skipped when it has fewer than MinWindows observation
// windows, or when any window was silent (Min == 0: aliveness
// monitoring would false-positive on the recorded behaviour). An
// invalid policy yields no proposals.
func Suggest(b Baseline, p Policy) []Proposal {
	if !p.Valid() {
		return nil
	}
	minW := p.MinWindows
	if minW == 0 {
		minW = DefaultMinWindows
	}
	var out []Proposal
	for _, rb := range b.Runnables {
		if rb.Windows < minW || rb.Min == 0 {
			continue
		}
		floor := int(math.Floor(float64(rb.Min) * (1 - p.Margin)))
		if floor < 1 {
			floor = 1
		}
		ceiling := int(math.Ceil(float64(rb.Max) * (1 + p.Margin)))
		if ceiling < floor {
			ceiling = floor
		}
		out = append(out, Proposal{
			Runnable: rb.Runnable,
			Hyp: Hypothesis{
				AlivenessCycles: b.WindowCycles,
				MinHeartbeats:   floor,
				ArrivalCycles:   b.WindowCycles,
				MaxArrivals:     ceiling,
			},
			Windows: rb.Windows,
			Min:     rb.Min,
			Max:     rb.Max,
			Rate:    rb.Rate,
			P50:     rb.P50,
			P95:     rb.P95,
		})
	}
	return out
}
