package calib

import "fmt"

// Stage is the staged-rollout state machine driven by the fleet
// calibration loop (fleet.CalibController):
//
//	Idle ──suggest──▶ Shadow ──N clean windows──▶ Canary ──hold clean──▶ Fleet ──all acks──▶ Idle (round++)
//	                    │                            │
//	                    └──persistent would-faults───┤──canary fault counters moved──▶ RolledBack ──▶ Idle
//	                         (candidate rejected)
//
// Shadow never touches the active hypothesis; Canary applies the
// candidate to a deterministic node subset (recording the prior
// hypothesis for rollback); Fleet extends it to every remaining node.
// Each applying stage batches CmdSetHypothesis over the command channel
// with per-node ack accounting and re-sends until acks land.
type Stage uint8

const (
	// StageIdle: no rollout in flight; the loop periodically snapshots
	// the estimator baseline and runs Suggest.
	StageIdle Stage = iota
	// StageShadow: candidates installed as shadow hypotheses, counting
	// would-be faults against the live beat stream; promotable after
	// Params.PromoteAfter consecutive clean windows per runnable.
	StageShadow
	// StageCanary: candidates active on the canary node subset, prior
	// hypotheses recorded; any movement of a canary fault counter rolls
	// back.
	StageCanary
	// StageFleet: candidates applied fleet-wide; the stage completes
	// when every node's command ack has landed.
	StageFleet
	// StageRolledBack: the canary regressed and the prior hypotheses
	// were restored; transient, returns to Idle on the next tick.
	StageRolledBack
)

// String renders the stage for status endpoints and logs.
func (s Stage) String() string {
	switch s {
	case StageIdle:
		return "idle"
	case StageShadow:
		return "shadow"
	case StageCanary:
		return "canary"
	case StageFleet:
		return "fleet"
	case StageRolledBack:
		return "rolled_back"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Default knob values (Params.WithDefaults).
const (
	DefaultMargin         = 0.3
	DefaultPromoteAfter   = 3
	DefaultCanaryFraction = 0.25
)

// Params are the operator-facing calibration knobs, shared by the
// swwdd flags and the spec file's `calibration` section.
type Params struct {
	// WindowCycles is the estimator observation window (and shadow
	// window, and the monitoring period of every proposed hypothesis)
	// in watchdog cycles. Required.
	WindowCycles int
	// Margin is the suggestion jitter tolerance in [0,1); zero selects
	// DefaultMargin (a truly zero-margin hypothesis would flap on the
	// first jittery window anyway).
	Margin float64
	// PromoteAfter is how many consecutive clean shadow windows promote
	// a candidate to canary, and how many windows the canary is held
	// before going fleet-wide; zero selects DefaultPromoteAfter.
	PromoteAfter int
	// CanaryFraction is the node fraction of the canary stage in (0,1];
	// zero selects DefaultCanaryFraction. At least one node is always
	// canaried.
	CanaryFraction float64
}

// WithDefaults fills zero knobs with their defaults.
func (p Params) WithDefaults() Params {
	if p.Margin == 0 {
		p.Margin = DefaultMargin
	}
	if p.PromoteAfter == 0 {
		p.PromoteAfter = DefaultPromoteAfter
	}
	if p.CanaryFraction == 0 {
		p.CanaryFraction = DefaultCanaryFraction
	}
	return p
}

// Validate checks the knobs after defaulting.
func (p Params) Validate() error {
	if p.WindowCycles <= 0 {
		return fmt.Errorf("calib: WindowCycles %d must be positive", p.WindowCycles)
	}
	if p.Margin < 0 || p.Margin >= 1 {
		return fmt.Errorf("calib: Margin %v must be in [0,1)", p.Margin)
	}
	if p.PromoteAfter < 0 {
		return fmt.Errorf("calib: PromoteAfter %d must be non-negative", p.PromoteAfter)
	}
	if p.CanaryFraction < 0 || p.CanaryFraction > 1 {
		return fmt.Errorf("calib: CanaryFraction %v must be in [0,1]", p.CanaryFraction)
	}
	return nil
}

// CanaryCount is the canary subset size for a fleet of n nodes: at
// least one node, at most all of them, deterministically derived so a
// replayed rollout picks the identical subset.
func (p Params) CanaryCount(n int) int {
	if n <= 0 {
		return 0
	}
	c := int(float64(n) * p.CanaryFraction)
	if float64(c) < float64(n)*p.CanaryFraction {
		c++ // ceil without pulling in math for the common fractional case
	}
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}
