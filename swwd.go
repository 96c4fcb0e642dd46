// Package swwd is the public API of the Software Watchdog library, a Go
// reproduction of "Application of Software Watchdog as a Dependability
// Software Service for Automotive Safety Relevant Systems" (DSN 2007).
//
// The Software Watchdog monitors individual application components
// (runnables) at run time through three units: heartbeat monitoring
// (aliveness and arrival rate against a per-runnable fault hypothesis),
// program flow checking against a look-up table of allowed
// predecessor/successor pairs, and task state indication deriving task,
// application and ECU health from accumulated error indications.
//
// Two deployment modes are supported:
//
//   - Simulation: the internal packages assemble the paper's full
//     hardware-in-the-loop validator (OSEK scheduler, CAN/FlexRay/Ethernet
//     domains, vehicle plant, error injection) on a deterministic virtual
//     clock; see cmd/validator and cmd/experiments.
//   - Live service: this package's Service drives the same watchdog core
//     from a wall clock so ordinary Go programs can monitor their
//     goroutine "runnables"; see examples/quickstart.
//
// The facade re-exports the core types so downstream users never import
// internal packages directly.
package swwd

import (
	"time"

	"swwd/internal/calib"
	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/sim"
	"swwd/internal/treat"
)

// Re-exported identifier types of the mapping model.
type (
	// RunnableID identifies a runnable within one Model.
	RunnableID = runnable.ID
	// TaskID identifies a task within one Model.
	TaskID = runnable.TaskID
	// AppID identifies an application within one Model.
	AppID = runnable.AppID
	// Criticality classifies dependability requirements.
	Criticality = runnable.Criticality
	// Model maps runnables onto tasks, tasks onto applications.
	Model = runnable.Model
)

// Re-exported criticality levels.
const (
	QM             = runnable.QM
	SafetyRelevant = runnable.SafetyRelevant
	SafetyCritical = runnable.SafetyCritical
)

// Re-exported watchdog types.
type (
	// Watchdog is the Software Watchdog service instance.
	Watchdog = core.Watchdog
	// Monitor is a per-runnable heartbeat handle obtained from
	// Watchdog.Register; its Beat method is the preferred hot-path
	// aliveness indication (lock-free, no bounds checks).
	Monitor = core.Monitor
	// Batch is a list of configuration changes that Watchdog.Apply
	// checks as a whole and makes as one step.
	Batch = core.Batch
	// Config assembles a Watchdog.
	Config = core.Config
	// Hypothesis is the per-runnable fault hypothesis.
	Hypothesis = core.Hypothesis
	// Thresholds are the TSI error-indication-vector limits.
	Thresholds = core.Thresholds
	// Report is one detected error.
	Report = core.Report
	// StateEvent is a derived health-state transition.
	StateEvent = core.StateEvent
	// Sink receives watchdog output.
	Sink = core.Sink
	// ErrorKind classifies detections.
	ErrorKind = core.ErrorKind
	// HealthState is OK or faulty.
	HealthState = core.HealthState
	// Counters is a snapshot of one runnable's monitoring counters.
	Counters = core.Counters
	// Results are the cumulative detection counts.
	Results = core.Results
	// Snapshot is a point-in-time copy of the watchdog's telemetry:
	// per-runnable stats, detection results, journal accounting and the
	// sweep-duration histogram. See Watchdog.Snapshot / SnapshotInto.
	Snapshot = core.Snapshot
	// RunnableStats is the telemetry of one runnable within a Snapshot.
	RunnableStats = core.RunnableStats
	// DriverStats is the cycle-driver telemetry (ticks, missed cycles,
	// overruns) the Service fills into its Snapshot.
	DriverStats = core.DriverStats
	// JournalEntry is one recorded detection with its freeze-frame.
	JournalEntry = core.JournalEntry
	// JournalStats summarizes the fault-event ring.
	JournalStats = core.JournalStats
	// HistogramSnapshot is a copy of a log-bucketed latency histogram.
	HistogramSnapshot = core.HistogramSnapshot
	// Clock abstracts the time source.
	Clock = sim.Clock
	// Estimator is the online calibration estimator: per-runnable
	// arrival-rate EWMA, window extremes and a fixed-size quantile
	// sketch, fed from the lifetime beat counts when the watchdog is
	// configured with WithEstimatorWindow.
	Estimator = calib.Estimator
	// CalibrationBaseline is a recorded estimator baseline, replayable
	// through SuggestHypotheses deterministically.
	CalibrationBaseline = calib.Baseline
	// CalibrationPolicy tunes hypothesis suggestion.
	CalibrationPolicy = calib.Policy
	// CalibrationProposal is one suggested hypothesis with its baseline
	// evidence.
	CalibrationProposal = calib.Proposal
	// CalibrationParams are the operator-facing calibration knobs of the
	// staged fleet rollout (spec file `calibration` section, swwdd
	// -calib-* flags).
	CalibrationParams = calib.Params
	// CalibrationStage is the staged-rollout state (shadow → canary →
	// fleet, with automatic rollback).
	CalibrationStage = calib.Stage
	// ShadowStats is the verdict of a shadow-evaluated candidate
	// hypothesis (would-be fault counts, clean-window streak).
	ShadowStats = core.ShadowStats
	// ShadowReport is one runnable's shadow verdict.
	ShadowReport = core.ShadowReport
	// TreatmentEdge declares one dependency edge of the fault-treatment
	// graph: Node depends on DependsOn.
	TreatmentEdge = treat.Edge
	// TreatmentPolicy tunes the fault-treatment policy engine.
	TreatmentPolicy = treat.Policy
)

// Re-exported enumeration values.
const (
	AlivenessError   = core.AlivenessError
	ArrivalRateError = core.ArrivalRateError
	ProgramFlowError = core.ProgramFlowError

	StateOK     = core.StateOK
	StateFaulty = core.StateFaulty
)

// NewModel creates an empty mapping model.
func NewModel() *Model { return runnable.NewModel() }

// New creates a Watchdog monitoring the runnables of a frozen model,
// configured by functional options. This is the preferred constructor:
//
//	w, err := swwd.New(model,
//	    swwd.WithCyclePeriod(5*time.Millisecond),
//	    swwd.WithSink(myFMF),
//	)
//
// Without WithClock a wall clock starting now is used, which is the right
// default for live services. NewFromConfig remains available for callers
// that assemble a Config struct (e.g. from a Spec file).
func New(model *Model, opts ...Option) (*Watchdog, error) {
	cfg := Config{Model: model}
	for _, opt := range opts {
		opt(&cfg)
	}
	return NewFromConfig(cfg)
}

// NewFromConfig creates a Watchdog from an assembled Config; see
// core.Config for the fields. If Clock is nil a wall clock starting now
// is used.
func NewFromConfig(cfg Config) (*Watchdog, error) {
	if cfg.Clock == nil {
		cfg.Clock = sim.NewWallClock()
	}
	return core.New(cfg)
}

// DefaultThresholds mirror the paper's evaluation setup (threshold 3).
func DefaultThresholds() Thresholds { return core.DefaultThresholds() }

// NewWallClock returns a Clock backed by real time, anchored at now.
func NewWallClock() Clock { return sim.NewWallClock() }

// SuggestHypotheses derives tightened hypothesis proposals from a
// recorded estimator baseline. Pure and deterministic: the same
// (baseline, policy) input always yields the bit-identical proposal
// slice, so rollout decisions can be replayed and audited.
func SuggestHypotheses(b CalibrationBaseline, p CalibrationPolicy) []CalibrationProposal {
	return calib.Suggest(b, p)
}

// CyclePeriodDefault is the monitoring cycle of the paper's plots.
const CyclePeriodDefault = 10 * time.Millisecond

// HistBuckets is the bucket count of a HistogramSnapshot; bucket i spans
// [2^(i-1), 2^i) nanoseconds (see HistBucketBound).
const HistBuckets = core.HistBuckets

// HistBucketBound returns the exclusive upper bound of histogram bucket
// i in nanoseconds.
func HistBucketBound(i int) uint64 { return core.HistBucketBound(i) }
