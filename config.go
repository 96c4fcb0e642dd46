package swwd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"swwd/internal/treat"
)

// Spec is the JSON-loadable configuration of a monitored system: the
// application/task/runnable mapping plus the watchdog settings. It lets
// deployments describe the fault hypotheses and flow tables declaratively
// (the equivalent of the paper's design-time configuration of the
// service).
type Spec struct {
	Apps     []AppSpec    `json:"apps"`
	Watchdog WatchdogSpec `json:"watchdog"`
	// Treatment, when present, declares the fleet fault-treatment
	// policy (cmd/swwdd reads it; the in-process watchdog ignores it).
	Treatment *TreatmentSpec `json:"treatment,omitempty"`
	// Calibration, when present, declares the online auto-calibration
	// policy (cmd/swwdd reads it; the in-process watchdog ignores it).
	Calibration *CalibrationSpec `json:"calibration,omitempty"`
}

// AppSpec describes one application software component.
type AppSpec struct {
	Name string `json:"name"`
	// Criticality is "QM", "safety-relevant" or "safety-critical".
	Criticality string     `json:"criticality"`
	Tasks       []TaskSpec `json:"tasks"`
}

// TaskSpec describes one task.
type TaskSpec struct {
	Name      string         `json:"name"`
	Priority  int            `json:"priority"`
	Runnables []RunnableSpec `json:"runnables"`
	// Flow, when true, installs the straight-line runnable order (with
	// wrap-around) into the program-flow look-up table.
	Flow bool `json:"flow,omitempty"`
}

// RunnableSpec describes one runnable and its fault hypothesis.
type RunnableSpec struct {
	Name string `json:"name"`
	// ExecTime is a Go duration string ("200us").
	ExecTime string `json:"exec_time"`
	// Criticality defaults to the application's.
	Criticality string `json:"criticality,omitempty"`
	// Hypothesis enables heartbeat monitoring when present.
	Hypothesis *HypothesisSpec `json:"hypothesis,omitempty"`
}

// HypothesisSpec is the JSON form of a fault hypothesis.
type HypothesisSpec struct {
	AlivenessCycles int `json:"aliveness_cycles"`
	MinHeartbeats   int `json:"min_heartbeats"`
	ArrivalCycles   int `json:"arrival_cycles"`
	MaxArrivals     int `json:"max_arrivals"`
}

// WatchdogSpec is the JSON form of the watchdog settings.
type WatchdogSpec struct {
	// CyclePeriod is a Go duration string; empty means 10ms.
	CyclePeriod string `json:"cycle_period,omitempty"`
	// Thresholds default to 3/3/3 when zero.
	AlivenessThreshold   int  `json:"aliveness_threshold,omitempty"`
	ArrivalRateThreshold int  `json:"arrival_rate_threshold,omitempty"`
	ProgramFlowThreshold int  `json:"program_flow_threshold,omitempty"`
	EagerArrivalCheck    bool `json:"eager_arrival_check,omitempty"`
	DisableCorrelation   bool `json:"disable_correlation,omitempty"`
	ECUFaultyAppCount    int  `json:"ecu_faulty_app_count,omitempty"`
	// JournalSize is the fault-event journal capacity in entries,
	// rounded up to a power of two (0 = default 256, negative =
	// disabled, at most 1<<20; see WithJournalSize).
	JournalSize int `json:"journal_size,omitempty"`
}

// TreatmentSpec is the JSON form of the fleet fault-treatment policy:
// the dependency graph over node IDs plus the engine knobs.
type TreatmentSpec struct {
	// Edges declare the dependency graph: each entry means Node depends
	// on DependsOn, so a fault on DependsOn scales Node down.
	Edges []TreatmentEdgeSpec `json:"edges,omitempty"`
	// RecoveryFrames is the quarantine grace: how many consecutive
	// heartbeat frames a quarantined node must deliver before it is
	// resumed. Zero means the engine default.
	RecoveryFrames int `json:"recovery_frames,omitempty"`
	// ScaleDown selects the dependent-handling policy: "dependents"
	// (default — dependents of a quarantined node are scaled down) or
	// "off" (quarantine only).
	ScaleDown string `json:"scale_down,omitempty"`
	// RestartDependents, when true, sends a restart-runnables command
	// to each dependent as it is scaled back up after recovery.
	RestartDependents bool `json:"restart_dependents,omitempty"`
}

// TreatmentEdgeSpec is one dependency edge in JSON form.
type TreatmentEdgeSpec struct {
	Node      uint32 `json:"node"`
	DependsOn uint32 `json:"depends_on"`
}

// LoadTreatment parses a standalone TreatmentSpec document from JSON.
// Parse and validation failures wrap ErrTreatmentSpec.
func LoadTreatment(r io.Reader) (*TreatmentSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var ts TreatmentSpec
	if err := dec.Decode(&ts); err != nil {
		return nil, fmt.Errorf("%w: parse: %w", ErrTreatmentSpec, err)
	}
	return &ts, nil
}

// Treatment validates the spec against a fleet of nodes node IDs
// (0..nodes-1) and returns the dependency edges and the engine policy.
// Malformed knobs and structurally invalid edge lists (unknown node,
// self-dependency, duplicate edge, cycle) wrap ErrTreatmentSpec; the
// structural failures additionally match their specific sentinel
// (ErrTreatmentCycle and friends) via errors.Is.
func (ts *TreatmentSpec) Treatment(nodes int) ([]TreatmentEdge, TreatmentPolicy, error) {
	var pol TreatmentPolicy
	if ts.RecoveryFrames < 0 {
		return nil, pol, fmt.Errorf("%w: recovery_frames must not be negative", ErrTreatmentSpec)
	}
	pol.RecoveryFrames = ts.RecoveryFrames
	pol.RestartDependents = ts.RestartDependents
	switch ts.ScaleDown {
	case "", "dependents":
	case "off":
		pol.DisableScaleDown = true
	default:
		return nil, pol, fmt.Errorf("%w: unknown scale_down mode %q (want \"dependents\" or \"off\")", ErrTreatmentSpec, ts.ScaleDown)
	}
	edges := make([]TreatmentEdge, len(ts.Edges))
	ids := make([]uint32, nodes)
	for i := range ids {
		ids[i] = uint32(i)
	}
	for i, e := range ts.Edges {
		edges[i] = TreatmentEdge{Node: e.Node, DependsOn: e.DependsOn}
	}
	// Building the graph is the structural validation: it reports
	// unknown nodes, self-dependencies, duplicates and cycles.
	if _, err := treat.NewGraph(ids, edges); err != nil {
		return nil, pol, fmt.Errorf("%w: %w", ErrTreatmentSpec, err)
	}
	return edges, pol, nil
}

// CalibrationSpec is the JSON form of the online auto-calibration
// policy: the estimator/shadow window, the suggestion margin and the
// staged-rollout knobs.
type CalibrationSpec struct {
	// WindowCycles is the observation window of the online estimator and
	// the shadow evaluation, in watchdog cycles. Required (positive):
	// the window is deployment-specific — it must span several expected
	// heartbeats — so there is no safe global default.
	WindowCycles int `json:"window_cycles,omitempty"`
	// Margin widens the suggested hypothesis around the observed
	// min/max beat counts (0.3 = 30% slack). Zero means the default;
	// must stay in [0, 1).
	Margin float64 `json:"margin,omitempty"`
	// PromoteAfter is how many consecutive clean shadow windows a
	// candidate needs before the rollout promotes it. Zero means the
	// default.
	PromoteAfter int `json:"promote_after,omitempty"`
	// CanaryFraction is the share of fleet nodes that canary a promoted
	// candidate before fleet-wide extension (0.25 = a quarter, at least
	// one node). Zero means the default; must stay in (0, 1].
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
}

// LoadCalibration parses a standalone CalibrationSpec document from
// JSON. Parse failures wrap ErrCalibrationSpec.
func LoadCalibration(r io.Reader) (*CalibrationSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cs CalibrationSpec
	if err := dec.Decode(&cs); err != nil {
		return nil, fmt.Errorf("%w: parse: %w", ErrCalibrationSpec, err)
	}
	return &cs, nil
}

// Params validates the spec and returns the defaulted calibration
// parameters. Malformed knobs wrap ErrCalibrationSpec.
func (cs *CalibrationSpec) Params() (CalibrationParams, error) {
	p := CalibrationParams{
		WindowCycles:   cs.WindowCycles,
		Margin:         cs.Margin,
		PromoteAfter:   cs.PromoteAfter,
		CanaryFraction: cs.CanaryFraction,
	}.WithDefaults()
	if err := p.Validate(); err != nil {
		return CalibrationParams{}, fmt.Errorf("%w: %w", ErrCalibrationSpec, err)
	}
	return p, nil
}

// LoadSpec parses a Spec from JSON.
func LoadSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("swwd: parse spec: %w", err)
	}
	if len(s.Apps) == 0 {
		return nil, errors.New("swwd: spec has no applications")
	}
	return &s, nil
}

func parseCriticality(s, fallback string) (Criticality, error) {
	if s == "" {
		s = fallback
	}
	switch s {
	case "QM", "qm", "":
		return QM, nil
	case "safety-relevant":
		return SafetyRelevant, nil
	case "safety-critical":
		return SafetyCritical, nil
	default:
		return 0, fmt.Errorf("swwd: unknown criticality %q", s)
	}
}

// System is the result of building a Spec: the frozen model, the
// configured watchdog, and name-based lookups for heartbeat call sites.
type System struct {
	Model    *Model
	Watchdog *Watchdog

	runnables map[string]RunnableID
	tasks     map[string]TaskID
	apps      map[string]AppID
}

// Runnable resolves a runnable name from the spec.
func (s *System) Runnable(name string) (RunnableID, bool) {
	id, ok := s.runnables[name]
	return id, ok
}

// Task resolves a task name from the spec.
func (s *System) Task(name string) (TaskID, bool) {
	id, ok := s.tasks[name]
	return id, ok
}

// App resolves an application name from the spec.
func (s *System) App(name string) (AppID, bool) {
	id, ok := s.apps[name]
	return id, ok
}

// Heartbeat reports a heartbeat by runnable name; unknown names are
// ignored (matching Watchdog.Heartbeat's tolerance of unknown IDs).
func (s *System) Heartbeat(name string) {
	if id, ok := s.runnables[name]; ok {
		s.Watchdog.Heartbeat(id)
	}
}

// Build constructs the model and watchdog described by the spec. The
// clock may be nil for a wall clock; sink may be nil to discard output.
func (s *Spec) Build(clock Clock, sink Sink) (*System, error) {
	sys := &System{
		runnables: make(map[string]RunnableID),
		tasks:     make(map[string]TaskID),
		apps:      make(map[string]AppID),
	}
	model := NewModel()
	var hyps Batch // every runnable with a hypothesis: set it, then activate
	var flows [][]RunnableID
	for _, as := range s.Apps {
		appCrit, err := parseCriticality(as.Criticality, "")
		if err != nil {
			return nil, fmt.Errorf("swwd: app %q: %w", as.Name, err)
		}
		app, err := model.AddApp(as.Name, appCrit)
		if err != nil {
			return nil, fmt.Errorf("swwd: app %q: %w", as.Name, err)
		}
		if _, dup := sys.apps[as.Name]; dup {
			return nil, fmt.Errorf("swwd: duplicate app %q", as.Name)
		}
		sys.apps[as.Name] = app
		for _, ts := range as.Tasks {
			task, err := model.AddTask(app, ts.Name, ts.Priority)
			if err != nil {
				return nil, fmt.Errorf("swwd: task %q: %w", ts.Name, err)
			}
			if _, dup := sys.tasks[ts.Name]; dup {
				return nil, fmt.Errorf("swwd: duplicate task %q", ts.Name)
			}
			sys.tasks[ts.Name] = task
			var seq []RunnableID
			for _, rs := range ts.Runnables {
				exec, err := time.ParseDuration(rs.ExecTime)
				if err != nil {
					return nil, fmt.Errorf("swwd: runnable %q exec_time: %w", rs.Name, err)
				}
				crit, err := parseCriticality(rs.Criticality, as.Criticality)
				if err != nil {
					return nil, fmt.Errorf("swwd: runnable %q: %w", rs.Name, err)
				}
				rid, err := model.AddRunnable(task, rs.Name, exec, crit)
				if err != nil {
					return nil, fmt.Errorf("swwd: runnable %q: %w", rs.Name, err)
				}
				sys.runnables[rs.Name] = rid
				seq = append(seq, rid)
				if rs.Hypothesis != nil {
					hyps.SetHypothesis(rid, Hypothesis{
						AlivenessCycles: rs.Hypothesis.AlivenessCycles,
						MinHeartbeats:   rs.Hypothesis.MinHeartbeats,
						ArrivalCycles:   rs.Hypothesis.ArrivalCycles,
						MaxArrivals:     rs.Hypothesis.MaxArrivals,
					})
					hyps.Activate(rid)
				}
			}
			if ts.Flow {
				if len(seq) < 2 {
					return nil, fmt.Errorf("swwd: task %q: flow needs at least two runnables", ts.Name)
				}
				flows = append(flows, seq)
			}
		}
	}
	if err := model.Freeze(); err != nil {
		return nil, fmt.Errorf("swwd: %w", err)
	}

	cyclePeriod := time.Duration(0)
	if s.Watchdog.CyclePeriod != "" {
		var err error
		cyclePeriod, err = time.ParseDuration(s.Watchdog.CyclePeriod)
		if err != nil {
			return nil, fmt.Errorf("swwd: cycle_period: %w", err)
		}
	}
	thresholds := Thresholds{
		Aliveness:   s.Watchdog.AlivenessThreshold,
		ArrivalRate: s.Watchdog.ArrivalRateThreshold,
		ProgramFlow: s.Watchdog.ProgramFlowThreshold,
	}
	if thresholds == (Thresholds{}) {
		thresholds = DefaultThresholds()
	} else {
		// Fill unset members with the default 3 so partial specs work.
		if thresholds.Aliveness == 0 {
			thresholds.Aliveness = 3
		}
		if thresholds.ArrivalRate == 0 {
			thresholds.ArrivalRate = 3
		}
		if thresholds.ProgramFlow == 0 {
			thresholds.ProgramFlow = 3
		}
	}
	w, err := NewFromConfig(Config{
		Model:              model,
		Clock:              clock,
		Sink:               sink,
		CyclePeriod:        cyclePeriod,
		Thresholds:         thresholds,
		EagerArrivalCheck:  s.Watchdog.EagerArrivalCheck,
		DisableCorrelation: s.Watchdog.DisableCorrelation,
		ECUFaultyAppCount:  s.Watchdog.ECUFaultyAppCount,
		JournalSize:        s.Watchdog.JournalSize,
	})
	if err != nil {
		return nil, err
	}
	if err := w.Apply(&hyps); err != nil {
		return nil, err
	}
	for _, seq := range flows {
		if err := w.AddFlowSequence(seq...); err != nil {
			return nil, err
		}
	}
	sys.Model = model
	sys.Watchdog = w
	return sys, nil
}
