// Fleet assembly: a declarative helper that builds the model, watchdog
// and ingestion server for a uniform fleet of remote reporter nodes —
// the deployment shape of a dedicated health-monitoring ECU aggregating
// aliveness across the in-vehicle network. cmd/swwdd and the loopback
// soak test share this code path.
package ingest

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/sim"
	"swwd/internal/treat"
)

// FleetConfig describes a uniform fleet: Nodes remote nodes, each
// reporting RunnablesPerNode runnables and flushing one frame every
// Interval.
type FleetConfig struct {
	// Nodes is the number of remote reporter nodes (must be positive).
	Nodes int
	// RunnablesPerNode is the monitored runnable count per node (must be
	// positive).
	RunnablesPerNode int
	// Interval is the declared per-node frame flush cadence. Zero means
	// 100ms.
	Interval time.Duration
	// CyclePeriod is the watchdog monitoring cycle. Zero means 10ms.
	CyclePeriod time.Duration
	// BeatsPerWindow is the MinHeartbeats each remote runnable must
	// deliver per aliveness window (the window spans GraceFrames flush
	// intervals, like the link hypothesis). Zero means 1.
	BeatsPerWindow int
	// GraceFrames, Shards, QueueLen, MaxPacket, ReadBuffer, Listeners
	// and BatchSize configure the Server (see Config).
	GraceFrames int
	Shards      int
	QueueLen    int
	MaxPacket   int
	ReadBuffer  int
	Listeners   int
	BatchSize   int
	// JournalSize forwards to core.Config.JournalSize.
	JournalSize int
	// Sink receives watchdog output; nil discards.
	Sink core.Sink
	// Clock defaults to a wall clock.
	Clock sim.Clock
	// Treatment, when non-nil, enables the fault-treatment control
	// plane: link aliveness faults quarantine the node and scale down
	// its dependents per the declared edges, and resumed heartbeats
	// expedite recovery. Fleet.Treat exposes the controller.
	Treatment *TreatmentConfig
	// CommandEpoch forwards to Config.CommandEpoch (zero derives it
	// from the wall clock).
	CommandEpoch uint64
	// Calibration, when non-nil, enables the online auto-calibration
	// loop: the watchdog's estimator records per-runnable baselines and
	// the Fleet.Calib controller drives shadow-guarded, staged
	// hypothesis rollouts over the command channel.
	Calibration *CalibrationConfig
}

// Fleet is an assembled fleet system: the frozen model, the configured
// watchdog, the ingestion server with every node registered, and the
// name/ID tables the metrics exporter needs.
type Fleet struct {
	Model    *runnable.Model
	Watchdog *core.Watchdog
	Server   *Server
	// Specs[i] is the registration of node ID i (0-based node IDs).
	Specs []NodeSpec
	// Names[rid] is the runnable name for metric labels.
	Names []string
	// Treat is the fault-treatment controller; nil unless
	// FleetConfig.Treatment was set. Callers own its Close.
	Treat *treat.Controller
	// Calib is the calibration controller; nil unless
	// FleetConfig.Calibration was set. Callers own its Close.
	Calib *CalibController
}

// BuildFleet assembles the model (one application, one task per node,
// RunnablesPerNode monitored runnables plus one link runnable per
// node), creates the watchdog, derives and installs every hypothesis,
// and registers all nodes with a new ingestion server. The server is
// not yet listening: call Fleet.Server.Listen, then drive
// Fleet.Watchdog.Cycle (e.g. via swwd.Service).
func BuildFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Nodes <= 0 || cfg.RunnablesPerNode <= 0 {
		return nil, errors.New("ingest: fleet needs positive Nodes and RunnablesPerNode")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.CyclePeriod <= 0 {
		cfg.CyclePeriod = 10 * time.Millisecond
	}
	if cfg.BeatsPerWindow <= 0 {
		cfg.BeatsPerWindow = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.NewWallClock()
	}

	// The treatment sink and frame hook must exist before the watchdog
	// and server that invoke them, but the controller they forward to
	// can only be built after both: bind it late through atomics.
	var tsink *treatSink
	var hookCtrl atomic.Pointer[treat.Controller]
	sink := cfg.Sink
	var frameHook func(node uint32, restarted bool)
	if cfg.Treatment != nil {
		tsink = &treatSink{inner: cfg.Sink, linkToNode: make(map[runnable.ID]uint32, cfg.Nodes)}
		sink = tsink
		frameHook = func(node uint32, restarted bool) {
			if c := hookCtrl.Load(); c != nil {
				c.OnFrame(node, restarted)
			}
		}
	}

	model := runnable.NewModel()
	app, err := model.AddApp("fleet", runnable.SafetyRelevant)
	if err != nil {
		return nil, err
	}
	specs := make([]NodeSpec, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		task, err := model.AddTask(app, fmt.Sprintf("node%04d", n), 1)
		if err != nil {
			return nil, err
		}
		spec := NodeSpec{Node: uint32(n), Interval: cfg.Interval}
		for r := 0; r < cfg.RunnablesPerNode; r++ {
			rid, err := model.AddRunnable(task, fmt.Sprintf("node%04d/r%d", n, r), time.Millisecond, runnable.SafetyRelevant)
			if err != nil {
				return nil, err
			}
			spec.Runnables = append(spec.Runnables, rid)
		}
		link, err := model.AddRunnable(task, fmt.Sprintf("node%04d/link", n), time.Millisecond, runnable.SafetyCritical)
		if err != nil {
			return nil, err
		}
		spec.Link = link
		specs[n] = spec
		if tsink != nil {
			tsink.linkToNode[link] = uint32(n)
		}
	}
	if err := model.Freeze(); err != nil {
		return nil, err
	}

	estWindow := 0
	if cfg.Calibration != nil {
		p := cfg.Calibration.Params.WithDefaults()
		if err := p.Validate(); err != nil {
			return nil, err
		}
		estWindow = p.WindowCycles
	}
	w, err := core.New(core.Config{
		Model:                 model,
		Clock:                 cfg.Clock,
		Sink:                  sink,
		CyclePeriod:           cfg.CyclePeriod,
		JournalSize:           cfg.JournalSize,
		EstimatorWindowCycles: estWindow,
	})
	if err != nil {
		return nil, err
	}

	// Remote runnable hypothesis: like the link, the window spans
	// GraceFrames flush intervals, requiring BeatsPerWindow heartbeats —
	// a runnable whose beats stop flowing (locally dead, or its node's
	// frames lost) faults within one window.
	hyp := LinkHypothesis(cfg.Interval, cfg.CyclePeriod, cfg.GraceFrames)
	hyp.MinHeartbeats = cfg.BeatsPerWindow
	for n := range specs {
		for _, rid := range specs[n].Runnables {
			if err := w.SetHypothesis(rid, hyp); err != nil {
				return nil, err
			}
			if err := w.Activate(rid); err != nil {
				return nil, err
			}
		}
	}

	srv, err := newServer(Config{
		Watchdog:     w,
		Shards:       cfg.Shards,
		QueueLen:     cfg.QueueLen,
		MaxPacket:    cfg.MaxPacket,
		GraceFrames:  cfg.GraceFrames,
		ReadBuffer:   cfg.ReadBuffer,
		Listeners:    cfg.Listeners,
		BatchSize:    cfg.BatchSize,
		CommandEpoch: cfg.CommandEpoch,
		FrameHook:    frameHook,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.RegisterNodes(specs); err != nil {
		return nil, err
	}

	names := make([]string, model.NumRunnables())
	for i := range names {
		if r, err := model.Runnable(runnable.ID(i)); err == nil {
			names[i] = r.Name
		}
	}
	f := &Fleet{Model: model, Watchdog: w, Server: srv, Specs: specs, Names: names}
	if cfg.Treatment != nil {
		if err := buildTreatment(f, cfg.Treatment, cfg.Clock, tsink, &hookCtrl); err != nil {
			return nil, err
		}
	}
	if cfg.Calibration != nil {
		ctrl, err := buildCalibration(f, cfg.Calibration, cfg.CyclePeriod)
		if err != nil {
			return nil, err
		}
		f.Calib = ctrl
	}
	return f, nil
}
