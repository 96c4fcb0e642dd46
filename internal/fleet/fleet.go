// Package fleet is the control side of a dedicated health-monitoring
// ECU aggregating aliveness across the in-vehicle network: Build
// assembles the model, watchdog and ingestion server (internal/ingest)
// for a uniform fleet of remote reporter nodes, and optionally the two
// control loops that act on what ingest reports — fault treatment
// (treat.go, over internal/treat) and online calibration (calib.go,
// over internal/calib). Both talk back to the reporters through the
// server's command channel. cmd/swwdd, the chaos engine and the soak
// tests share this code path.
package fleet

import (
	"errors"
	"strconv"
	"time"

	"swwd/internal/core"
	"swwd/internal/ingest"
	"swwd/internal/runnable"
	"swwd/internal/sim"
	"swwd/internal/treat"
)

// Config describes a uniform fleet: Nodes remote nodes, each
// reporting RunnablesPerNode runnables and flushing one frame every
// Interval.
type Config struct {
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
	// GraceFrames, Shards, MaxPacket, ReadBuffer, Listeners and
	// BatchSize configure the Server (see ingest.Config).
	GraceFrames int
	Shards      int
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
	// CommandEpoch forwards to ingest.Config.CommandEpoch (zero derives
	// it from the wall clock).
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
	Server   *ingest.Server
	// Specs[i] is the registration of node ID i (0-based node IDs).
	Specs []ingest.NodeSpec
	// Names[rid] is the runnable name for metric labels.
	Names []string
	// Treat is the fault-treatment controller; nil unless
	// Config.Treatment was set. Callers own its Close.
	Treat *treat.Controller
	// Calib is the calibration controller; nil unless
	// Config.Calibration was set. Callers own its Close.
	Calib *CalibController
}

// Build assembles the model (one application, one task per node,
// RunnablesPerNode monitored runnables plus one link runnable per
// node), creates the watchdog, derives and installs every hypothesis,
// and registers all nodes with a new ingestion server. The server is
// not yet listening: call Fleet.Server.Listen, then drive
// Fleet.Watchdog.Cycle (e.g. via swwd.Service).
func Build(cfg Config) (f *Fleet, err error) {
	if cfg.Nodes <= 0 || cfg.RunnablesPerNode <= 0 {
		return nil, errors.New("fleet: needs positive Nodes and RunnablesPerNode")
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

	// The treatment controller comes first: the watchdog's sink and the
	// server's frame hook feed it, and its executor acts through the
	// Fleet, whose fields are filled in below before any event can reach
	// the controller.
	f = &Fleet{}
	sink := cfg.Sink
	var frameHook func(node uint32, restarted bool)
	var tsink *treatSink
	if cfg.Treatment != nil {
		if f.Treat, err = newTreatment(f, cfg.Nodes, cfg.Treatment, cfg.Clock); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				f.Treat.Close()
			}
		}()
		tsink = &treatSink{inner: cfg.Sink, ctrl: f.Treat, linkToNode: make(map[runnable.ID]uint32, cfg.Nodes)}
		sink = tsink
		frameHook = f.Treat.OnFrame
	}

	model := runnable.NewModel()
	app, err := model.AddApp("fleet", runnable.SafetyRelevant)
	if err != nil {
		return nil, err
	}
	specs := make([]ingest.NodeSpec, cfg.Nodes)
	var name []byte // reused across nodes; each string() copies out
	for n := 0; n < cfg.Nodes; n++ {
		name = appendNodeName(name[:0], n)
		base := len(name)
		task, err := model.AddTask(app, string(name), 1)
		if err != nil {
			return nil, err
		}
		spec := ingest.NodeSpec{Node: uint32(n), Interval: cfg.Interval,
			Runnables: make([]runnable.ID, 0, cfg.RunnablesPerNode)}
		for r := 0; r < cfg.RunnablesPerNode; r++ {
			name = strconv.AppendInt(append(name[:base], "/r"...), int64(r), 10)
			rid, err := model.AddRunnable(task, string(name), time.Millisecond, runnable.SafetyRelevant)
			if err != nil {
				return nil, err
			}
			spec.Runnables = append(spec.Runnables, rid)
		}
		name = append(name[:base], "/link"...)
		link, err := model.AddRunnable(task, string(name), time.Millisecond, runnable.SafetyCritical)
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
	hyp := ingest.LinkHypothesis(cfg.Interval, cfg.CyclePeriod, cfg.GraceFrames)
	hyp.MinHeartbeats = cfg.BeatsPerWindow
	var b core.Batch
	for n := range specs {
		for _, rid := range specs[n].Runnables {
			b.SetHypothesis(rid, hyp)
			b.Activate(rid)
			if b.Len() >= core.SetupBatchOps {
				if err := w.Apply(&b); err != nil {
					return nil, err
				}
				b.Reset()
			}
		}
	}
	if err := w.Apply(&b); err != nil {
		return nil, err
	}

	srv, err := ingest.New(w,
		ingest.WithShards(cfg.Shards),
		ingest.WithMaxPacket(cfg.MaxPacket),
		ingest.WithGraceFrames(cfg.GraceFrames),
		ingest.WithReadBuffer(cfg.ReadBuffer),
		ingest.WithListeners(cfg.Listeners),
		ingest.WithBatchSize(cfg.BatchSize),
		ingest.WithCommandEpoch(cfg.CommandEpoch),
		ingest.WithFrameHook(frameHook))
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
	f.Model, f.Watchdog, f.Server, f.Specs, f.Names = model, w, srv, specs, names
	if cfg.Calibration != nil {
		if f.Calib, err = buildCalibration(f, cfg.Calibration, cfg.CyclePeriod); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// appendNodeName appends node n's task name to dst: "node" and n padded
// with zeros to four digits, byte for byte what fmt's "node%04d" prints
// for n >= 0.
func appendNodeName(dst []byte, n int) []byte {
	dst = append(dst, "node"...)
	for p := 1000; p > 1 && n < p; p /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(n), 10)
}
