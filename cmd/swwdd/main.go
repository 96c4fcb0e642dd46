// Command swwdd is the Software Watchdog ingestion daemon: the
// dedicated health-monitoring node of a distributed deployment. It
// listens for batched heartbeat frames (internal/wire) from remote
// reporter nodes over UDP, replays them into a local watchdog on the
// lock-free hot path (internal/ingest), supervises each node's link
// through a synthetic link runnable, and serves the combined telemetry —
// watchdog snapshot plus wire counters — on an HTTP metrics endpoint.
//
// Usage:
//
//	swwdd -listen :9400 -metrics :9401 -nodes 8 -runnables 10 -interval 100ms
//
// The fleet topology is uniform: -nodes nodes, each reporting
// -runnables runnables and flushing one frame per -interval. Remote
// reporters use the swwdclient library (see examples/remotenode) with a
// node ID below -nodes and a matching runnable count. A node that stops
// reporting — crashed process, unplugged network — raises an aliveness
// fault on its link runnable within one monitoring window, printed to
// stdout and visible on /metrics like any local fault.
//
// Two-terminal quickstart:
//
//	go run ./cmd/swwdd -listen :9400 -metrics :9401 &
//	go run ./examples/remotenode -addr localhost:9400 -node 0
//	curl -s localhost:9401/metrics | grep swwd_ingest_
//
// Durable history: -wal-dir streams every journaled detection,
// treatment action and ingest counter delta to a crash-safe segmented
// write-ahead log (internal/wal). The retained window is queryable
// three ways: the /history HTTP endpoint (?since=10m&until=5m), the
// offline query mode (-wal-dir d -since 1h prints the window and
// exits without serving), and wal.Replay in code. -push-url adds a
// push export sink delivering the /metrics payload to a collector
// endpoint on an interval, with retry, backoff and drop accounting.
// /healthz reports readiness: WAL writer liveness and fsync age, push
// backlog, ingest listeners.
//
// The full networked pipeline this daemon fronts — client flusher,
// wire codec, ingest sequence/epoch discipline, link supervision and
// treatment — is exercised adversarially by the seed-reproducible
// chaos campaign engine (internal/chaos): `make chaos-smoke` runs the
// named campaigns deterministically, `make chaos CHAOS_RUNS=20` the
// randomized nightly gate. A failing run prints its root seed;
// re-running with SWWD_CHAOS_SEED=<seed> reproduces it exactly.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"swwd"
	"swwd/internal/export"
	"swwd/internal/ingest"
	"swwd/internal/treat"
	"swwd/internal/wal"
)

// printSink streams watchdog output to stdout.
type printSink struct {
	mu    sync.Mutex
	quiet bool

	faults uint64
	states uint64
}

func (s *printSink) Fault(r swwd.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults++
	if !s.quiet {
		fmt.Printf("%v FAULT %s runnable=%d task=%d observed=%d expected=%d\n",
			time.Duration(r.Time), r.Kind, r.Runnable, r.Task, r.Observed, r.Expected)
	}
}

func (s *printSink) StateChanged(e swwd.StateEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.states++
	fmt.Printf("%v STATE %s -> %s (cause %s)\n", time.Duration(e.Time), e.Scope, e.State, e.Cause)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "swwdd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", ":9400", "UDP address to ingest heartbeat frames on")
	metrics := flag.String("metrics", "", "serve /metrics and /debug/pprof on this HTTP address (e.g. :9401)")
	nodes := flag.Int("nodes", 8, "number of remote reporter nodes to pre-register")
	runnables := flag.Int("runnables", 10, "monitored runnables per node")
	interval := flag.Duration("interval", 100*time.Millisecond, "declared per-node frame flush interval")
	cycle := flag.Duration("cycle", 10*time.Millisecond, "watchdog monitoring cycle period")
	grace := flag.Int("grace", ingest.DefaultGraceFrames, "flush intervals a node may stay silent before a link aliveness fault")
	shards := flag.Int("shards", ingest.DefaultShards, "ingest worker shards (a node is pinned to node%shards)")
	listeners := flag.Int("listeners", 0, "UDP sockets bound to -listen via SO_REUSEPORT (0 = one per CPU up to 8; platforms without SO_REUSEPORT fall back to 1)")
	readBatch := flag.Int("read-batch", ingest.DefaultBatchSize, "datagrams one socket receive may return (recvmmsg batching; 1 disables)")
	duration := flag.Duration("duration", 0, "exit after this long (0 = run until SIGINT/SIGTERM)")
	quiet := flag.Bool("quiet", false, "suppress per-fault output")
	treatDeps := flag.String("treat-deps", "", "fault-treatment dependency edges as node:depends_on pairs (e.g. \"1:0,2:0\"); enables the treatment control plane")
	treatRecovery := flag.Int("treat-recovery", 0, "heartbeat frames a quarantined node must deliver before resuming (0 = default)")
	treatRestart := flag.Bool("treat-restart-dependents", false, "send restart-runnables commands to dependents scaled back up after recovery")
	treatSpec := flag.String("treat-spec", "", "JSON treatment spec file (see swwd.TreatmentSpec); mutually exclusive with -treat-deps")
	walDir := flag.String("wal-dir", "", "directory for the durable fault-history write-ahead log (empty = WAL off)")
	walSegBytes := flag.Int64("wal-segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation size in bytes")
	walFsync := flag.Duration("wal-fsync", wal.DefaultSyncInterval, "WAL group-commit fsync cadence (<=0 fsyncs every batch)")
	walRetain := flag.Int("wal-retain", wal.DefaultRetainSegments, "sealed WAL segments kept before retention deletes the oldest")
	walRetainAge := flag.Duration("wal-retain-age", 0, "delete sealed WAL segments older than this (0 = no age limit)")
	walDelta := flag.Duration("wal-delta-interval", time.Second, "cadence of ingest counter-delta records written to the WAL")
	since := flag.Duration("since", 0, "query mode: replay the WAL window starting this long ago and exit (requires -wal-dir)")
	until := flag.Duration("until", 0, "query mode: upper window bound, this long ago (0 = now; only with -since)")
	pushURL := flag.String("push-url", "", "POST the /metrics payload to this URL on an interval (push export sink)")
	pushInterval := flag.Duration("push-interval", export.DefaultPushInterval, "push sink delivery cadence")
	calibOn := flag.Bool("calib", false, "enable the online auto-calibration loop (shadow-guarded staged hypothesis rollouts)")
	calibWindow := flag.Int("calib-window", 100, "calibration observation window in watchdog cycles")
	calibMargin := flag.Float64("calib-margin", 0, "slack around observed beat extremes when suggesting hypotheses (0 = default)")
	calibPromote := flag.Int("calib-promote-after", 0, "consecutive clean shadow windows before a candidate is promoted (0 = default)")
	calibSpec := flag.String("calib-spec", "", "JSON calibration spec file (see swwd.CalibrationSpec); overrides the -calib-* knobs")
	flag.Parse()

	if *since > 0 || *until > 0 {
		return queryHistory(*walDir, *since, *until)
	}

	treatment, err := treatmentConfig(*treatSpec, *treatDeps, *treatRecovery, *treatRestart, *nodes)
	if err != nil {
		return err
	}
	calibration, err := calibrationConfig(*calibOn, *calibSpec, *calibWindow, *calibMargin, *calibPromote)
	if err != nil {
		return err
	}

	// Open the WAL before the fleet: the treatment controller's action
	// sink must exist at fleet build time.
	var hist *wal.WAL
	if *walDir != "" {
		hist, err = wal.Open(*walDir,
			wal.WithSegmentBytes(*walSegBytes),
			wal.WithSyncInterval(*walFsync),
			wal.WithRetainSegments(*walRetain),
			wal.WithRetainAge(*walRetainAge))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		defer hist.Close()
		rs := hist.Recovery()
		fmt.Printf("swwdd: wal %s recovered segments=%d records=%d last_seq=%d torn_bytes=%d dropped_segments=%d\n",
			*walDir, rs.Segments, rs.Records, rs.LastSeq, rs.TornBytes, rs.SegmentsDropped)
		if treatment != nil {
			treatment.ActionSink = func(a treat.Action, execErr bool) {
				hist.AppendAction(wal.Action{
					Kind: uint8(a.Kind), Node: a.Node, Cause: a.Cause,
					SimTimeNs: int64(a.Time), ExecErr: execErr,
				})
			}
		}
	}

	if *listeners <= 0 {
		*listeners = runtime.NumCPU()
		if *listeners > 8 {
			*listeners = 8
		}
	}
	sink := &printSink{quiet: *quiet}
	fleet, err := ingest.BuildFleet(ingest.FleetConfig{
		Nodes:            *nodes,
		RunnablesPerNode: *runnables,
		Interval:         *interval,
		CyclePeriod:      *cycle,
		GraceFrames:      *grace,
		Shards:           *shards,
		Listeners:        *listeners,
		BatchSize:        *readBatch,
		Sink:             sink,
		Treatment:        treatment,
		Calibration:      calibration,
	})
	if err != nil {
		return err
	}
	if fleet.Treat != nil {
		defer fleet.Treat.Close()
	}
	if fleet.Calib != nil {
		defer fleet.Calib.Close()
	}
	addr, err := fleet.Server.Listen(*listen)
	if err != nil {
		return err
	}
	defer fleet.Server.Close()

	if hist != nil {
		// Stream every journaled detection into the WAL. The sink runs
		// under the watchdog mutex; AppendDetection is one lock-free
		// ring push (a full ring drops and counts, never blocks).
		fleet.Watchdog.SetJournalSink(func(e swwd.JournalEntry) {
			hist.AppendDetection(wal.FromJournal(e))
		})
	}

	svc, err := swwd.NewService(fleet.Watchdog, *cycle)
	if err != nil {
		return err
	}
	if err := svc.Start(); err != nil {
		return err
	}
	defer func() { _ = svc.Stop() }()

	// Ship ingest counter deltas to the WAL on a fixed cadence so
	// replay can integrate the wire counters over any time window.
	shipperDone := make(chan struct{})
	shipperStop := make(chan struct{})
	if hist != nil && *walDelta > 0 {
		go func() {
			defer close(shipperDone)
			tick := time.NewTicker(*walDelta)
			defer tick.Stop()
			prev := fleet.Server.Stats()
			for {
				select {
				case <-shipperStop:
					return
				case <-tick.C:
				}
				cur := fleet.Server.Stats()
				if d := statsToDelta(cur.Delta(prev)); !d.IsZero() {
					hist.AppendDelta(d)
				}
				prev = cur
			}
		}()
	} else {
		close(shipperDone)
	}
	defer func() { close(shipperStop); <-shipperDone }()

	// The exposition is the watchdog snapshot (rendered by the exporter
	// itself) followed by each enabled subsystem's families.
	writers := []func(*bytes.Buffer){func(b *bytes.Buffer) {
		export.WriteIngest(b, fleet.Server.Stats())
		export.WriteIngestDetail(b, fleet.Server.ListenerStats(), fleet.Server.ShardStats())
	}}
	if fleet.Treat != nil {
		writers = append(writers, func(b *bytes.Buffer) { export.WriteTreat(b, fleet.Treat.Stats()) })
	}
	if fleet.Calib != nil {
		writers = append(writers, func(b *bytes.Buffer) { export.WriteCalib(b, fleet.Calib.Status(), fleet.Names) })
	}
	if hist != nil {
		writers = append(writers, func(b *bytes.Buffer) { export.WriteWAL(b, hist.Stats()) })
	}
	exp := export.NewExporter(svc.SnapshotInto, fleet.Names, writers...)
	var pusher *export.Pusher
	if *pushURL != "" {
		if pusher, err = exp.StartPush(*pushURL, *pushInterval); err != nil {
			return err
		}
		defer pusher.Stop()
		fmt.Printf("swwdd: pushing metrics to %s every %v\n", *pushURL, *pushInterval)
	}

	if *metrics != "" {
		http.Handle("/metrics", exp)
		http.Handle("/healthz", healthFor(fleet, hist, pusher, *walFsync, *pushInterval))
		if hist != nil {
			http.HandleFunc("/history", historyHandler(*walDir))
		}
		if fleet.Calib != nil {
			http.HandleFunc("/calib", calibHandler(fleet))
		}
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return err
		}
		fmt.Printf("swwdd: metrics on http://%s/metrics\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}
	fmt.Printf("swwdd: ingesting on %s (%d nodes x %d runnables, interval %v, cycle %v)\n",
		addr, *nodes, *runnables, *interval, *cycle)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	<-ctx.Done()

	st := fleet.Server.Stats()
	res := fleet.Watchdog.Results()
	fmt.Printf("swwdd: frames=%d accepted=%d bytes=%d decode_errors=%d seq_gaps=%d dup_drops=%d restarts=%d stale_epochs=%d interval_mismatch=%d dropped=%d buffers_exhausted=%d\n",
		st.Frames, st.Accepted, st.Bytes, st.DecodeErrors, st.SeqGaps, st.DuplicateDrops,
		st.NodeRestarts, st.StaleEpochDrops, st.IntervalMismatch, st.DroppedPackets, st.BuffersExhausted)
	fmt.Printf("swwdd: listeners=%d", st.Listeners)
	for i, ls := range fleet.Server.ListenerStats() {
		fmt.Printf(" [%d packets=%d batches=%d max_batch=%d]", i, ls.Packets, ls.Batches, ls.MaxBatch)
	}
	fmt.Println()
	fmt.Printf("swwdd: commands sent=%d acked=%d dropped=%d stale_acks=%d\n",
		st.CommandsSent, st.CommandsAcked, st.CommandsDropped, st.CommandStaleAcks)
	fmt.Printf("swwdd: detections aliveness=%d arrival_rate=%d program_flow=%d\n",
		res.Aliveness, res.ArrivalRate, res.ProgramFlow)
	if fleet.Treat != nil {
		ts := fleet.Treat.Stats()
		fmt.Printf("swwdd: treatment quarantines=%d resumes=%d scale_downs=%d scale_ups=%d active_quarantines=%d exec_errors=%d\n",
			ts.Quarantines, ts.Resumes, ts.ScaleDowns, ts.ScaleUps, ts.ActiveQuarantines, ts.ExecErrors)
	}
	if fleet.Calib != nil {
		cs := fleet.Calib.Status()
		fmt.Printf("swwdd: calibration stage=%s rounds=%d rollbacks=%d rejected=%d pending_acks=%d\n",
			cs.Stage, cs.Rounds, cs.Rollbacks, cs.Rejected, cs.PendingAcks)
	}
	if hist != nil {
		ws := hist.Stats()
		fmt.Printf("swwdd: wal appended=%d dropped=%d synced=%d synced_seq=%d syncs=%d bytes=%d rotations=%d segments=%d write_errors=%d\n",
			ws.Appended, ws.Dropped, ws.Synced, ws.SyncedSeq, ws.Syncs, ws.BytesWritten, ws.Rotations, ws.Segments, ws.WriteErrors)
	}
	if pusher != nil {
		ps := pusher.Stats()
		fmt.Printf("swwdd: push collected=%d delivered=%d retries=%d errors=%d dropped=%d\n",
			ps.Collected, ps.Delivered, ps.Retries, ps.Errors, ps.Dropped)
	}
	return nil
}

// statsToDelta maps an ingest counter difference onto the WAL's
// fixed-size delta record.
func statsToDelta(d ingest.Stats) wal.Delta {
	return wal.Delta{
		Frames:           d.Frames,
		Bytes:            d.Bytes,
		Accepted:         d.Accepted,
		DecodeErrors:     d.DecodeErrors,
		UnknownNode:      d.UnknownNode,
		SeqGaps:          d.SeqGaps,
		SeqGapEvents:     d.SeqGapEvents,
		DuplicateDrops:   d.DuplicateDrops,
		NodeRestarts:     d.NodeRestarts,
		StaleEpochDrops:  d.StaleEpochDrops,
		IntervalMismatch: d.IntervalMismatch,
		DroppedPackets:   d.DroppedPackets,
		BuffersExhausted: d.BuffersExhausted,
		ReadErrors:       d.ReadErrors,
		CommandsSent:     d.CommandsSent,
		CommandsAcked:    d.CommandsAcked,
		CommandsDropped:  d.CommandsDropped,
		CommandStaleAcks: d.CommandStaleAcks,
	}
}

// queryHistory is the offline query mode: replay the WAL, fold the
// [since, until] window ("this long ago" durations) into the
// Snapshot-equivalent view and print both as JSON, then exit.
func queryHistory(dir string, since, until time.Duration) error {
	if dir == "" {
		return fmt.Errorf("-since/-until require -wal-dir")
	}
	if until > 0 && until > since {
		return fmt.Errorf("-until (%v ago) must not be earlier than -since (%v ago)", until, since)
	}
	h, err := wal.Replay(dir)
	if err != nil {
		return err
	}
	now := time.Now()
	sinceNs := int64(0)
	if since > 0 {
		sinceNs = now.Add(-since).UnixNano()
	}
	untilNs := int64(0)
	if until > 0 {
		untilNs = now.Add(-until).UnixNano()
	}
	win := h.Window(sinceNs, untilNs)
	view := (&wal.History{Records: win}).View()
	out := struct {
		Dir          string `json:"dir"`
		Segments     int    `json:"segments"`
		TornBytes    int64  `json:"torn_bytes"`
		TotalRecords int    `json:"total_records"`
		Window       struct {
			SinceNs int64 `json:"since_ns"`
			UntilNs int64 `json:"until_ns"`
			Records int   `json:"records"`
		} `json:"window"`
		View wal.View `json:"view"`
	}{Dir: dir, Segments: h.Segments, TornBytes: h.TornBytes, TotalRecords: len(h.Records), View: view}
	out.Window.SinceNs = sinceNs
	out.Window.UntilNs = untilNs
	out.Window.Records = len(win)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// historyHandler serves the /history endpoint: a read-only WAL replay
// folded over an optional ?since=10m&until=5m window (durations ago).
func historyHandler(dir string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var since, until time.Duration
		var err error
		if v := r.URL.Query().Get("since"); v != "" {
			if since, err = time.ParseDuration(v); err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if v := r.URL.Query().Get("until"); v != "" {
			if until, err = time.ParseDuration(v); err != nil {
				http.Error(w, "bad until: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		h, err := wal.Replay(dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		now := time.Now()
		sinceNs := int64(0)
		if since > 0 {
			sinceNs = now.Add(-since).UnixNano()
		}
		untilNs := int64(0)
		if until > 0 {
			untilNs = now.Add(-until).UnixNano()
		}
		win := h.Window(sinceNs, untilNs)
		view := (&wal.History{Records: win}).View()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Records int      `json:"records"`
			View    wal.View `json:"view"`
		}{Records: len(win), View: view})
	}
}

// healthFor assembles the /healthz probe set: WAL writer liveness and
// fsync age, push-sink delivery and backlog, ingest listeners.
func healthFor(fleet *ingest.Fleet, hist *wal.WAL, push *export.Pusher, fsync, pushEvery time.Duration) *export.Health {
	h := &export.Health{}
	h.Register(func() export.Check {
		st := fleet.Server.Stats()
		return export.Check{
			Name:    "ingest",
			Healthy: st.Listeners > 0,
			Detail:  fmt.Sprintf("listeners=%d nodes=%d", st.Listeners, st.Nodes),
		}
	})
	if hist != nil {
		stale := 4 * fsync
		if stale < 2*time.Second {
			stale = 2 * time.Second
		}
		h.Register(func() export.Check {
			st := hist.Stats()
			detail := fmt.Sprintf("synced_seq=%d ring_depth=%d write_errors=%d", st.SyncedSeq, st.RingDepth, st.WriteErrors)
			if st.LastSyncNs > 0 {
				detail += fmt.Sprintf(" fsync_age=%v", time.Duration(time.Now().UnixNano()-st.LastSyncNs).Round(time.Millisecond))
			}
			return export.Check{Name: "wal", Healthy: hist.Healthy(stale), Detail: detail}
		})
	}
	if push != nil {
		stale := 4 * pushEvery
		h.Register(func() export.Check {
			st := push.Stats()
			return export.Check{
				Name:    "push",
				Healthy: push.Healthy(stale),
				Detail:  fmt.Sprintf("delivered=%d dropped=%d backlog=%d", st.Delivered, st.Dropped, st.Backlog),
			}
		})
	}
	return h
}

// treatmentConfig derives the fleet treatment configuration from the
// -treat-* flags: a JSON spec file, or inline node:depends_on edges
// with the policy knobs. Nil means the control plane stays off.
func treatmentConfig(specPath, deps string, recovery int, restart bool, nodes int) (*ingest.TreatmentConfig, error) {
	if specPath != "" && deps != "" {
		return nil, fmt.Errorf("-treat-spec and -treat-deps are mutually exclusive")
	}
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ts, err := swwd.LoadTreatment(f)
		if err != nil {
			return nil, err
		}
		edges, pol, err := ts.Treatment(nodes)
		if err != nil {
			return nil, err
		}
		return &ingest.TreatmentConfig{Edges: edges, Policy: pol}, nil
	}
	if deps == "" {
		return nil, nil
	}
	var edges []swwd.TreatmentEdge
	for _, part := range strings.Split(deps, ",") {
		var n, d uint32
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &n, &d); err != nil {
			return nil, fmt.Errorf("-treat-deps entry %q: want node:depends_on", part)
		}
		edges = append(edges, swwd.TreatmentEdge{Node: n, DependsOn: d})
	}
	pol := swwd.TreatmentPolicy{RecoveryFrames: recovery, RestartDependents: restart}
	return &ingest.TreatmentConfig{Edges: edges, Policy: pol}, nil
}

// calibrationConfig derives the fleet calibration configuration from
// the -calib-* flags: a JSON spec file, or the inline knobs. Nil means
// the loop stays off.
func calibrationConfig(on bool, specPath string, window int, margin float64, promoteAfter int) (*ingest.CalibrationConfig, error) {
	if !on && specPath == "" {
		return nil, nil
	}
	spec := &swwd.CalibrationSpec{WindowCycles: window, Margin: margin, PromoteAfter: promoteAfter}
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if spec, err = swwd.LoadCalibration(f); err != nil {
			return nil, err
		}
	}
	p, err := spec.Params()
	if err != nil {
		return nil, err
	}
	return &ingest.CalibrationConfig{Params: p}, nil
}

// calibHandler serves the /calib endpoint: the rollout stage and the
// current round's candidates, plus the per-runnable baseline the last
// suggestion was derived from.
func calibHandler(fleet *ingest.Fleet) http.HandlerFunc {
	type candidate struct {
		Runnable  uint32            `json:"runnable"`
		Name      string            `json:"name"`
		Node      uint32            `json:"node"`
		Candidate swwd.Hypothesis   `json:"candidate"`
		Prior     *swwd.Hypothesis  `json:"prior,omitempty"`
		Shadow    *swwd.ShadowStats `json:"shadow,omitempty"`
		Applied   bool              `json:"applied"`
	}
	type runnableBaseline struct {
		Runnable uint32  `json:"runnable"`
		Name     string  `json:"name"`
		Windows  uint64  `json:"windows"`
		Min      uint64  `json:"min"`
		Max      uint64  `json:"max"`
		Rate     float64 `json:"rate"`
		P50      uint64  `json:"p50"`
		P95      uint64  `json:"p95"`
	}
	name := func(rid int) string {
		if rid >= 0 && rid < len(fleet.Names) {
			return fleet.Names[rid]
		}
		return ""
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		st := fleet.Calib.Status()
		base := fleet.Calib.LastBaseline()
		out := struct {
			Stage       string             `json:"stage"`
			Rounds      uint64             `json:"rounds"`
			Rollbacks   uint64             `json:"rollbacks"`
			Rejected    uint64             `json:"rejected"`
			CanaryNodes int                `json:"canary_nodes"`
			PendingAcks int                `json:"pending_acks"`
			Candidates  []candidate        `json:"candidates"`
			Baseline    []runnableBaseline `json:"baseline"`
		}{
			Stage: st.Stage.String(), Rounds: st.Rounds, Rollbacks: st.Rollbacks,
			Rejected: st.Rejected, CanaryNodes: st.CanaryNodes, PendingAcks: st.PendingAcks,
			Candidates: make([]candidate, 0, len(st.Candidates)),
			Baseline:   make([]runnableBaseline, 0, len(base.Runnables)),
		}
		for _, c := range st.Candidates {
			cd := candidate{
				Runnable: uint32(c.Runnable), Name: name(int(c.Runnable)), Node: c.Node,
				Candidate: c.Hyp, Applied: c.Applied,
			}
			if c.Applied {
				prior := c.Prior
				cd.Prior = &prior
			}
			if c.HasShadow {
				shadow := c.Shadow
				cd.Shadow = &shadow
			}
			out.Candidates = append(out.Candidates, cd)
		}
		for _, rb := range base.Runnables {
			out.Baseline = append(out.Baseline, runnableBaseline{
				Runnable: uint32(rb.Runnable), Name: name(rb.Runnable),
				Windows: rb.Windows, Min: rb.Min, Max: rb.Max,
				Rate: rb.Rate, P50: rb.P50, P95: rb.P95,
			})
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	}
}
