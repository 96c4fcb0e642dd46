// Command swwdd is the Software Watchdog daemon: one watchdog driven by
// a swwd.Service, its detections printed to stdout and its telemetry
// served over HTTP. Fleet mode (the default) is the dedicated
// health-monitoring node of a distributed deployment: it listens for
// batched heartbeat frames (internal/wire) from remote reporter nodes
// over UDP, replays them into the watchdog on the lock-free hot path
// (internal/ingest), and supervises each node's link through a
// synthetic link runnable. Spec mode (-spec) supervises local programs:
// the monitored system is a JSON spec file (see swwd.Spec) and
// heartbeats arrive as runnable names on stdin, one per line.
//
// Usage:
//
//	swwdd -listen :9400 -metrics :9401 -nodes 8 -runnables 10 -interval 100ms
//	my-app --heartbeat-log /dev/stdout | swwdd -spec system.json -metrics :9401
//
// The fleet topology is uniform: -nodes nodes, each reporting
// -runnables runnables and flushing one frame per -interval. Remote
// reporters use the swwdclient library (see examples/remotenode) with a
// node ID below -nodes and a matching runnable count. A node that stops
// reporting — crashed process, unplugged network — raises an aliveness
// fault on its link runnable within one monitoring window, printed to
// stdout and visible on /metrics like any local fault. The fleet-only
// flags are refused with -spec. A run ends on SIGINT/SIGTERM, after
// -duration or, in spec mode, at stdin EOF, and prints a summary whose
// last line counts the detections.
//
// Two-terminal quickstart:
//
//	go run ./cmd/swwdd -listen :9400 -metrics :9401 &
//	go run ./examples/remotenode -addr localhost:9400 -node 0
//	curl -s localhost:9401/metrics | grep swwd_ingest_
//
// Both modes serve one HTTP surface on -metrics: Prometheus text on
// /metrics; readiness on /healthz (the monitoring cycle advances, plus
// ingest listeners, WAL writer liveness and fsync age, and push backlog
// where those run); the Snapshot as expvar JSON under "swwd" on
// /debug/vars; and /debug/pprof. -push-url adds a push export sink
// delivering the /metrics payload to a collector endpoint on an
// interval, with retry, backoff and drop accounting.
//
// Durable history: -wal-dir streams every journaled detection,
// treatment action and ingest counter delta to a crash-safe segmented
// write-ahead log (internal/wal). The retained window is queryable
// three ways: the /history HTTP endpoint (?since=10m&until=5m), the
// offline query mode (-wal-dir d -since 1h prints the window and exits
// without serving), and wal.Replay in code.
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
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
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
	"swwd/internal/fleet"
	"swwd/internal/ingest"
	"swwd/internal/treat"
	"swwd/internal/wal"
)

// printSink streams watchdog output and the daemon's own lines to one
// writer.
type printSink struct {
	mu    sync.Mutex
	out   io.Writer
	quiet bool
}

func (s *printSink) printf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.out, format, args...)
}

func (s *printSink) Fault(r swwd.Report) {
	if !s.quiet {
		s.printf("%v FAULT %s runnable=%d task=%d observed=%d expected=%d\n",
			time.Duration(r.Time), r.Kind, r.Runnable, r.Task, r.Observed, r.Expected)
	}
}

func (s *printSink) StateChanged(e swwd.StateEvent) {
	s.printf("%v STATE %s -> %s (cause %s)\n", time.Duration(e.Time), e.Scope, e.State, e.Cause)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The default mux already carries expvar's /debug/vars and pprof's
	// /debug/pprof.
	err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, http.DefaultServeMux)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "swwdd: %v\n", err)
		os.Exit(1)
	}
}

// specFlags are the flags spec mode shares with fleet mode. Every other
// flag configures the ingest fleet and is an error with -spec.
var specFlags = map[string]bool{
	"spec": true, "metrics": true, "duration": true, "quiet": true, "push-url": true, "push-interval": true,
}

// run is the daemon. It builds the watchdog of the mode args select,
// mounts the HTTP surface on mux (served on -metrics when set) and
// returns when ctx ends, -duration passes or spec mode's stdin reaches
// EOF, printing the exit summary to out.
func run(ctx context.Context, args []string, stdin io.Reader, out io.Writer, mux *http.ServeMux) error {
	fs := flag.NewFlagSet("swwdd", flag.ExitOnError)
	specPath := fs.String("spec", "", "spec mode: build the watchdog from this JSON system spec (see swwd.Spec) and read heartbeats as runnable names from stdin")
	listen := fs.String("listen", ":9400", "UDP address to ingest heartbeat frames on")
	metrics := fs.String("metrics", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this HTTP address (e.g. :9401)")
	nodes := fs.Int("nodes", 8, "number of remote reporter nodes to pre-register")
	runnables := fs.Int("runnables", 10, "monitored runnables per node")
	interval := fs.Duration("interval", 100*time.Millisecond, "declared per-node frame flush interval")
	cycle := fs.Duration("cycle", 10*time.Millisecond, "watchdog monitoring cycle period")
	grace := fs.Int("grace", ingest.DefaultGraceFrames, "flush intervals a node may stay silent before a link aliveness fault")
	shards := fs.Int("shards", ingest.DefaultShards, "ingest lock stripes (a read loop replays node N's frames under stripe N%shards)")
	listeners := fs.Int("listeners", 0, "UDP sockets bound to -listen via SO_REUSEPORT (0 = one per CPU up to 8; platforms without SO_REUSEPORT fall back to 1)")
	readBatch := fs.Int("read-batch", ingest.DefaultBatchSize, "datagrams one socket receive may return (recvmmsg batching; 1 disables)")
	duration := fs.Duration("duration", 0, "exit after this long (0 = run until SIGINT/SIGTERM or, with -spec, stdin EOF)")
	quiet := fs.Bool("quiet", false, "suppress per-fault output")
	treatDeps := fs.String("treat-deps", "", "fault-treatment dependency edges as node:depends_on pairs (e.g. \"1:0,2:0\"); enables the treatment control plane")
	treatRecovery := fs.Int("treat-recovery", 0, "heartbeat frames a quarantined node must deliver before resuming (0 = default)")
	treatRestart := fs.Bool("treat-restart-dependents", false, "send restart-runnables commands to dependents scaled back up after recovery")
	treatSpec := fs.String("treat-spec", "", "JSON treatment spec file (see swwd.TreatmentSpec); mutually exclusive with -treat-deps")
	walDir := fs.String("wal-dir", "", "directory for the durable fault-history write-ahead log (empty = WAL off)")
	walSegBytes := fs.Int64("wal-segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation size in bytes")
	walFsync := fs.Duration("wal-fsync", wal.DefaultSyncInterval, "WAL group-commit fsync cadence (<=0 fsyncs every batch)")
	walRetain := fs.Int("wal-retain", wal.DefaultRetainSegments, "sealed WAL segments kept before retention deletes the oldest")
	walRetainAge := fs.Duration("wal-retain-age", 0, "delete sealed WAL segments older than this (0 = no age limit)")
	walDelta := fs.Duration("wal-delta-interval", time.Second, "cadence of ingest counter-delta records written to the WAL")
	since := fs.Duration("since", 0, "query mode: replay the WAL window starting this long ago and exit (requires -wal-dir)")
	until := fs.Duration("until", 0, "query mode: upper window bound, this long ago (0 = now; only with -since)")
	pushURL := fs.String("push-url", "", "POST the /metrics payload to this URL on an interval (push export sink)")
	pushInterval := fs.Duration("push-interval", export.DefaultPushInterval, "push sink delivery cadence")
	calibOn := fs.Bool("calib", false, "enable the online auto-calibration loop (shadow-guarded staged hypothesis rollouts)")
	calibWindow := fs.Int("calib-window", 100, "calibration observation window in watchdog cycles")
	calibMargin := fs.Float64("calib-margin", 0, "slack around observed beat extremes when suggesting hypotheses (0 = default)")
	calibPromote := fs.Int("calib-promote-after", 0, "consecutive clean shadow windows before a candidate is promoted (0 = default)")
	calibSpec := fs.String("calib-spec", "", "JSON calibration spec file (see swwd.CalibrationSpec); overrides the -calib-* knobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if *specPath != "" {
		fs.Visit(func(f *flag.Flag) {
			if err == nil && !specFlags[f.Name] {
				err = fmt.Errorf("-%s is a fleet-mode flag and cannot be combined with -spec", f.Name)
			}
		})
		if err != nil {
			return err
		}
	}
	if *since != 0 || *until != 0 {
		return queryHistory(out, *walDir, *since, *until)
	}

	sink := &printSink{out: out, quiet: *quiet}
	health := &export.Health{}
	var w *swwd.Watchdog
	var names []string
	var writers []func(*bytes.Buffer)
	var fl *fleet.Fleet
	var hist *wal.WAL
	var eof chan error // spec mode: nil at stdin EOF, else the read error
	if *specPath != "" {
		spec, err := load(*specPath, swwd.LoadSpec)
		if err != nil {
			return err
		}
		sys, err := spec.Build(nil, sink)
		if err != nil {
			return err
		}
		w = sys.Watchdog
		for _, r := range sys.Model.Runnables() {
			names = append(names, r.Name)
		}
		eof = make(chan error, 1)
		go func() {
			sc := bufio.NewScanner(stdin)
			for sc.Scan() {
				sys.Heartbeat(sc.Text())
			}
			eof <- sc.Err()
		}()
		sink.printf("swwdd: monitoring %d runnables from %s, cycle %v\n", len(names), *specPath, w.CyclePeriod())
	} else {
		treatment, err := treatmentConfig(*treatSpec, *treatDeps, *treatRecovery, *treatRestart, *nodes)
		if err != nil {
			return err
		}
		calibration, err := calibrationConfig(*calibOn, *calibSpec, *calibWindow, *calibMargin, *calibPromote)
		if err != nil {
			return err
		}

		// Open the WAL before the fleet: the treatment controller's
		// action sink must exist at fleet build time.
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
			sink.printf("swwdd: wal %s recovered segments=%d records=%d last_seq=%d torn_bytes=%d dropped_segments=%d\n",
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
			*listeners = min(runtime.NumCPU(), 8)
		}
		fl, err = fleet.Build(fleet.Config{
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
		if fl.Treat != nil {
			defer fl.Treat.Close()
		}
		if fl.Calib != nil {
			defer fl.Calib.Close()
		}
		addr, err := fl.Server.Listen(*listen)
		if err != nil {
			return err
		}
		defer fl.Server.Close()
		w, names = fl.Watchdog, fl.Names
		health.Register(func() export.Check {
			st := fl.Server.Stats()
			return export.Check{
				Name:    "ingest",
				Healthy: st.Listeners > 0,
				Detail:  fmt.Sprintf("listeners=%d nodes=%d", st.Listeners, st.Nodes),
			}
		})

		// The exposition is the watchdog snapshot (rendered by the
		// exporter itself) followed by each enabled subsystem's
		// families.
		writers = append(writers, func(b *bytes.Buffer) {
			export.WriteIngest(b, fl.Server.Stats())
			export.WriteIngestDetail(b, fl.Server.ListenerStats(), nil)
		})
		if fl.Treat != nil {
			writers = append(writers, func(b *bytes.Buffer) { export.WriteTreat(b, fl.Treat.Stats()) })
		}
		if fl.Calib != nil {
			writers = append(writers, func(b *bytes.Buffer) { export.WriteCalib(b, fl.Calib.Status(), fl.Names) })
			mux.HandleFunc("/calib", calibHandler(fl))
		}
		if hist != nil {
			writers = append(writers, func(b *bytes.Buffer) { export.WriteWAL(b, hist.Stats()) })
			mux.HandleFunc("/history", historyHandler(*walDir))
			health.Register(func() export.Check {
				st := hist.Stats()
				detail := fmt.Sprintf("synced_seq=%d ring_depth=%d write_errors=%d", st.SyncedSeq, st.RingDepth, st.WriteErrors)
				if st.LastSyncNs > 0 {
					detail += fmt.Sprintf(" fsync_age=%v", time.Duration(time.Now().UnixNano()-st.LastSyncNs).Round(time.Millisecond))
				}
				return export.Check{Name: "wal", Healthy: hist.Healthy(), Detail: detail}
			})
			// Stream every journaled detection into the WAL. The sink
			// runs under the watchdog mutex; AppendDetection is one
			// lock-free ring push (a full ring drops and counts, never
			// blocks).
			w.SetJournalSink(func(e swwd.JournalEntry) {
				hist.AppendDetection(wal.FromJournal(e))
			})
			if *walDelta > 0 {
				defer shipDeltas(fl.Server, hist, *walDelta)()
			}
		}
		sink.printf("swwdd: ingesting on %s (%d nodes x %d runnables, interval %v, cycle %v)\n",
			addr, *nodes, *runnables, *interval, *cycle)
	}

	svc, err := swwd.NewService(w, 0)
	if err != nil {
		return err
	}
	if err := svc.Start(); err != nil {
		return err
	}
	defer func() { _ = svc.Stop() }()
	health.Register(cycleCheck(svc))
	exp := export.NewExporter(svc.SnapshotInto, names, writers...)
	var pusher *export.Pusher
	if *pushURL != "" {
		if pusher, err = exp.StartPush(*pushURL, *pushInterval); err != nil {
			return err
		}
		defer pusher.Stop()
		health.Register(func() export.Check {
			st := pusher.Stats()
			return export.Check{
				Name:    "push",
				Healthy: pusher.Healthy(),
				Detail:  fmt.Sprintf("delivered=%d dropped=%d backlog=%d", st.Delivered, st.Dropped, st.Backlog),
			}
		})
		sink.printf("swwdd: pushing metrics to %s\n", *pushURL)
	}
	// expvar names are process-wide, so only the first run of the
	// process publishes.
	if expvar.Get("swwd") == nil {
		expvar.Publish("swwd", expvar.Func(func() any { return svc.Snapshot() }))
	}
	mux.Handle("/metrics", exp)
	mux.Handle("/healthz", health)
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: mux}
		defer srv.Close()
		go func() { _ = srv.Serve(ln) }()
		sink.printf("swwdd: metrics on http://%s/metrics\n", ln.Addr())
	}

	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	select {
	case <-ctx.Done():
	case err := <-eof:
		if err != nil {
			return fmt.Errorf("stdin: %w", err)
		}
	}

	if fl != nil {
		st := fl.Server.Stats()
		sink.printf("swwdd: frames=%d accepted=%d bytes=%d decode_errors=%d seq_gaps=%d dup_drops=%d restarts=%d stale_epochs=%d interval_mismatch=%d kernel_drops=%d\n",
			st.Frames, st.Accepted, st.Bytes, st.DecodeErrors, st.SeqGaps, st.DuplicateDrops,
			st.NodeRestarts, st.StaleEpochDrops, st.IntervalMismatch, st.DroppedPackets)
		var ls strings.Builder
		for i, l := range fl.Server.ListenerStats() {
			fmt.Fprintf(&ls, " [%d packets=%d batches=%d max_batch=%d]", i, l.Packets, l.Batches, l.MaxBatch)
		}
		sink.printf("swwdd: listeners=%d%s\n", st.Listeners, ls.String())
		sink.printf("swwdd: commands sent=%d acked=%d dropped=%d stale_acks=%d\n",
			st.CommandsSent, st.CommandsAcked, st.CommandsDropped, st.CommandStaleAcks)
		if fl.Treat != nil {
			ts := fl.Treat.Stats()
			sink.printf("swwdd: treatment quarantines=%d resumes=%d scale_downs=%d scale_ups=%d active_quarantines=%d exec_errors=%d\n",
				ts.Quarantines, ts.Resumes, ts.ScaleDowns, ts.ScaleUps, ts.ActiveQuarantines, ts.ExecErrors)
		}
		if fl.Calib != nil {
			cs := fl.Calib.Status()
			sink.printf("swwdd: calibration stage=%s rounds=%d rollbacks=%d rejected=%d pending_acks=%d\n",
				cs.Stage, cs.Rounds, cs.Rollbacks, cs.Rejected, cs.PendingAcks)
		}
	}
	if hist != nil {
		ws := hist.Stats()
		sink.printf("swwdd: wal appended=%d dropped=%d synced=%d synced_seq=%d syncs=%d bytes=%d rotations=%d segments=%d write_errors=%d\n",
			ws.Appended, ws.Dropped, ws.Synced, ws.SyncedSeq, ws.Syncs, ws.BytesWritten, ws.Rotations, ws.Segments, ws.WriteErrors)
	}
	if pusher != nil {
		ps := pusher.Stats()
		sink.printf("swwdd: push collected=%d delivered=%d retries=%d errors=%d dropped=%d\n",
			ps.Collected, ps.Delivered, ps.Retries, ps.Errors, ps.Dropped)
	}
	res := w.Results()
	sink.printf("swwdd: detections aliveness=%d arrival_rate=%d program_flow=%d\n",
		res.Aliveness, res.ArrivalRate, res.ProgramFlow)
	return nil
}

// cycleCheck is the monitoring-cycle liveness probe: unhealthy when two
// probes at least two cycle periods apart see the same cycle count.
func cycleCheck(svc *swwd.Service) export.CheckFunc {
	w := svc.Watchdog()
	var mu sync.Mutex
	var lastCycle uint64
	var lastSeen time.Time
	return func() export.Check {
		cycle, ds := w.CycleCount(), svc.Stats()
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if lastSeen.IsZero() || cycle != lastCycle {
			lastCycle, lastSeen = cycle, now
		}
		return export.Check{
			Name:    "cycle",
			Healthy: now.Sub(lastSeen) < 2*w.CyclePeriod(),
			Detail:  fmt.Sprintf("cycle=%d ticks=%d overruns=%d", cycle, ds.Ticks, ds.Overruns),
		}
	}
}

// shipDeltas ships the server's ingest counter deltas to the WAL every
// period, so replay can integrate the wire counters over any time
// window, until the returned stop function is called. Stopping ships
// the last partial interval, so the replayed totals of a cleanly
// stopped daemon equal its final counters.
func shipDeltas(srv *ingest.Server, hist *wal.WAL, period time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		prev := srv.Stats()
		ship := func() {
			cur := srv.Stats()
			if d := cur.Delta(prev).Counters; !d.IsZero() {
				hist.AppendDelta(d)
			}
			prev = cur
		}
		for {
			select {
			case <-quit:
				ship()
				return
			case <-tick.C:
				ship()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// errBadWindow marks a since/until window the caller got wrong, as
// opposed to a WAL that failed to replay.
var errBadWindow = errors.New("bad window")

// historyWindow is one WAL replay cut to a since/until window, and the
// window's records folded into the Snapshot-equivalent view.
type historyWindow struct {
	all              *wal.History
	sinceNs, untilNs int64
	records          []wal.Record
	view             wal.View
}

// replayWindow validates a window of "this long ago" durations — both
// non-negative, zero meaning unbounded, and until only with a since it
// does not precede — then replays the WAL in dir and cuts the window
// out of it. Query mode and /history share it.
func replayWindow(dir string, since, until time.Duration) (*historyWindow, error) {
	if since < 0 || until < 0 {
		return nil, fmt.Errorf("%w: since (%v) and until (%v) must not be negative", errBadWindow, since, until)
	}
	if until > since {
		return nil, fmt.Errorf("%w: until (%v ago) must not be earlier than since (%v ago)", errBadWindow, until, since)
	}
	h, err := wal.Replay(dir)
	if err != nil {
		return nil, err
	}
	hw := &historyWindow{all: h}
	now := time.Now()
	if since > 0 {
		hw.sinceNs = now.Add(-since).UnixNano()
	}
	if until > 0 {
		hw.untilNs = now.Add(-until).UnixNano()
	}
	hw.records = h.Window(hw.sinceNs, hw.untilNs)
	hw.view = (&wal.History{Records: hw.records}).View()
	return hw, nil
}

// queryHistory is the offline query mode: replay the WAL, fold the
// [since, until] window into the Snapshot-equivalent view and print
// both as JSON, then exit.
func queryHistory(out io.Writer, dir string, since, until time.Duration) error {
	if dir == "" {
		return fmt.Errorf("-since/-until require -wal-dir")
	}
	hw, err := replayWindow(dir, since, until)
	if err != nil {
		return err
	}
	res := struct {
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
	}{Dir: dir, Segments: hw.all.Segments, TornBytes: hw.all.TornBytes, TotalRecords: len(hw.all.Records), View: hw.view}
	res.Window.SinceNs = hw.sinceNs
	res.Window.UntilNs = hw.untilNs
	res.Window.Records = len(hw.records)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// historyHandler serves the /history endpoint: a read-only WAL replay
// folded over an optional ?since=10m&until=5m window (durations ago).
// A malformed or invalid window is a 400.
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
		hw, err := replayWindow(dir, since, until)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, errBadWindow) {
				code = http.StatusBadRequest
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Records int      `json:"records"`
			View    wal.View `json:"view"`
		}{Records: len(hw.records), View: hw.view})
	}
}

// load opens the spec file at path and parses it with parse.
func load[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// treatmentConfig derives the fleet treatment configuration from the
// -treat-* flags: a JSON spec file, or inline node:depends_on edges
// with the policy knobs. Nil means the control plane stays off.
func treatmentConfig(specPath, deps string, recovery int, restart bool, nodes int) (*fleet.TreatmentConfig, error) {
	if specPath != "" && deps != "" {
		return nil, fmt.Errorf("-treat-spec and -treat-deps are mutually exclusive")
	}
	if specPath != "" {
		ts, err := load(specPath, swwd.LoadTreatment)
		if err != nil {
			return nil, err
		}
		edges, pol, err := ts.Treatment(nodes)
		if err != nil {
			return nil, err
		}
		return &fleet.TreatmentConfig{Edges: edges, Policy: pol}, nil
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
	return &fleet.TreatmentConfig{Edges: edges, Policy: pol}, nil
}

// calibrationConfig derives the fleet calibration configuration from
// the -calib-* flags: a JSON spec file, or the inline knobs. Nil means
// the loop stays off.
func calibrationConfig(on bool, specPath string, window int, margin float64, promoteAfter int) (*fleet.CalibrationConfig, error) {
	if !on && specPath == "" {
		return nil, nil
	}
	spec := &swwd.CalibrationSpec{WindowCycles: window, Margin: margin, PromoteAfter: promoteAfter}
	if specPath != "" {
		var err error
		if spec, err = load(specPath, swwd.LoadCalibration); err != nil {
			return nil, err
		}
	}
	p, err := spec.Params()
	if err != nil {
		return nil, err
	}
	return &fleet.CalibrationConfig{Params: p}, nil
}

// calibHandler serves the /calib endpoint: the rollout stage and the
// current round's candidates, plus the per-runnable baseline the last
// suggestion was derived from.
func calibHandler(fl *fleet.Fleet) http.HandlerFunc {
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
		if rid >= 0 && rid < len(fl.Names) {
			return fl.Names[rid]
		}
		return ""
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		st := fl.Calib.Status()
		base := fl.Calib.LastBaseline()
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
