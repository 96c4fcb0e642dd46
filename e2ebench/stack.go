package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"swwd/internal/core"
	"swwd/internal/export"
	"swwd/internal/ingest"
	"swwd/internal/runnable"
	"swwd/internal/sim"
	"swwd/internal/treat"
	"swwd/internal/wal"
	"swwd/internal/wire"
	"swwd/swwdclient"
)

// The server runs cmd/swwdd's defaults.
const (
	frameInterval = 100 * time.Millisecond // -interval
	cyclePeriod   = 10 * time.Millisecond  // -cycle
	scrapeEvery   = time.Second            // a 1 Hz /metrics scraper
	walDeltaEvery = time.Second            // -wal-delta-interval
)

// faultLog is one report the watchdog delivered to the sink.
type faultLog struct {
	at    int64
	cycle uint64 // the Cycle call that raised it, counted from 1
	node  int32
	link  bool
	kind  core.ErrorKind
}

// actionLog is one executed treatment action and the sequence number
// of the command its execution sent (0 when it sent none).
type actionLog struct {
	at       int64
	kind     treat.ActionKind
	node     uint32
	cause    uint32
	incident int32 // the cause's latest incident, or -1
	cmdSeq   uint64
	execErr  bool
}

// cycleLog is the wall-clock span of one Cycle call.
type cycleLog struct{ start, end int64 }

// activation is a link re-activation by the resume executor: the
// link's aliveness windows restart at cycle.
type activation struct {
	node  uint32
	cycle uint64 // Cycle calls completed when Activate ran
	at    int64
}

// walPending is a WAL append waiting for the durability horizon:
// durable once Stats().SyncedSeq reaches seq.
type walPending struct {
	seq uint64
	at  int64
}

// stack is the supervision stack under test, assembled from the
// program's packages the way ingest.BuildFleet and cmd/swwdd assemble
// it, plus the load that drives it. The assembly is spelled out here
// rather than calling BuildFleet because FleetConfig has no frame hook,
// and the send→accept span ends in one; the treatment executor below
// makes the same watchdog and command calls as ingest's.
type stack struct {
	p     *plan
	tr    *tracer
	book  *frameBook
	w     *core.Watchdog
	srv   *ingest.Server
	specs []ingest.NodeSpec
	names []string
	graph *treat.Graph
	ctrl  *treat.Controller
	hist  *wal.WAL
	dir   string // WAL directory
	gen   *generator
	probe *swwdclient.Client

	nodeOf []int32 // runnable ID → node ID
	isLink []bool  // runnable ID → is a link runnable
	incOf  []atomic.Int32
	// aliveCycles is the link aliveness window in cycles.
	aliveCycles uint64

	// cycMu orders the Cycle calls against the resume executor's link
	// activation, so each activation has a known cycle number.
	cycMu       sync.Mutex
	cycles      []cycleLog // index = cycle number; entry 0 is unused
	activations []activation
	curCycle    atomic.Uint64

	mu        sync.Mutex
	faults    []faultLog
	actions   []actionLog
	walDets   []uint64 // journal sequence numbers the WAL accepted
	walActs   []wal.Action
	pending   []walPending
	probeCmds []int64 // arrival time of each command the probe applied

	execSeq    uint64 // executor → action sink hand-off (policy goroutine only)
	cycleStart atomic.Int64

	// Traced-run measurements.
	cycleUs, cycleLateMs, faultUs, snapMs, renderMs, flushUs samples
	walAppendNs, walDurableMs                                samples

	stop chan struct{}
	wg   sync.WaitGroup
}

// buildStack assembles and starts the stack for plan p and returns it
// with its set-up time: from the first construction step until the
// server accepted the first frame of every node. maxFrames sizes the
// frame book for the longest measurement window.
func buildStack(p *plan, tr *tracer, walRoot string, rep, maxFrames int) (*stack, float64, error) {
	// The frame book is the benchmark's own and sized by the run
	// length, so its allocation is left out of the set-up time.
	book := newFrameBook(p.W.nodes, maxFrames, tr)
	t0 := now()
	s := &stack{p: p, tr: tr, book: book, stop: make(chan struct{}),
		incOf: make([]atomic.Int32, p.W.nodes+1), cycles: make([]cycleLog, 1)}
	for i := range s.incOf {
		s.incOf[i].Store(-1)
	}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if p.W.wal {
		s.dir = filepath.Join(walRoot, fmt.Sprintf("wal-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, 0, err
		}
		h, err := wal.Open(s.dir)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: %w", err)
		}
		s.hist = h
	}
	if err := s.buildFleet(); err != nil {
		return nil, 0, err
	}
	nodes := make([]uint32, len(s.specs))
	for i := range s.specs {
		nodes[i] = s.specs[i].Node
	}
	g, err := treat.NewGraph(nodes, p.Edges)
	if err != nil {
		return nil, 0, err
	}
	s.graph = g
	s.ctrl = treat.NewController(g, treat.Policy{}, treat.ExecutorFunc(s.execute), sim.NewWallClock(),
		treat.Options{ActionSink: s.onAction})
	s.book.ctrl.Store(s.ctrl)
	if s.hist != nil {
		s.w.SetJournalSink(s.onJournal)
	}
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s.startLoops()
	probe, err := swwdclient.Dial(addr.String(),
		swwdclient.WithNode(p.Probe),
		swwdclient.WithRunnables(p.W.runnables),
		swwdclient.WithInterval(frameInterval),
		swwdclient.WithOnCommand(func(swwdclient.Command) {
			t := now()
			s.mu.Lock()
			s.probeCmds = append(s.probeCmds, t)
			s.mu.Unlock()
		}))
	if err != nil {
		return nil, 0, err
	}
	s.probe = probe
	s.wg.Add(1)
	go s.probeLoop()
	s.gen, err = newGenerator(p, addr.(*net.UDPAddr), s.book, tr, s.incOf, p.W.refFPS)
	if err != nil {
		return nil, 0, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.book.nSeen.Load() < int64(p.W.nodes+1) {
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("set-up: %d of %d nodes delivered a first frame", s.book.nSeen.Load(), p.W.nodes+1)
		}
		time.Sleep(200 * time.Microsecond)
	}
	setup := float64(now()-t0) / 1e9
	ok = true
	return s, setup, nil
}

// buildFleet is ingest.BuildFleet's model, watchdog and server
// assembly with the benchmark's sink and frame hook, plus the
// program-flow sequences of the wide workload.
func (s *stack) buildFleet() error {
	p := s.p
	total := p.W.nodes + 1
	model := runnable.NewModel()
	app, err := model.AddApp("fleet", runnable.SafetyRelevant)
	if err != nil {
		return err
	}
	s.specs = make([]ingest.NodeSpec, total)
	for n := 0; n < total; n++ {
		task, err := model.AddTask(app, fmt.Sprintf("node%04d", n), 1)
		if err != nil {
			return err
		}
		spec := ingest.NodeSpec{Node: uint32(n), Interval: frameInterval}
		for r := 0; r < p.W.runnables; r++ {
			rid, err := model.AddRunnable(task, fmt.Sprintf("node%04d/r%d", n, r), time.Millisecond, runnable.SafetyRelevant)
			if err != nil {
				return err
			}
			spec.Runnables = append(spec.Runnables, rid)
		}
		link, err := model.AddRunnable(task, fmt.Sprintf("node%04d/link", n), time.Millisecond, runnable.SafetyCritical)
		if err != nil {
			return err
		}
		spec.Link = link
		s.specs[n] = spec
	}
	if err := model.Freeze(); err != nil {
		return err
	}
	s.nodeOf = make([]int32, model.NumRunnables())
	s.isLink = make([]bool, model.NumRunnables())
	s.names = make([]string, model.NumRunnables())
	for i := range s.names {
		if r, err := model.Runnable(runnable.ID(i)); err == nil {
			s.names[i] = r.Name
		}
	}
	for n := range s.specs {
		for _, rid := range s.specs[n].Runnables {
			s.nodeOf[rid] = int32(n)
		}
		s.nodeOf[s.specs[n].Link] = int32(n)
		s.isLink[s.specs[n].Link] = true
	}

	w, err := core.New(core.Config{Model: model, Clock: sim.NewWallClock(), Sink: s, CyclePeriod: cyclePeriod})
	if err != nil {
		return err
	}
	s.w = w
	hyp := ingest.LinkHypothesis(frameInterval, cyclePeriod, ingest.DefaultGraceFrames)
	hyp.MinHeartbeats = 1
	s.aliveCycles = uint64(hyp.AlivenessCycles)
	for n := range s.specs {
		for _, rid := range s.specs[n].Runnables {
			if err := w.SetHypothesis(rid, hyp); err != nil {
				return err
			}
			if err := w.Activate(rid); err != nil {
				return err
			}
		}
		if p.W.flowLen > 0 {
			if err := w.AddFlowSequence(s.specs[n].Runnables[:p.W.flowLen]...); err != nil {
				return err
			}
		}
	}
	listeners := runtime.NumCPU()
	if listeners > 8 {
		listeners = 8
	}
	srv, err := ingest.New(w,
		ingest.WithShards(ingest.DefaultShards),
		ingest.WithGraceFrames(ingest.DefaultGraceFrames),
		ingest.WithListeners(listeners),
		ingest.WithBatchSize(ingest.DefaultBatchSize),
		ingest.WithFrameHook(s.book.hook))
	if err != nil {
		return err
	}
	s.srv = srv
	return srv.RegisterNodes(s.specs)
}

// Fault is the watchdog sink. Like ingest's treatment sink it feeds
// link aliveness faults to the controller; it runs under the watchdog
// lock and only appends to its own log.
func (s *stack) Fault(r core.Report) {
	t := now()
	node, link := s.nodeOf[r.Runnable], s.isLink[r.Runnable]
	s.mu.Lock()
	s.faults = append(s.faults, faultLog{at: t, cycle: s.curCycle.Load(), node: node, link: link, kind: r.Kind})
	s.mu.Unlock()
	if r.Kind == core.AlivenessError && !r.Correlated && link {
		s.ctrl.OnLinkFault(uint32(node))
	}
	if s.tr.on.Load() {
		cs := s.cycleStart.Load()
		if link {
			s.faultUs.add(float64(t-cs) / 1e3)
		}
		s.tr.add("core.fault", cs, t, int64(node), int64(s.incOf[node].Load()))
	}
}

// StateChanged completes core.Sink; task and ECU state changes follow
// from the faults already logged.
func (s *stack) StateChanged(core.StateEvent) {}

// execute applies one treatment action exactly as ingest's treatment
// executor does: supervision toggles on the watchdog plus a command to
// the node. It remembers the command's sequence number for onAction.
func (s *stack) execute(a treat.Action) error {
	s.execSeq = 0
	if int(a.Node) >= len(s.specs) {
		return fmt.Errorf("treat executor: unknown node %d", a.Node)
	}
	spec := &s.specs[a.Node]
	send := func(op wire.CmdOp, err error) error {
		seq, serr := s.srv.SendCommand(a.Node, wire.CmdRec{Op: op, Runnable: wire.CmdNodeTarget})
		s.execSeq = seq
		if err == nil {
			err = serr
		}
		return err
	}
	switch a.Kind {
	case treat.ActQuarantine:
		err := s.setRunnables(spec, false)
		if derr := s.w.Deactivate(spec.Link); err == nil {
			err = derr
		}
		return send(wire.CmdQuarantine, err)
	case treat.ActNotifyQuarantine:
		return send(wire.CmdQuarantine, nil)
	case treat.ActScaleDown:
		return send(wire.CmdQuarantine, s.setRunnables(spec, false))
	case treat.ActResume:
		s.cycMu.Lock()
		err := s.w.Activate(spec.Link)
		act := activation{node: a.Node, cycle: uint64(len(s.cycles) - 1), at: now()}
		s.cycMu.Unlock()
		s.mu.Lock()
		s.activations = append(s.activations, act)
		s.mu.Unlock()
		return send(wire.CmdResume, err)
	case treat.ActScaleUp:
		return send(wire.CmdResume, s.setRunnables(spec, true))
	case treat.ActRestartRunnables:
		return send(wire.CmdRestart, nil)
	}
	return fmt.Errorf("treat executor: unknown action kind %d", a.Kind)
}

func (s *stack) setRunnables(spec *ingest.NodeSpec, active bool) error {
	var first error
	for _, rid := range spec.Runnables {
		var err error
		if active {
			err = s.w.Activate(rid)
		} else {
			err = s.w.Deactivate(rid)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// onAction is the controller's ActionSink: the action log, and with
// the WAL attached the durable action record swwdd writes.
func (s *stack) onAction(a treat.Action, execErr bool) {
	t := now()
	inc := s.incOf[a.Cause].Load()
	s.mu.Lock()
	s.actions = append(s.actions, actionLog{at: t, kind: a.Kind, node: a.Node, cause: a.Cause, incident: inc, cmdSeq: s.execSeq, execErr: execErr})
	s.mu.Unlock()
	s.tr.add("treat.action."+a.Kind.String(), t, t, int64(a.Node), int64(inc))
	if s.hist == nil {
		return
	}
	rec := wal.Action{Kind: uint8(a.Kind), Node: a.Node, Cause: a.Cause, SimTimeNs: int64(a.Time), ExecErr: execErr}
	s.walAppend("wal.append.action", int64(a.Node), func() bool { return s.hist.AppendAction(rec) }, func() {
		s.walActs = append(s.walActs, rec)
	})
}

// onJournal streams each journaled detection to the WAL, as swwdd
// does. It runs under the watchdog lock.
func (s *stack) onJournal(e core.JournalEntry) {
	s.walAppend("wal.append.detection", int64(s.nodeOf[e.Runnable]), func() bool { return s.hist.AppendDetection(wal.FromJournal(e)) }, func() {
		s.walDets = append(s.walDets, e.Seq)
	})
}

// walAppend times one WAL append; kept runs under s.mu when the WAL
// accepted the record.
func (s *stack) walAppend(name string, node int64, appendFn func() bool, kept func()) {
	traced := s.tr.on.Load()
	t0 := now()
	ok := appendFn()
	t1 := now()
	var target uint64
	if traced {
		// Records take WAL sequence numbers in append order, so the
		// record is durable once SyncedSeq reaches the append count
		// read after it.
		target = s.hist.Stats().Appended
		s.walAppendNs.add(float64(t1 - t0))
		s.tr.add(name, t0, t1, node, int64(target))
	}
	if !ok {
		return
	}
	s.mu.Lock()
	kept()
	if traced {
		s.pending = append(s.pending, walPending{seq: target, at: t1})
	}
	s.mu.Unlock()
}

// startLoops starts the cycle loop, the scraper, and with the WAL
// the counter-delta shipper and the durability poller.
func (s *stack) startLoops() {
	s.wg.Add(2)
	go s.cycleLoop()
	go s.scrapeLoop()
	if s.hist != nil {
		s.wg.Add(2)
		go s.shipLoop()
		go s.durableLoop()
	}
}

// cycleLoop drives Watchdog.Cycle from a ticker, as swwd.Service does.
func (s *stack) cycleLoop() {
	defer s.wg.Done()
	tk := time.NewTicker(cyclePeriod)
	defer tk.Stop()
	var last int64
	for {
		select {
		case <-s.stop:
			return
		case <-tk.C:
		}
		s.cycMu.Lock()
		t0 := now()
		c := len(s.cycles)
		s.cycleStart.Store(t0)
		s.curCycle.Store(uint64(c))
		s.w.Cycle()
		t1 := now()
		s.cycles = append(s.cycles, cycleLog{t0, t1})
		s.cycMu.Unlock()
		if s.tr.on.Load() {
			s.cycleUs.add(float64(t1-t0) / 1e3)
			if last > 0 {
				s.cycleLateMs.add(max(0, float64(t0-last-int64(cyclePeriod))) / 1e6)
			}
			s.tr.add("core.cycle", t0, t1, -1, int64(c))
		}
		last = t0
	}
}

// scrapeLoop renders the /metrics exposition once per second the way
// swwdd's exporter does.
func (s *stack) scrapeLoop() {
	defer s.wg.Done()
	tk := time.NewTicker(scrapeEvery)
	defer tk.Stop()
	var snap core.Snapshot
	var buf bytes.Buffer
	var n int64
	for {
		select {
		case <-s.stop:
			return
		case <-tk.C:
		}
		t0 := now()
		s.w.SnapshotInto(&snap)
		t1 := now()
		buf.Reset()
		export.WriteSnapshot(&buf, &snap, s.names)
		export.WriteJournalSeq(&buf, snap.Journal)
		export.WriteIngest(&buf, s.srv.Stats())
		export.WriteIngestDetail(&buf, s.srv.ListenerStats(), s.srv.ShardStats())
		export.WriteTreat(&buf, s.ctrl.Stats())
		if s.hist != nil {
			export.WriteWAL(&buf, s.hist.Stats())
		}
		t2 := now()
		if s.tr.on.Load() {
			s.snapMs.add(float64(t1-t0) / 1e6)
			s.renderMs.add(float64(t2-t1) / 1e6)
			s.tr.add("core.snapshot", t0, t1, -1, n)
			s.tr.add("export.render", t1, t2, -1, n)
		}
		n++
	}
}

// shipLoop appends ingest counter deltas to the WAL, as swwdd does.
func (s *stack) shipLoop() {
	defer s.wg.Done()
	tk := time.NewTicker(walDeltaEvery)
	defer tk.Stop()
	prev := s.srv.Stats()
	for {
		select {
		case <-s.stop:
			return
		case <-tk.C:
		}
		cur := s.srv.Stats()
		if d := statsToDelta(cur.Delta(prev)); !d.IsZero() {
			s.hist.AppendDelta(d)
		}
		prev = cur
	}
}

// durableLoop resolves traced WAL appends against SyncedSeq.
func (s *stack) durableLoop() {
	defer s.wg.Done()
	tk := time.NewTicker(time.Millisecond)
	defer tk.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tk.C:
		}
		synced := s.hist.Stats().SyncedSeq
		t := now()
		s.mu.Lock()
		keep := s.pending[:0]
		for _, pw := range s.pending {
			if pw.seq <= synced {
				s.walDurableMs.add(float64(t-pw.at) / 1e6)
				s.tr.add("wal.durable", pw.at, t, -1, int64(pw.seq))
			} else {
				keep = append(keep, pw)
			}
		}
		s.pending = keep
		s.mu.Unlock()
	}
}

// probeLoop is the probe node's application: it beats every runnable
// (and runs the flow sequence once) per interval and flushes, the
// first time at once.
func (s *stack) probeLoop() {
	defer s.wg.Done()
	tk := time.NewTicker(frameInterval)
	defer tk.Stop()
	for n := int64(0); ; n++ {
		if n > 0 {
			select {
			case <-s.stop:
				return
			case <-tk.C:
			}
		}
		for i := 0; i < s.p.W.runnables; i++ {
			s.probe.Beat(i)
		}
		for i := 0; i < s.p.W.flowLen; i++ {
			s.probe.FlowEvent(i)
		}
		t0 := now()
		s.probe.Flush()
		t1 := now()
		if s.tr.on.Load() {
			s.flushUs.add(float64(t1-t0) / 1e3)
			s.tr.add("client.flush", t0, t1, int64(s.p.Probe), n)
		}
	}
}

// close stops the load, then the loops, then the program's components.
// Safe on a partly built stack.
func (s *stack) close() {
	if s.gen != nil {
		s.gen.close()
	}
	close(s.stop)
	s.wg.Wait()
	if s.probe != nil {
		s.probe.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.ctrl != nil {
		s.ctrl.Close()
	}
	if s.hist != nil {
		s.hist.Close()
	}
}

// harnessBytes is the heap the benchmark's own side of the stack holds:
// the plan's frame contents, the frame book, the generator and the
// logs. heap_mb leaves it out, so that it counts the program's state
// only. Call it once the stack is closed.
func (s *stack) harnessBytes() uint64 {
	p, b, g := s.p, s.book, s.gen
	n := sliceBytes(p.Beats) + sliceBytes(p.Phase) + sliceBytes(p.HubOf) + sliceBytes(p.Kills) + sliceBytes(p.Flow)
	for _, recs := range p.Beats {
		n += sliceBytes(recs)
	}
	n += uint64(unsafe.Sizeof(*b)) + sliceBytes(b.send) + sliceBytes(b.count) + sliceBytes(b.lastAcc) +
		sliceBytes(b.seen) + sliceBytes(b.sentN) + sliceBytes(b.accN)
	for i := range b.lat {
		n += sliceBytes(b.lat[i].v)
	}
	n += uint64(unsafe.Sizeof(*g)) + sliceBytes(g.order) + sliceBytes(g.epochs) + sliceBytes(g.seqs) +
		sliceBytes(g.lastSend) + sliceBytes(g.restart) + sliceBytes(g.alive) + sliceBytes(g.ackSeq) +
		sliceBytes(g.incidents) + sliceBytes(g.cmds) + sendBatch*4096
	n += sliceBytes(s.incOf) + sliceBytes(s.faults) + sliceBytes(s.actions) + sliceBytes(s.cycles) +
		sliceBytes(s.activations) + sliceBytes(s.probeCmds) + sliceBytes(s.walDets) + sliceBytes(s.walActs) +
		sliceBytes(s.pending)
	return n
}

func sliceBytes[T any](v []T) uint64 {
	var z T
	return uint64(cap(v)) * uint64(unsafe.Sizeof(z))
}

// statsToDelta is cmd/swwdd's mapping of an ingest counter difference
// onto the WAL's delta record.
func statsToDelta(d ingest.Stats) wal.Delta {
	return wal.Delta{
		Frames: d.Frames, Bytes: d.Bytes, Accepted: d.Accepted,
		DecodeErrors: d.DecodeErrors, UnknownNode: d.UnknownNode,
		SeqGaps: d.SeqGaps, SeqGapEvents: d.SeqGapEvents, DuplicateDrops: d.DuplicateDrops,
		NodeRestarts: d.NodeRestarts, StaleEpochDrops: d.StaleEpochDrops, IntervalMismatch: d.IntervalMismatch,
		DroppedPackets: d.DroppedPackets, BuffersExhausted: d.BuffersExhausted, ReadErrors: d.ReadErrors,
		CommandsSent: d.CommandsSent, CommandsAcked: d.CommandsAcked,
		CommandsDropped: d.CommandsDropped, CommandStaleAcks: d.CommandStaleAcks,
	}
}
