// Command e2ebench is the end-to-end benchmark of the networked
// Software Watchdog: seeded reporter fleets drive the real stack —
// wire frames over host loopback UDP into the ingest server, replay and
// detection in the core watchdog, the treatment controller, the command
// channel back to the reporters, the WAL and a /metrics scraper — in
// one process, and the benchmark prints the user-visible metrics after
// checking the outputs are correct. See README.md.
//
//	go run . --workload steady --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result: one JSON object with
// correct, attempted, failed and metrics. --trace 1 runs the traced
// variant, which reports per-layer metrics and writes its spans under
// --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"swwd/internal/core"
	"swwd/internal/ingest"
	"swwd/internal/treat"
	"swwd/internal/wal"
)

// Run structure. The reference phase runs the workload's kill schedule
// at its reference rate; in traced runs the sustain bisection follows.
const (
	// setup_s is the median of at least minSetups set-ups, and of more,
	// up to maxSetups, until they add up to setupBudget: the fast
	// set-ups (churn's ~30 ms) are the noisiest.
	minSetups   = 5
	maxSetups   = 31
	setupBudget = time.Second
	warmup      = time.Second
	stepDur     = time.Second
	stepSettle  = 250 * time.Millisecond
	stepDrain   = 150 * time.Millisecond
	// refDrain bounds how long the reference phase waits, past
	// stepDrain, for its last frames to be accepted.
	refDrain   = 2 * time.Second
	maxSteps   = 6
	maxRetries = 3 // a failed step is re-run once, up to this many times per run
	// stepCost bounds one step's wall time: settle, window, drain, the
	// realignment pause and up to one send round for each rate switch.
	stepCost  = stepSettle + stepDur + stepDrain + resyncPause + 2*frameInterval
	minRefDur = 8 * time.Second
	// Sustain criteria for one bisection step.
	maxStepLoss = 0.001
	maxStepP99  = cyclePeriod
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	wlName := flag.String("workload", "", "workload: steady, wide or churn")
	seed := flag.Uint64("seed", 1, "seed of the workload plan")
	seconds := flag.Int("seconds", 24, "measured run length in seconds")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	out := flag.String("out", ".bench_build", "directory for WAL segments and span files")
	commit := flag.String("commit", "unknown", "source revision, recorded in the run metadata")
	flag.Parse()

	w, err := lookupWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	r := &runner{w: w, seed: *seed, traced: *traced == 1, out: *out, tr: &tracer{}}
	total := time.Duration(*seconds) * time.Second
	r.refDur = total - warmup
	if r.traced {
		r.refDur -= (maxSteps + maxRetries) * stepCost
	}
	if r.refDur < minRefDur {
		fmt.Fprintf(os.Stderr, "e2ebench: --seconds %d leaves less than %v for the reference phase\n", *seconds, minRefDur)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	res, meta, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	meta["commit"] = *commit
	mb, err := json.Marshal(finite(meta))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: meta:", err)
	}
	fmt.Println("meta", string(mb))
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: FAIL:", f)
	}
	rb, _ := json.Marshal(res)
	fmt.Println(string(rb))
	if !res.Correct {
		return 1
	}
	return 0
}

// runner holds one benchmark run.
type runner struct {
	w      workload
	seed   uint64
	traced bool
	out    string
	tr     *tracer
	refDur time.Duration
	p      *plan
	s      *stack

	failures []string
	killBase int64
	bisectAt int64 // faults after this belong to bisection steps
	steps    []map[string]any
	// hostSteal is the share of host CPU time the hypervisor gave to
	// other guests during the reference phase.
	hostSteal float64
}

func (r *runner) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// phaseStats is what a measured window yields.
type phaseStats struct {
	sent, accepted uint64
	lat            []float64 // send→accept ns, ascending
	partP99        [windowParts]float64
	lossyNodes     int     // nodes that lost a frame; their latencies are left out
	cpuPerFrame    float64 // µs of process CPU per accepted frame
	lateMs         float64 // generator lateness: worst frame
	lateP99Ms      float64 // generator lateness: 99th percentile frame
	capHolds       uint64  // generator wakeups held back by maxInFlight
	rate           float64
}

func (r *runner) run() (*result, map[string]any, error) {
	r.p = makePlan(r.w, r.seed, 300*time.Millisecond, r.refDur-300*time.Millisecond)
	maxFrames := int(1.2 * math.Max(r.w.refFPS*r.refDur.Seconds(), r.w.maxFPS*stepDur.Seconds()))
	var setups []float64
	for spent := 0.0; r.s == nil; {
		runtime.GC()
		s, setup, err := buildStack(r.p, r.tr, r.out, len(setups), maxFrames)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup)
		spent += setup
		if n := len(setups); n >= maxSetups || n >= minSetups && spent >= setupBudget.Seconds() {
			r.s = s // the last stack is kept
			continue
		}
		s.close()
		os.RemoveAll(s.dir)
	}
	s := r.s
	g := s.gen
	time.Sleep(warmup)
	g.realign()

	m := map[string]metric{}
	var ref phaseStats
	var heap uint64
	r.killBase = now()
	g.killBase.Store(r.killBase)
	if r.traced {
		half := r.refDur / 2
		off := r.measure(r.killBase, half, 0)
		r.tr.on.Store(true)
		on := r.measure(now(), time.Duration(r.killBase+int64(r.refDur)-now()), 0)
		r.layerMetrics(m, off, on)
		ref = on
	} else {
		st0, tt0 := stealTicks()
		ref = r.measure(r.killBase, r.refDur, 0)
		st1, tt1 := stealTicks()
		r.hostSteal = float64(st1-st0) / float64(max(1, tt1-tt0))
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = ms.HeapAlloc
	}
	r.checkRefPhase(ref)
	r.tr.on.Store(false)
	r.bisectAt = now()
	// The bisection offers load open-loop: loss is one of its criteria.
	g.capped.Store(false)
	if r.traced {
		m["stack.sustain_fps"] = metric{r.bisect(ref), "1/s"}
		g.setRate(r.w.refFPS)
	}
	r.awaitAcks()
	st := s.srv.Stats()
	incs, cmds := g.logs()
	s.close()

	inc := r.incidents(incs, cmds)
	r.checkFaults(incs)
	r.checkReplay()
	r.checkWAL()
	if st.CommandsAcked != st.CommandsSent || st.CommandsDropped != 0 {
		r.fail("commands: sent=%d acked=%d dropped=%d", st.CommandsSent, st.CommandsAcked, st.CommandsDropped)
	}
	if st.DecodeErrors+st.UnknownNode+st.IntervalMismatch+st.StaleEpochDrops+st.DuplicateDrops != 0 {
		r.fail("ingest: decode_errors=%d unknown_node=%d interval_mismatch=%d stale_epoch=%d duplicates=%d",
			st.DecodeErrors, st.UnknownNode, st.IntervalMismatch, st.StaleEpochDrops, st.DuplicateDrops)
	}
	if g.cmdErrs.Load() != 0 {
		r.fail("generator: %d undecodable command frames", g.cmdErrs.Load())
	}
	if inc.missed > 0 {
		r.fail("incidents: %d of %d incomplete", inc.missed, inc.total)
	}
	if inc.total == 0 {
		r.fail("incidents: the plan scheduled none")
	}

	lost := uint64(0)
	if ref.sent > ref.accepted {
		lost = ref.sent - ref.accepted
	}
	if r.traced {
		m["treat.act_us_p50"] = metric{quantile(inc.actUs, 0.5), "us"}
		m["treat.act_us_p95"] = metric{quantile(inc.actUs, 0.95), "us"}
		m["treat.fanout_us_p95"] = metric{quantile(inc.fanoutUs, 0.95), "us"}
		m["incident.miss_frac"] = metric{frac(inc.missed, inc.total), "frac"}
		m["incident.detect_ms_p95"] = metric{quantile(inc.detect, 0.95), "ms"}
		m["incident.react_ms_p95"] = metric{quantile(inc.react, 0.95), "ms"}
		m["incident.recover_ms_p50"] = metric{quantile(inc.recover, 0.5), "ms"}
		m["ingest.loss_frac"] = metric{frac(int(lost), int(ref.sent)), "frac"}
		r.writeSpans()
	} else {
		m["setup_s"] = metric{quantile(setups, 0.5), "s"}
		m["heap_mb"] = metric{float64(heap-s.harnessBytes()) / (1 << 20), "MB"}
		m["cpu_us_per_frame"] = metric{ref.cpuPerFrame, "us"}
		m["detect_ms_p50"] = metric{quantile(inc.detect, 0.5), "ms"}
		m["react_ms_p50"] = metric{quantile(inc.react, 0.5), "ms"}
	}
	// A layer the workload does not attach (the WAL outside churn)
	// has no samples and reports 0; every end-to-end metric must have
	// samples.
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			if !r.traced {
				r.fail("metric %s has no samples", name)
			}
			m[name] = metric{0, v.Unit}
		}
	}
	res := &result{
		Correct:   len(r.failures) == 0,
		Attempted: ref.sent + uint64(inc.total),
		Failed:    lost + uint64(inc.missed),
		Metrics:   m,
	}
	return res, r.meta(st, setups, ref, inc), nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// measure runs one window of frames sent in [from, from+d) and
// collects its statistics once the window drained. A positive after is
// the rate the generator returns to as soon as the window closes.
func (r *runner) measure(from int64, d time.Duration, after float64) phaseStats {
	s, g := r.s, r.s.gen
	to := from + int64(d)
	g.late.reset()
	g.lateMax.Store(0)
	g.holds.Store(0)
	s.book.openWindow(from, to)
	cpu0, acc0 := cpuNs(), s.srv.Stats().Accepted
	sleepUntil(to)
	cpu1, acc1 := cpuNs(), s.srv.Stats().Accepted
	ps := phaseStats{
		lateMs:    float64(g.lateMax.Load()) / 1e6,
		lateP99Ms: g.late.quantile(0.99) / 1e6,
		capHolds:  g.holds.Load(),
	}
	if after > 0 {
		g.setRate(after)
	}
	time.Sleep(stepDrain)
	// The reference phase counts a frame as lost only once it had
	// refDrain more to arrive, so a host stall at the window's end
	// does not read as loss. A bisection step keeps the fixed drain:
	// its loss criterion is about frames accepted in time.
	for deadline := now() + int64(refDrain); after == 0 && s.book.pending() > 0 && now() < deadline; {
		time.Sleep(10 * time.Millisecond)
	}
	ws := s.book.closeWindow()
	ps.sent, ps.accepted, ps.lat, ps.lossyNodes, ps.partP99 = ws.sent, ws.accepted, ws.lat, ws.lossyNodes, ws.partP99
	if after > 0 {
		g.realign()
	}
	if acc1 > acc0 {
		ps.cpuPerFrame = float64(cpu1-cpu0) / 1e3 / float64(acc1-acc0)
	}
	ps.rate = float64(ps.sent) / d.Seconds()
	return ps
}

func sleepUntil(t int64) {
	if d := time.Duration(t - now()); d > 0 {
		time.Sleep(d)
	}
}

// stepPasses applies the sustain criteria to one window. A step where
// the generator fell behind is invalid rather than failed.
func stepPasses(ps phaseStats, faults bool) (pass, invalid bool, why string) {
	if ps.sent == 0 {
		return false, true, "nothing sent"
	}
	var reasons []string
	if loss := 1 - float64(ps.accepted)/float64(ps.sent); loss > maxStepLoss {
		reasons = append(reasons, fmt.Sprintf("loss %.4f", loss))
	}
	// The latency limit holds in all but one part of the window, so a
	// single scheduler stall of the host does not fail the step.
	over := 0
	for _, p99 := range ps.partP99 {
		if !(p99 <= float64(maxStepP99)) {
			over++
		}
	}
	if over > 1 {
		reasons = append(reasons, fmt.Sprintf("p99 over %v in %d of %d parts", maxStepP99, over, windowParts))
	}
	if faults {
		reasons = append(reasons, "faults")
	}
	if ps.lateP99Ms*1e6 >= float64(cyclePeriod) {
		invalid = true
		reasons = append(reasons, fmt.Sprintf("generator p99 lateness %.1fms (invalid step)", ps.lateP99Ms))
	}
	return len(reasons) == 0, invalid, strings.Join(reasons, ", ")
}

// bisect finds the highest paced rate that meets the sustain criteria,
// bisecting in log space between the reference rate (or, if the
// reference phase failed them, the lowest rate that keeps every node
// within half its link window) and the workload's cap. A step that
// fails, or that the generator could not offer, gets a second trial
// while the retry budget lasts. It reports the rate actually offered
// in the best passing step.
func (r *runner) bisect(ref phaseStats) float64 {
	lo, hi := r.w.refFPS, r.w.maxFPS
	best := ref.rate
	if ok, invalid, _ := stepPasses(ref, false); !ok && !invalid {
		window := time.Duration(ingest.DefaultGraceFrames) * frameInterval
		lo, hi = float64(r.w.nodes)/(window/2).Seconds(), r.w.refFPS
		best = 0
	}
	retries := 0
	for i := 0; i < maxSteps; i++ {
		rate := math.Sqrt(lo * hi)
		ps, pass := r.step(rate)
		if !pass && retries < maxRetries {
			retries++
			ps, pass = r.step(rate)
		}
		if pass {
			lo, best = rate, ps.rate
		} else {
			hi = rate
		}
	}
	if best == 0 {
		best = lo
	}
	return best
}

// step offers rate for one window and judges it.
func (r *runner) step(rate float64) (ps phaseStats, pass bool) {
	s, g := r.s, r.s.gen
	s.mu.Lock()
	nf := len(s.faults)
	s.mu.Unlock()
	g.setRate(rate)
	time.Sleep(stepSettle)
	ps = r.measure(now(), stepDur, r.w.refFPS)
	s.mu.Lock()
	faults := len(s.faults) > nf
	s.mu.Unlock()
	pass, _, why := stepPasses(ps, faults)
	r.steps = append(r.steps, map[string]any{
		"offered_fps": rate, "sent_fps": ps.rate, "pass": pass, "why": why,
		"p99_ms": sortedQuantile(ps.lat, 0.99) / 1e6, "part_p99_ms": ps.partP99[:], "lossy_nodes": ps.lossyNodes,
		"gen_late_p99_ms": ps.lateP99Ms, "gen_late_max_ms": ps.lateMs,
	})
	return ps, pass
}

// checkRefPhase applies the reference-rate oracles. Generator
// lateness is reported, not judged: on a shared host a scheduler stall
// is not a wrong output.
func (r *runner) checkRefPhase(ref phaseStats) {
	if e := r.s.gen.sendErrs.Load(); e != 0 {
		r.fail("generator: %d frames failed to send", e)
	}
	if ref.accepted == 0 {
		r.fail("reference phase accepted no frames")
	}
}

// awaitAcks waits until the server saw every command acked.
func (r *runner) awaitAcks() {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		st := r.s.srv.Stats()
		if st.CommandsAcked == st.CommandsSent {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// incidentStats are the joined per-incident timings.
type incidentStats struct {
	total, missed   int
	detect, react   []float64 // ms past the cycle that should raise the link fault
	recover         []float64 // ms past accepting the frame that completes the recovery streak
	actUs, fanoutUs []float64 // link fault → quarantine; quarantine → last scale-down
}

// faultCycles returns the Cycle calls at which the link of an
// incident's node should fault: the close of its first aliveness window
// that holds none of the node's frames. Windows are aliveCycles long
// and start at the link's latest activation before the kill (cycle 0,
// or the resume executor's). The last frame's beat lands in the window
// open when it was replayed, between its send and accept times; if a
// window closed in that span, either window may hold it, and the fault
// is due at the close of either successor (lo or hi). ok is false if
// the run ended first.
func (r *runner) faultCycles(in incidentLog) (lo, hi uint64, ok bool) {
	s := r.s
	var anchor uint64
	for _, a := range s.activations {
		if a.node == in.node && a.at < in.lastSendNs {
			anchor = a.cycle
		}
	}
	n := s.aliveCycles
	// b is the first window close that began after the accept.
	b := anchor + n
	for b < uint64(len(s.cycles)) && s.cycles[b].start <= in.lastAccNs {
		b += n
	}
	lo, hi = b+n, b+n
	if b-n > anchor && s.cycles[b-n].end >= in.lastSendNs {
		lo = b
	}
	return lo, hi, hi < uint64(len(s.cycles))
}

// incidents joins the generator's kill log with the fault, action and
// command logs. An incident is complete when its detection, every
// expected action and every command those actions sent are present.
func (r *runner) incidents(incs []incidentLog, cmds []cmdLog) incidentStats {
	s := r.s
	s.mu.Lock()
	faults := append([]faultLog(nil), s.faults...)
	actions := append([]actionLog(nil), s.actions...)
	probeCmds := append([]int64(nil), s.probeCmds...)
	s.mu.Unlock()
	s.book.recMu.Lock()
	recoveries := append([]acceptLog(nil), s.book.recovered...)
	s.book.recMu.Unlock()
	type key struct {
		node uint32
		seq  uint64
	}
	arrival := make(map[key]int64, len(cmds)+len(probeCmds))
	for _, c := range cmds {
		arrival[key{c.node, c.seq}] = c.at
	}
	for i, at := range probeCmds {
		arrival[key{r.p.Probe, uint64(i + 1)}] = at
	}
	cmdAt := func(a *actionLog) (int64, bool) {
		if a == nil || a.cmdSeq == 0 {
			return 0, false
		}
		t, ok := arrival[key{a.node, a.cmdSeq}]
		return t, ok
	}
	findAction := func(kind treat.ActionKind, node, cause uint32, from, to int64) *actionLog {
		for i := range actions {
			a := &actions[i]
			if a.kind == kind && a.node == node && a.cause == cause && a.at >= from && a.at < to {
				return a
			}
		}
		return nil
	}

	var st incidentStats
	st.total = len(r.p.Kills)
	st.missed = st.total - len(incs)
	for _, in := range incs {
		x := in.node
		end := in.restartNs
		if end == 0 {
			st.missed++
			continue
		}
		var fault *faultLog
		for i := range faults {
			if f := &faults[i]; f.link && f.node == int32(x) && f.at >= in.lastSendNs && f.at < end {
				fault = f
				break
			}
		}
		recovered := int64(0)
		for _, a := range recoveries {
			if a.node == x && a.at >= end {
				recovered = a.at
				break
			}
		}
		lo, hi, ok := r.faultCycles(in)
		if fault == nil || !ok || recovered == 0 {
			st.missed++
			continue
		}
		due := lo
		if fault.cycle >= hi {
			due = hi
		}
		if fault.cycle < lo {
			r.fail("node %d: link fault at cycle %d, before its window closed at cycle %d", x, fault.cycle, lo)
		}
		deadline, detect := s.cycles[due].start, fault.at
		q := findAction(treat.ActQuarantine, x, x, in.lastSendNs, end)
		complete := q != nil
		last, ok := cmdAt(q)
		complete = complete && ok
		deps := r.p.dependents(x)
		var lastDown int64
		for _, d := range deps {
			a := findAction(treat.ActScaleDown, d, x, in.lastSendNs, end)
			t, ok := cmdAt(a)
			if !ok {
				complete = false
				continue
			}
			last = max(last, t)
			lastDown = max(lastDown, a.at)
		}
		resume := findAction(treat.ActResume, x, x, end, math.MaxInt64)
		resumeAt, ok := cmdAt(resume)
		complete = complete && ok
		for _, d := range deps {
			if _, ok := cmdAt(findAction(treat.ActScaleUp, d, x, end, math.MaxInt64)); !ok {
				complete = false
			}
		}
		if !complete {
			st.missed++
			continue
		}
		st.detect = append(st.detect, float64(detect-deadline)/1e6)
		st.react = append(st.react, float64(last-deadline)/1e6)
		st.recover = append(st.recover, float64(resumeAt-recovered)/1e6)
		if r.traced && detect >= r.killBase+int64(r.refDur/2) {
			st.actUs = append(st.actUs, float64(q.at-detect)/1e3)
			if len(deps) > 0 {
				st.fanoutUs = append(st.fanoutUs, float64(lastDown-q.at)/1e3)
			}
		}
	}
	return st
}

// checkFaults is the kill guard: outside the bisection steps, every
// fault must be an aliveness fault of a node the schedule had killed,
// raised while it was dead.
func (r *runner) checkFaults(incs []incidentLog) {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	bad := 0
	for _, f := range s.faults {
		if f.at >= r.bisectAt {
			continue // judged by its bisection step
		}
		ok := false
		if f.kind == core.AlivenessError {
			for _, in := range incs {
				if in.node == uint32(f.node) && f.at >= in.lastSendNs && (in.restartNs == 0 || f.at < in.restartNs) {
					ok = true
					break
				}
			}
		}
		if !ok {
			if bad < 5 {
				r.fail("fault outside the kill schedule: node %d kind %v at %.3fs", f.node, f.kind, float64(f.at-r.killBase)/1e9)
			}
			bad++
		}
	}
	if bad > 5 {
		r.fail("%d faults outside the kill schedule in total", bad)
	}
}

// checkReplay: replaying the controller's event trace through a fresh
// engine reproduces its action log.
func (r *runner) checkReplay() {
	live := r.s.ctrl.Actions()
	replayed := treat.Replay(r.s.graph, treat.Policy{}, r.s.ctrl.Trace())
	if len(live) != len(replayed) {
		r.fail("treat replay: %d live actions, %d replayed", len(live), len(replayed))
		return
	}
	for i := range live {
		if live[i] != replayed[i] {
			r.fail("treat replay: action %d differs: live %+v replayed %+v", i, live[i], replayed[i])
			return
		}
	}
}

// checkWAL: the closed log replays every detection and action the
// sinks appended.
func (r *runner) checkWAL() {
	s := r.s
	if s.hist == nil {
		return
	}
	defer os.RemoveAll(s.dir)
	h, err := wal.Replay(s.dir)
	if err != nil {
		r.fail("wal replay: %v", err)
		return
	}
	dets := map[uint64]bool{}
	acts := map[wal.Action]int{}
	for _, rec := range h.Records {
		switch rec.Kind {
		case wal.KindDetection:
			dets[rec.Det.JournalSeq] = true
		case wal.KindAction:
			acts[rec.Act]++
		}
	}
	for _, seq := range s.walDets {
		if !dets[seq] {
			r.fail("wal replay: detection journal_seq=%d missing", seq)
			return
		}
	}
	for _, a := range s.walActs {
		if acts[a] == 0 {
			r.fail("wal replay: action %+v missing", a)
			return
		}
		acts[a]--
	}
	if len(s.walDets) == 0 || len(s.walActs) == 0 {
		r.fail("wal: nothing appended (%d detections, %d actions)", len(s.walDets), len(s.walActs))
	}
}

// writeSpans keys each received command's span by the incident whose
// action sent it, like the fault and action spans, and writes the
// span file.
func (r *runner) writeSpans() {
	type cmdKey struct{ node, seq int64 }
	incOf := map[cmdKey]int64{}
	r.s.mu.Lock()
	for _, a := range r.s.actions {
		incOf[cmdKey{int64(a.node), int64(a.cmdSeq)}] = int64(a.incident)
	}
	r.s.mu.Unlock()
	r.tr.rekey("cmd.recv", func(node, seq int64) int64 {
		if inc, ok := incOf[cmdKey{node, seq}]; ok {
			return inc
		}
		return -1
	})
	if err := r.tr.write(filepath.Join(r.out, "spans-"+r.w.name+".tsv")); err != nil {
		r.fail("writing spans: %v", err)
	}
}

// layerMetrics fills the traced run's per-layer metrics from the traced
// half of the reference phase; off is the untraced half.
func (r *runner) layerMetrics(m map[string]metric, off, on phaseStats) {
	// Computed after the phase: the stack is still up.
	s := r.s
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("ingest.accept_us_p50", sortedQuantile(on.lat, 0.5)/1e3, "us")
	put("ingest.accept_us_p99", sortedQuantile(on.lat, 0.99)/1e3, "us")
	var pk, bt uint64
	for _, l := range s.srv.ListenerStats() {
		pk += l.Packets
		bt += l.Batches
	}
	put("ingest.frames_per_batch", float64(pk)/math.Max(1, float64(bt)), "count")
	hwm := 0.0
	for _, sh := range s.srv.ShardStats() {
		hwm = math.Max(hwm, float64(sh.DepthHWM)/float64(sh.Capacity))
	}
	put("ingest.queue_hwm_frac", hwm, "frac")
	st := s.srv.Stats()
	put("ingest.dropped", float64(st.DroppedPackets), "count")
	put("ingest.exhausted", float64(st.BuffersExhausted), "count")
	put("ingest.seq_gaps", float64(st.SeqGaps), "count")

	cyc := s.cycleUs.take()
	put("core.cycle_us_p50", quantile(cyc, 0.5), "us")
	put("core.cycle_us_p99", quantile(cyc, 0.99), "us")
	put("core.cycle_late_ms_max", maxOf(s.cycleLateMs.take()), "ms")
	put("core.fault_us_p50", quantile(s.faultUs.take(), 0.5), "us")
	put("core.snapshot_ms_p50", quantile(s.snapMs.take(), 0.5), "ms")
	snap := s.w.Snapshot()
	var beats uint64
	for _, rs := range snap.Runnables {
		beats += rs.Beats
	}
	put("core.beats_per_frame", float64(beats)/math.Max(1, float64(st.Accepted)), "count")

	ts := s.ctrl.Stats()
	put("treat.events_dropped", float64(ts.EventsDropped), "count")
	put("treat.exec_errors", float64(ts.ExecErrors), "count")
	put("wal.append_ns_p50", quantile(s.walAppendNs.take(), 0.5), "ns")
	dur := s.walDurableMs.take()
	put("wal.durable_ms_p50", quantile(dur, 0.5), "ms")
	put("wal.durable_ms_p95", quantile(dur, 0.95), "ms")
	walDropped := 0.0
	if s.hist != nil {
		walDropped = float64(s.hist.Stats().Dropped)
	}
	put("wal.dropped", walDropped, "count")
	put("export.render_ms_p50", quantile(s.renderMs.take(), 0.5), "ms")
	put("client.flush_us_p50", quantile(s.flushUs.take(), 0.5), "us")
	put("client.commands_applied", float64(s.probe.Stats().CommandsApplied), "count")
	put("gen.late_ms_max", math.Max(off.lateMs, on.lateMs), "ms")
	put("gen.late_ms_p99", on.lateP99Ms, "ms")
	put("gen.send_us_per_frame", float64(s.gen.sendNs.Load())/1e3/math.Max(1, float64(s.gen.sendFrames.Load())), "us")
	put("trace.cpu_us_per_frame_off", off.cpuPerFrame, "us")
	put("trace.cpu_us_per_frame_on", on.cpuPerFrame, "us")
	put("trace.overhead_frac", on.cpuPerFrame/off.cpuPerFrame-1, "frac")
	put("trace.spans", float64(r.tr.count()), "count")
}

func (r *runner) meta(st ingest.Stats, setups []float64, ref phaseStats, inc incidentStats) map[string]any {
	host := hostInfo()
	host["listeners_active"] = st.Listeners
	return map[string]any{
		"workload":            r.w.name,
		"seed":                r.seed,
		"traced":              r.traced,
		"transport":           "host loopback UDP (127.0.0.1), not a real link",
		"host":                host,
		"nodes":               r.w.nodes + 1,
		"runnables_per_node":  r.w.runnables,
		"ref_fps":             r.w.refFPS,
		"ref_sent_fps":        ref.rate,
		"ref_gen_late_max_ms": ref.lateMs,
		"ref_gen_late_p99_ms": ref.lateP99Ms,
		"ref_gen_cap_holds":   ref.capHolds,
		"ref_frame_us_p50":    sortedQuantile(ref.lat, 0.5) / 1e3,
		"ref_frame_us_p99":    sortedQuantile(ref.lat, 0.99) / 1e3,
		"host_steal_frac":     r.hostSteal,
		"ref_phase_s":         r.refDur.Seconds(),
		"setup_s_reps":        setups,
		"ingest_dropped":      st.DroppedPackets,
		"ingest_exhausted":    st.BuffersExhausted,
		"ingest_seq_gaps":     st.SeqGaps,
		"incidents":           inc.total,
		"incidents_missed":    inc.missed,
		"kills_planned":       len(r.p.Kills),
		"bisection":           r.steps,
	}
}

// finite replaces NaN and infinite numbers, which JSON cannot carry,
// with null throughout v.
func finite(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
	case map[string]any:
		for k, e := range x {
			x[k] = finite(e)
		}
	case []map[string]any:
		for _, e := range x {
			finite(e)
		}
	case []float64:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = finite(e)
		}
		return out
	}
	return v
}
