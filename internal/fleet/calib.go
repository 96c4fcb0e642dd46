// Calibration wiring: the staged, shadow-guarded fleet rollout that
// turns online estimator baselines (internal/calib) into live
// hypotheses — locally with zero supervision downtime (SetHypothesis
// preserves the in-flight window age), remotely via batched
// CmdSetHypothesis over the wire v3 command channel with per-node ack
// accounting and automatic rollback.
package fleet

import (
	"errors"
	"sync"
	"time"

	"swwd/internal/calib"
	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/wire"
)

// CalibrationConfig enables the online calibration loop on a fleet.
type CalibrationConfig struct {
	// Params are the calibration knobs; WindowCycles is required, the
	// other fields default via calib.Params.WithDefaults.
	Params calib.Params
	// Tick is the controller loop cadence; zero means one estimator
	// window (WindowCycles × CyclePeriod).
	Tick time.Duration
	// MinWindows is the observation-window evidence floor a runnable
	// needs before it is proposed for (calib.Policy.MinWindows); zero
	// means calib.DefaultMinWindows.
	MinWindows int
}

// calibCand is one candidate hypothesis in the current rollout round.
type calibCand struct {
	rid     runnable.ID
	node    uint32
	wireIdx uint32
	hyp     core.Hypothesis
	prior   core.Hypothesis
	applied bool
}

// CalibCandidate is the exported view of one rollout candidate.
type CalibCandidate struct {
	// Runnable is the model runnable ID; Node the owning fleet node.
	Runnable runnable.ID
	Node     uint32
	// Hyp is the candidate; Prior the hypothesis it replaces (valid once
	// the rollout left the shadow stage).
	Hyp   core.Hypothesis
	Prior core.Hypothesis
	// Shadow is the live shadow verdict while the candidate is under
	// evaluation (HasShadow); Applied reports whether the candidate is
	// active on the watchdog.
	Shadow    core.ShadowStats
	HasShadow bool
	Applied   bool
}

// CalibStatus is a point-in-time view of the calibration loop, serving
// the /calib endpoint and the swwd_calib_* metric families.
type CalibStatus struct {
	Stage calib.Stage
	// Rounds counts completed rollouts (fleet-wide adoptions);
	// Rollbacks canary regressions; Rejected candidates the shadow
	// guard refused.
	Rounds    uint64
	Rollbacks uint64
	Rejected  uint64
	// CanaryNodes is the canary subset size of the current round;
	// PendingAcks how many nodes still owe a command ack.
	CanaryNodes int
	PendingAcks int
	// Candidates are the current round's proposals (empty when idle).
	Candidates []CalibCandidate
}

// CalibController drives the staged rollout state machine
// (calib.Stage): Idle → Shadow → Canary → Fleet → Idle, with shadow
// rejection and canary rollback off-ramps. One goroutine ticks the
// machine; every transition is applied under the controller mutex.
type CalibController struct {
	f      *Fleet
	params calib.Params
	policy calib.Policy
	tick   time.Duration

	nodeOf map[runnable.ID]uint32
	wireOf map[runnable.ID]uint32

	mu        sync.Mutex
	stage     calib.Stage
	rounds    uint64
	rollbacks uint64
	rejected  uint64
	baseline  calib.Baseline
	cands     []calibCand
	canaryN   int
	wantSeq   map[uint32]uint64
	cmds      map[uint32][]wire.CmdRec
	preFaults uint64
	holdLeft  int

	stop     chan struct{}
	done     chan struct{}
	closeOne sync.Once
}

// giveUpFactor bounds the shadow stage: a candidate set that has not
// built its clean streak after giveUpFactor × PromoteAfter judged
// windows is rejected rather than shadowed forever.
const giveUpFactor = 8

// buildCalibration validates the configuration and starts the
// calibration controller for a fleet whose watchdog was created with
// the estimator enabled.
func buildCalibration(f *Fleet, cfg *CalibrationConfig, cyclePeriod time.Duration) (*CalibController, error) {
	p := cfg.Params.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if f.Watchdog.Estimator() == nil {
		return nil, errors.New("fleet: calibration requires the estimator (EstimatorWindowCycles)")
	}
	tick := cfg.Tick
	if tick <= 0 {
		tick = time.Duration(p.WindowCycles) * cyclePeriod
	}
	c := &CalibController{
		f:      f,
		params: p,
		policy: calib.Policy{Margin: p.Margin, MinWindows: uint64(cfg.MinWindows)},
		tick:   tick,
		nodeOf: make(map[runnable.ID]uint32),
		wireOf: make(map[runnable.ID]uint32),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for n := range f.Specs {
		spec := &f.Specs[n]
		for i, rid := range spec.Runnables {
			c.nodeOf[rid] = spec.Node
			c.wireOf[rid] = uint32(i)
		}
		// Link runnables are deliberately absent: their hypotheses belong
		// to the treatment plane (quarantine/recovery), not calibration.
	}
	go c.run()
	return c, nil
}

// Close stops the controller goroutine. Idempotent.
func (c *CalibController) Close() {
	c.closeOne.Do(func() {
		close(c.stop)
		<-c.done
	})
}

func (c *CalibController) run() {
	defer close(c.done)
	t := time.NewTicker(c.tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.step()
		}
	}
}

// step advances the state machine by one tick.
func (c *CalibController) step() {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.stage {
	case calib.StageIdle:
		c.proposeLocked()
	case calib.StageShadow:
		c.checkShadowsLocked()
	case calib.StageCanary:
		c.checkCanaryLocked()
	case calib.StageFleet:
		c.checkFleetLocked()
	case calib.StageRolledBack:
		// Transient: the prior hypotheses are restored; resume watching.
		c.stage = calib.StageIdle
	}
}

// proposeLocked snapshots the estimator baseline, derives proposals and
// installs shadow candidates for every node runnable whose proposal
// differs from its active hypothesis.
func (c *CalibController) proposeLocked() {
	w := c.f.Watchdog
	b := w.Estimator().Baseline()
	props := calib.Suggest(b, c.policy)
	if len(props) == 0 {
		return
	}
	c.cands = c.cands[:0]
	for _, p := range props {
		rid := runnable.ID(p.Runnable)
		node, ok := c.nodeOf[rid]
		if !ok {
			continue // link or unmanaged runnable
		}
		hyp := core.Hypothesis{
			AlivenessCycles: p.Hyp.AlivenessCycles,
			MinHeartbeats:   p.Hyp.MinHeartbeats,
			ArrivalCycles:   p.Hyp.ArrivalCycles,
			MaxArrivals:     p.Hyp.MaxArrivals,
		}
		cur, err := w.Hypothesis(rid)
		if err != nil || cur == hyp {
			continue // already adopted (or gone)
		}
		if err := w.SetShadow(rid, hyp); err != nil {
			continue
		}
		c.cands = append(c.cands, calibCand{rid: rid, node: node, wireIdx: c.wireOf[rid], hyp: hyp, prior: cur})
	}
	if len(c.cands) == 0 {
		return
	}
	c.baseline = b
	c.stage = calib.StageShadow
}

// checkShadowsLocked promotes the candidate set to canary once every
// shadow has PromoteAfter consecutive clean windows, or rejects it when
// the evaluation has dragged on without converging.
func (c *CalibController) checkShadowsLocked() {
	w := c.f.Watchdog
	allClean := true
	var maxWindows uint64
	for i := range c.cands {
		v, err := w.ShadowVerdict(c.cands[i].rid)
		if err != nil {
			allClean = false
			continue
		}
		if v.Windows > maxWindows {
			maxWindows = v.Windows
		}
		if v.CleanStreak < uint64(c.params.PromoteAfter) {
			allClean = false
		}
	}
	if allClean {
		c.promoteLocked()
		return
	}
	if maxWindows >= uint64(giveUpFactor*c.params.PromoteAfter) {
		// The candidate set keeps tripping the shadow guard on live
		// traffic: it would false-positive. Reject without ever having
		// raised a fault.
		for i := range c.cands {
			_ = w.ClearShadow(c.cands[i].rid)
		}
		c.cands = c.cands[:0]
		c.rejected++
		c.stage = calib.StageIdle
	}
}

// promoteLocked applies the candidates on the canary node subset —
// locally first (zero supervision gap: the in-flight window age is
// preserved), then via batched CmdSetHypothesis to the canary
// reporters — and records the pre-canary fault counters the rollback
// trigger compares against.
func (c *CalibController) promoteLocked() {
	w := c.f.Watchdog
	c.canaryN = c.params.CanaryCount(len(c.f.Specs))
	c.wantSeq = make(map[uint32]uint64)
	c.cmds = make(map[uint32][]wire.CmdRec)
	for i := range c.cands {
		cand := &c.cands[i]
		_ = w.ClearShadow(cand.rid)
		if !c.isCanary(cand.node) {
			continue
		}
		if err := w.SetHypothesis(cand.rid, cand.hyp); err != nil {
			continue
		}
		cand.applied = true
		c.cmds[cand.node] = append(c.cmds[cand.node], cmdRecFor(cand.wireIdx, cand.hyp))
	}
	c.preFaults = c.faultSumLocked(true)
	c.sendBatchesLocked()
	c.holdLeft = c.params.PromoteAfter
	c.stage = calib.StageCanary
}

// checkCanaryLocked watches the canary: any movement of a canary
// runnable's fault counters rolls the round back; otherwise, once the
// hold period has passed and every canary ack has landed, the rollout
// goes fleet-wide.
func (c *CalibController) checkCanaryLocked() {
	if c.faultSumLocked(true) != c.preFaults {
		c.rollbackLocked()
		return
	}
	c.sendBatchesLocked() // re-send until acks land (loss tolerance)
	if c.holdLeft > 0 {
		c.holdLeft--
		return
	}
	if c.pendingAcksLocked() > 0 {
		return
	}
	c.extendFleetLocked()
}

// extendFleetLocked applies the candidates on every remaining node.
func (c *CalibController) extendFleetLocked() {
	w := c.f.Watchdog
	for i := range c.cands {
		cand := &c.cands[i]
		if cand.applied {
			continue
		}
		if err := w.SetHypothesis(cand.rid, cand.hyp); err != nil {
			continue
		}
		cand.applied = true
		c.cmds[cand.node] = append(c.cmds[cand.node], cmdRecFor(cand.wireIdx, cand.hyp))
	}
	c.sendBatchesLocked()
	c.stage = calib.StageFleet
}

// checkFleetLocked completes the round once every node's ack landed.
func (c *CalibController) checkFleetLocked() {
	c.sendBatchesLocked()
	if c.pendingAcksLocked() > 0 {
		return
	}
	c.rounds++
	c.cands = c.cands[:0]
	c.wantSeq = nil
	c.cmds = nil
	c.stage = calib.StageIdle
}

// rollbackLocked restores the prior hypotheses on every applied
// candidate — locally (supervision recovers immediately) and, best
// effort, on the canary reporters.
func (c *CalibController) rollbackLocked() {
	w := c.f.Watchdog
	restore := make(map[uint32][]wire.CmdRec)
	for i := range c.cands {
		cand := &c.cands[i]
		if !cand.applied {
			continue
		}
		_ = w.SetHypothesis(cand.rid, cand.prior)
		restore[cand.node] = append(restore[cand.node], cmdRecFor(cand.wireIdx, cand.prior))
	}
	for node, recs := range restore {
		_, _ = c.f.Server.SendCommand(node, recs...)
	}
	c.cands = c.cands[:0]
	c.wantSeq = nil
	c.cmds = nil
	c.rollbacks++
	c.stage = calib.StageRolledBack
}

// sendBatchesLocked (re-)sends the per-node command batches to every
// node that has not acked its batch yet. Each re-send allocates a fresh
// sequence number; applying the same hypothesis twice is idempotent on
// the reporter, and the round converges when any send's ack lands.
func (c *CalibController) sendBatchesLocked() {
	for node, recs := range c.cmds {
		if len(recs) == 0 {
			continue
		}
		want, sent := c.wantSeq[node]
		if sent && c.f.Server.NodeCommandAcked(node) >= want {
			continue
		}
		if seq, err := c.f.Server.SendCommand(node, recs...); err == nil {
			c.wantSeq[node] = seq
		}
	}
}

// pendingAcksLocked counts nodes whose batch has not been acknowledged.
func (c *CalibController) pendingAcksLocked() int {
	pending := 0
	for node, recs := range c.cmds {
		if len(recs) == 0 {
			continue
		}
		want, sent := c.wantSeq[node]
		if !sent || c.f.Server.NodeCommandAcked(node) < want {
			pending++
		}
	}
	return pending
}

// faultSumLocked sums the aliveness and arrival error-indication
// counters over the candidates (canary-only or all). Program-flow
// errors are excluded: flow checking is hypothesis-independent.
func (c *CalibController) faultSumLocked(canaryOnly bool) uint64 {
	var sum uint64
	for i := range c.cands {
		cand := &c.cands[i]
		if canaryOnly && !c.isCanary(cand.node) {
			continue
		}
		a, ar, _, err := c.f.Watchdog.RunnableErrors(cand.rid)
		if err == nil {
			sum += a + ar
		}
	}
	return sum
}

// isCanary reports whether node belongs to the canary subset: the
// CanaryCount lowest node IDs, a deterministic choice a replayed
// rollout reproduces.
func (c *CalibController) isCanary(node uint32) bool {
	return node < uint32(c.canaryN)
}

// cmdRecFor encodes one hypothesis command record.
func cmdRecFor(wireIdx uint32, h core.Hypothesis) wire.CmdRec {
	return wire.CmdRec{Op: wire.CmdSetHypothesis, Runnable: wireIdx, Hyp: wire.HypothesisParams{
		AlivenessCycles: uint32(h.AlivenessCycles),
		MinHeartbeats:   uint32(h.MinHeartbeats),
		ArrivalCycles:   uint32(h.ArrivalCycles),
		MaxArrivals:     uint32(h.MaxArrivals),
	}}
}

// Status reports the calibration loop's current state.
func (c *CalibController) Status() CalibStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CalibStatus{
		Stage:       c.stage,
		Rounds:      c.rounds,
		Rollbacks:   c.rollbacks,
		Rejected:    c.rejected,
		CanaryNodes: c.canaryN,
	}
	if c.cmds != nil {
		st.PendingAcks = c.pendingAcksLocked()
	}
	for i := range c.cands {
		cand := &c.cands[i]
		cc := CalibCandidate{
			Runnable: cand.rid,
			Node:     cand.node,
			Hyp:      cand.hyp,
			Prior:    cand.prior,
			Applied:  cand.applied,
		}
		if v, err := c.f.Watchdog.ShadowVerdict(cand.rid); err == nil {
			cc.Shadow, cc.HasShadow = v, true
		}
		st.Candidates = append(st.Candidates, cc)
	}
	return st
}

// LastBaseline returns the recorded baseline the current (or most
// recent) rollout round was suggested from — the replay input: feeding
// it through calib.Suggest with the controller's policy reproduces the
// round's proposals bit for bit.
func (c *CalibController) LastBaseline() calib.Baseline {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.baseline
	b.Runnables = append([]calib.RunnableBaseline(nil), c.baseline.Runnables...)
	return b
}

// Policy reports the suggestion policy the controller replays with.
func (c *CalibController) Policy() calib.Policy { return c.policy }
