package chaos

// Campaign execution. Run assembles the loopback fleet exactly like
// the soak tests (BuildFleet → Listen → per-node swwdclient reporters
// → swwd.Service sweeping in real time), with one addition: every
// reporter dials through the Network's fault layer. The schedule then
// plays out in real time — apply/revert pairs at their planned offsets
// — and the collected Result goes to the scenario's oracle.
//
// Counter deltas are bracketed around the fault phase (Before is
// snapped after warm-up, After once reporters have wound down), so
// oracles reason about what the campaign itself did, not warm-up
// noise. The watchdog service stops before the reporters close — the
// same ordering the soak tests use — so the shutdown itself never
// fabricates aliveness faults. A calibration loop stops before both, so
// it never sends a command no reporter is left to ack.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swwd"
	"swwd/internal/ingest"
	"swwd/internal/treat"
	"swwd/swwdclient"
)

// warmupBound caps how long Run waits for every reporter's first
// frame before declaring the environment broken.
const warmupBound = 10 * time.Second

// ackDrainFrames bounds, in reporter flush intervals, how long the wind
// down waits for command acks still in flight when the calibration loop
// stops. An ack rides the node's next frame, so a few intervals cover a
// clean round trip with room for scheduling delay.
const ackDrainFrames = 10

// Runtime is the live state of one campaign run, handed to Fault
// implementations.
type Runtime struct {
	Scenario *Scenario
	Topology Topology // defaults applied
	Network  *Network
	Fleet    *ingest.Fleet

	addr string

	clientMu    sync.Mutex
	clients     []*swwdclient.Client
	closedStats []swwdclient.Stats // accumulated from closed incarnations

	paused []pausedSet // per node, per runnable: beats suppressed
}

type pausedSet []atomic.Bool

// dial opens node n's reporter through the fault layer.
func (rt *Runtime) dial(n uint32) (*swwdclient.Client, error) {
	return swwdclient.Dial(rt.addr,
		swwdclient.WithNode(n),
		swwdclient.WithRunnables(rt.Topology.RunnablesPerNode),
		swwdclient.WithInterval(rt.Topology.Interval),
		swwdclient.WithDialer(rt.Network.DialerFor(n)))
}

// RestartNode closes node n's reporter and dials a fresh one: a new
// session epoch, the ingredient of restart waves and recovery.
func (rt *Runtime) RestartNode(n uint32) error {
	rt.clientMu.Lock()
	defer rt.clientMu.Unlock()
	if old := rt.clients[n]; old != nil {
		rt.closedStats[n] = accumulate(rt.closedStats[n], old.Stats())
		_ = old.Close()
		rt.clients[n] = nil
	}
	c, err := rt.dial(n)
	if err != nil {
		return err
	}
	rt.clients[n] = c
	return nil
}

// PauseRunnable suppresses node's beats for runnable r — the
// process-level hang. The link keeps flowing: frames still carry the
// other runnables' beats.
func (rt *Runtime) PauseRunnable(node uint32, r int) { rt.paused[node][r].Store(true) }

// ResumeRunnable lifts a PauseRunnable.
func (rt *Runtime) ResumeRunnable(node uint32, r int) { rt.paused[node][r].Store(false) }

// Run executes one campaign and returns its Result; Result.Violations
// holds the oracle's verdict. An error means the run infrastructure
// failed (listen, dial, warm-up), not that the oracle failed.
func Run(sc *Scenario) (*Result, error) {
	tp := sc.Topology.Defaults()
	cfg := ingest.FleetConfig{
		Nodes:            tp.Nodes,
		RunnablesPerNode: tp.RunnablesPerNode,
		Interval:         tp.Interval,
		CyclePeriod:      tp.CyclePeriod,
		GraceFrames:      tp.GraceFrames,
		// Derive the command epoch from the seed instead of the wall
		// clock: one less run-to-run difference in the artifacts.
		CommandEpoch: Derive(sc.Seed, 0xCE) | 1,
	}
	if tp.Treatment != nil {
		cfg.Treatment = &ingest.TreatmentConfig{Edges: tp.Treatment.Edges, Policy: tp.Treatment.Policy}
	}
	if tp.Calibration != nil {
		cfg.Calibration = &ingest.CalibrationConfig{Params: *tp.Calibration}
	}
	fleet, err := ingest.BuildFleet(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: BuildFleet: %w", err)
	}
	if fleet.Treat != nil {
		defer fleet.Treat.Close()
	}
	if fleet.Calib != nil {
		defer fleet.Calib.Close()
	}
	addr, err := fleet.Server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: Listen: %w", err)
	}
	defer fleet.Server.Close()

	rt := &Runtime{
		Scenario:    sc,
		Topology:    tp,
		Network:     NewNetwork(sc.Seed, tp.Nodes),
		Fleet:       fleet,
		addr:        addr.String(),
		clients:     make([]*swwdclient.Client, tp.Nodes),
		closedStats: make([]swwdclient.Stats, tp.Nodes),
		paused:      make([]pausedSet, tp.Nodes),
	}
	for n := range rt.paused {
		rt.paused[n] = make(pausedSet, tp.RunnablesPerNode)
	}

	// Reporters first, like the soak: every node has frames in flight
	// before the watchdog starts counting silence.
	for n := 0; n < tp.Nodes; n++ {
		c, err := rt.dial(uint32(n))
		if err != nil {
			rt.closeClients()
			return nil, fmt.Errorf("chaos: dial node %d: %w", n, err)
		}
		rt.clients[n] = c
	}
	stopBeats := make(chan struct{})
	var wg sync.WaitGroup
	for n := 0; n < tp.Nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			tick := time.NewTicker(tp.BeatEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopBeats:
					return
				case <-tick.C:
					rt.clientMu.Lock()
					c := rt.clients[n]
					rt.clientMu.Unlock()
					if c == nil {
						continue
					}
					for r := 0; r < tp.RunnablesPerNode; r++ {
						if !rt.paused[n][r].Load() {
							c.Beat(r)
						}
					}
				}
			}
		}(n)
	}
	stopped := false
	stopAll := func() {
		if stopped {
			return
		}
		stopped = true
		close(stopBeats)
		wg.Wait()
		rt.closeClients()
	}
	defer stopAll()

	warmDeadline := time.Now().Add(warmupBound)
	for fleet.Server.Stats().Accepted < uint64(tp.Nodes) {
		if time.Now().After(warmDeadline) {
			return nil, fmt.Errorf("chaos: warm-up timed out: %+v", fleet.Server.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	svc, err := swwd.NewService(fleet.Watchdog, tp.CyclePeriod)
	if err != nil {
		return nil, fmt.Errorf("chaos: NewService: %w", err)
	}
	if err := svc.Start(); err != nil {
		return nil, fmt.Errorf("chaos: Start: %w", err)
	}
	svcStopped := false
	defer func() {
		if !svcStopped {
			_ = svc.Stop()
		}
	}()
	time.Sleep(sc.Warmup)

	res := &Result{
		Name:   sc.Name,
		Seed:   sc.Seed,
		Plan:   sc.Plan(),
		Before: fleet.Server.Stats(),
	}

	// Play the schedule: apply/revert pairs flattened into one
	// timeline, executed at their planned offsets. Step.For == 0 means
	// one-shot: revert immediately after apply.
	type timelineEvent struct {
		at   time.Duration
		kind string
		step Step
	}
	var timeline []timelineEvent
	for _, st := range sc.Steps {
		timeline = append(timeline, timelineEvent{at: st.At, kind: "apply", step: st})
		if st.For > 0 {
			timeline = append(timeline, timelineEvent{at: st.At + st.For, kind: "revert", step: st})
		}
	}
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].at < timeline[j].at })
	base := time.Now()
	for _, ev := range timeline {
		if d := time.Until(base.Add(ev.at)); d > 0 {
			time.Sleep(d)
		}
		var err error
		if ev.kind == "apply" {
			err = ev.step.Fault.Apply(rt)
			if ev.step.For == 0 {
				if rerr := ev.step.Fault.Revert(rt); err == nil {
					err = rerr
				}
			}
		} else {
			err = ev.step.Fault.Revert(rt)
		}
		rec := ExecutedEvent{
			At:    ev.at.String(),
			Kind:  ev.kind,
			Fault: ev.step.Fault.Describe(),
		}
		if ev.step.For > 0 {
			rec.For = ev.step.For.String()
		}
		if err != nil {
			rec.Err = err.Error()
		}
		res.Events = append(res.Events, rec)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s %s: %w", ev.kind, ev.step.Fault.Describe(), err)
		}
	}
	if d := time.Until(base.Add(sc.Duration)); d > 0 {
		time.Sleep(d)
	}

	// Wind down in the soak order: the calibration loop first, since the
	// commands it sends need live reporters to ack them; then sweeps,
	// then reporters. A batch sent on the loop's last tick is still in
	// flight, so the reporters keep running until its ack lands (bounded:
	// a lost ack stays pending and the oracle reports it).
	if fleet.Calib != nil {
		fleet.Calib.Close()
		drain := time.Now().Add(ackDrainFrames * tp.Interval)
		for fleet.Calib.Status().PendingAcks > 0 && time.Now().Before(drain) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	_ = svc.Stop()
	svcStopped = true
	stopAll()
	// Let in-flight datagrams drain before the closing snapshot.
	time.Sleep(50 * time.Millisecond)

	res.After = fleet.Server.Stats()
	res.Delta = res.After.Delta(res.Before)
	for n := 0; n < tp.Nodes; n++ {
		nr := NodeResult{Node: uint32(n)}
		nr.Link, err = runnableCounts(fleet, fleet.Specs[n].Link)
		if err != nil {
			return nil, err
		}
		for _, rid := range fleet.Specs[n].Runnables {
			fc, err := runnableCounts(fleet, rid)
			if err != nil {
				return nil, err
			}
			nr.Runnables = append(nr.Runnables, fc)
		}
		res.Nodes = append(res.Nodes, nr)
		res.Links = append(res.Links, rt.Network.Stats(uint32(n)))
		res.Client = append(res.Client, rt.closedStats[n])
	}

	if fleet.Calib != nil {
		// The loop was stopped at the start of the wind down.
		st := fleet.Calib.Status()
		res.Calib = &st
	}

	if fleet.Treat != nil {
		res.HasTreatment = true
		fleet.Treat.Close() // stop the policy loop before snapshotting
		res.Actions = fleet.Treat.Actions()
		res.Trace = fleet.Treat.Trace()
		nodes := make([]uint32, tp.Nodes)
		for n := range nodes {
			nodes[n] = uint32(n)
		}
		graph, err := treat.NewGraph(nodes, tp.Treatment.Edges)
		if err != nil {
			return nil, fmt.Errorf("chaos: NewGraph: %w", err)
		}
		replayed := treat.Replay(graph, tp.Treatment.Policy, res.Trace)
		res.ReplayMatches = len(replayed) == len(res.Actions)
		if res.ReplayMatches {
			for i := range replayed {
				if replayed[i] != res.Actions[i] {
					res.ReplayMatches = false
					break
				}
			}
		}
	}

	res.Violations = sc.Oracle.Check(res)
	return res, nil
}

// closeClients closes every live reporter, folding its stats into the
// per-node accumulators.
func (rt *Runtime) closeClients() {
	rt.clientMu.Lock()
	defer rt.clientMu.Unlock()
	for n, c := range rt.clients {
		if c != nil {
			rt.closedStats[n] = accumulate(rt.closedStats[n], c.Stats())
			_ = c.Close()
			rt.clients[n] = nil
		}
	}
}

// runnableCounts reads one runnable's attribution from the watchdog.
func runnableCounts(fleet *ingest.Fleet, rid swwd.RunnableID) (FaultCounts, error) {
	a, ar, pf, err := fleet.Watchdog.RunnableErrors(rid)
	if err != nil {
		return FaultCounts{}, fmt.Errorf("chaos: RunnableErrors(%d): %w", rid, err)
	}
	return FaultCounts{Aliveness: a, Arrival: ar, Flow: pf}, nil
}

// accumulate folds a closed client incarnation's counters into the
// node's running totals (Seq keeps the last incarnation's value).
func accumulate(total, s swwdclient.Stats) swwdclient.Stats {
	total.FramesSent += s.FramesSent
	total.Seq = s.Seq
	total.SendErrors += s.SendErrors
	total.Reconnects += s.Reconnects
	total.FlowDropped += s.FlowDropped
	total.EncodeErrors += s.EncodeErrors
	total.CommandsApplied += s.CommandsApplied
	total.CommandsDropped += s.CommandsDropped
	total.CommandErrors += s.CommandErrors
	return total
}
