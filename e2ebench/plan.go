package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"swwd/internal/treat"
	"swwd/internal/wire"
)

// workload is one traffic mix. Every workload runs the same stack with
// swwdd's defaults; they differ in fleet shape, frame width, offered
// rate, kill rate and whether the WAL is attached.
type workload struct {
	name      string
	nodes     int // generator-driven reporter nodes; the probe client is one more
	runnables int // monitored runnables per node
	// The dependency graph: hubs hubs with depsPerHub dependents each;
	// every other node is a leaf. The probe is an extra dependent of
	// the first hub.
	hubs       int
	depsPerHub int
	refFPS     float64 // reference offered rate in frames/s
	// killsPerSec is the kill-slot rate of the schedule; every
	// hubEvery-th slot kills a hub.
	killsPerSec float64
	hubEvery    int
	// flowLen > 0 enrols the first flowLen runnables of every node in
	// program-flow checking as one sequence, which each frame repeats
	// flowReps times.
	flowLen  int
	flowReps int
	// Beat count per runnable record, drawn once per (node, runnable).
	beatMin, beatMax uint32
	wal              bool
	// maxFPS caps the sustain_fps bisection.
	maxFPS float64
}

var workloads = []workload{
	{
		name: "steady", nodes: 5000, runnables: 4,
		hubs: 8, depsPerHub: 32, refFPS: 50000, maxFPS: 250000,
		killsPerSec: 10, hubEvery: 8, beatMin: 1, beatMax: 1,
	},
	{
		name: "wide", nodes: 32, runnables: 256,
		hubs: 2, depsPerHub: 4, refFPS: 6400, maxFPS: 50000,
		killsPerSec: 7, hubEvery: 8, flowLen: 4, flowReps: 256, beatMin: 128, beatMax: 1024,
	},
	{
		name: "churn", nodes: 512, runnables: 4,
		hubs: 8, depsPerHub: 32, refFPS: 5000, maxFPS: 250000,
		killsPerSec: 10, hubEvery: 8, beatMin: 1, beatMax: 1, wal: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Kill timing. A killed node stops sending at its kill time and comes
// back with a new session epoch restartDelay±restartJitter later. Its
// incident (detection, quarantine, scale-down, restart, resume, acks)
// is over well within busyHold after the restart; the planner never
// overlaps two incidents that touch the same hub group.
const (
	restartDelay  = time.Second
	restartJitter = 100 * time.Millisecond
	busyHold      = 700 * time.Millisecond
	busy          = restartDelay + restartJitter + busyHold
)

// kill is one scheduled node death and restart, relative to the start
// of the reference phase.
type kill struct {
	Node    uint32
	At      time.Duration
	Restart time.Duration
}

// plan is everything the generator and the stack derive from the seed.
// makePlan is a pure function of its arguments.
type plan struct {
	W     workload
	Seed  uint64
	Probe uint32   // node ID of the swwdclient probe (== W.nodes)
	Hubs  []uint32 // hub node IDs
	Edges []treat.Edge
	// HubOf[n] is n's hub, or -1 for hubs and leaves.
	HubOf []int32
	// Phase[n] places node n's frames within each send round, in [0,1).
	Phase []float64
	// Beats[n] is the beat record list every frame of node n carries.
	Beats [][]wire.BeatRec
	// Flow is the node-local flow record list every frame carries: the
	// PFC sequence 0..flowLen-1, repeated.
	Flow  []uint32
	Kills []kill // ascending by At
}

// makePlan derives the graph, frame contents and the kill schedule for
// kills in [from, until) from the seed.
func makePlan(w workload, seed uint64, from, until time.Duration) *plan {
	rng := rand.New(rand.NewPCG(seed, 0x5357_4244)) // "SWBD"
	p := &plan{W: w, Seed: seed, Probe: uint32(w.nodes)}

	perm := rng.Perm(w.nodes)
	p.HubOf = make([]int32, w.nodes+1)
	for i := range p.HubOf {
		p.HubOf[i] = -1
	}
	for h := 0; h < w.hubs; h++ {
		p.Hubs = append(p.Hubs, uint32(perm[h]))
	}
	for i := 0; i < w.hubs*w.depsPerHub; i++ {
		d := uint32(perm[w.hubs+i])
		h := p.Hubs[i%w.hubs]
		p.HubOf[d] = int32(h)
		p.Edges = append(p.Edges, treat.Edge{Node: d, DependsOn: h})
	}
	if w.hubs > 0 {
		p.HubOf[p.Probe] = int32(p.Hubs[0])
		p.Edges = append(p.Edges, treat.Edge{Node: p.Probe, DependsOn: p.Hubs[0]})
	}

	p.Phase = make([]float64, w.nodes)
	for n := range p.Phase {
		p.Phase[n] = rng.Float64()
	}
	p.Beats = make([][]wire.BeatRec, w.nodes)
	for n := range p.Beats {
		recs := make([]wire.BeatRec, w.runnables)
		for r := range recs {
			recs[r] = wire.BeatRec{Runnable: uint32(r), Beats: w.beatMin + uint32(rng.IntN(int(w.beatMax-w.beatMin)+1))}
		}
		p.Beats[n] = recs
	}
	for i := 0; i < w.flowLen*w.flowReps; i++ {
		p.Flow = append(p.Flow, uint32(i%w.flowLen))
	}
	p.Kills = planKills(w, p, rng, from, until)
	return p
}

// planKills fills kill slots at killsPerSec. Slot k sits at
// (k + frac(u + k·φ)) / rate: one kill per slot, at phases that spread
// evenly over any detection window, so the detection-latency
// distribution is sampled evenly rather than by chance. Hub kills are
// placed first (every hubEvery-th slot, hubs in a seeded round robin);
// the remaining slots take a random node that is not mid-incident and
// whose hub is not killed within one busy span either side.
func planKills(w workload, p *plan, rng *rand.Rand, from, until time.Duration) []kill {
	if w.killsPerSec <= 0 || until <= from {
		return nil
	}
	const phi = 0.6180339887498949
	u := rng.Float64()
	slot := time.Duration(float64(time.Second) / w.killsPerSec)
	var slots []time.Duration
	for k := 0; ; k++ {
		frac := math.Mod(u+float64(k)*phi, 1)
		at := from + time.Duration(float64(k)+frac)*slot
		if at+busy > until {
			break
		}
		slots = append(slots, at)
	}
	restartOf := func(at time.Duration) time.Duration {
		return at + restartDelay + time.Duration((rng.Float64()*2-1)*float64(restartJitter))
	}

	var kills []kill
	freeAt := make([]time.Duration, w.nodes) // node busy until
	hubKills := make(map[uint32][]time.Duration)
	isHub := make([]bool, w.nodes)
	for _, h := range p.Hubs {
		isHub[h] = true
	}
	hubOrder := rng.Perm(len(p.Hubs))
	taken := make([]bool, len(slots))
	if w.hubEvery > 0 && len(p.Hubs) > 0 {
		next := 0
		for k := 0; k < len(slots); k += w.hubEvery {
			h := p.Hubs[hubOrder[next%len(hubOrder)]]
			next++
			if freeAt[h] > slots[k] {
				continue // this hub's previous incident is still open
			}
			kills = append(kills, kill{Node: h, At: slots[k], Restart: restartOf(slots[k])})
			freeAt[h] = slots[k] + busy
			hubKills[h] = append(hubKills[h], slots[k])
			taken[k] = true
		}
	}
	hubBusyNear := func(h uint32, at time.Duration) bool {
		for _, t := range hubKills[h] {
			if at > t-busy && at < t+busy {
				return true
			}
		}
		return false
	}
	for k, at := range slots {
		if taken[k] {
			continue
		}
		for try := 0; try < 64; try++ {
			n := uint32(rng.IntN(w.nodes))
			if isHub[n] || freeAt[n] > at {
				continue
			}
			if h := p.HubOf[n]; h >= 0 && hubBusyNear(uint32(h), at) {
				continue
			}
			kills = append(kills, kill{Node: n, At: at, Restart: restartOf(at)})
			freeAt[n] = at + busy
			break
		}
	}
	sort.Slice(kills, func(i, j int) bool { return kills[i].At < kills[j].At })
	return kills
}

// dependents lists the nodes a quarantine of n scales down.
func (p *plan) dependents(n uint32) []uint32 {
	var out []uint32
	for _, e := range p.Edges {
		if e.DependsOn == n {
			out = append(out, e.Node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
