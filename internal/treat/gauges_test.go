package treat

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"swwd/internal/sim"
)

// walkGauges is the reference for the controller's incremental
// bookkeeping: one walk over every node, returning the quarantined set
// and the number of nodes scaled down but not quarantined (see Stats).
func walkGauges(e *Engine) (map[uint32]struct{}, int) {
	quarantined := make(map[uint32]struct{})
	scaled := 0
	for _, n := range e.g.Nodes() {
		if e.Quarantined(n) {
			quarantined[n] = struct{}{}
		} else if e.ScaledDown(n) {
			scaled++
		}
	}
	return quarantined, scaled
}

// gaugeCase decodes a fuzz input into a graph, a policy and an event
// sequence. Edges always point from a higher node index to a lower one,
// so every decoded graph is a DAG; the input picks shared dependents
// (a node on several hubs), hub chains and the policy switches. Event
// nodes one past the last index name a node outside the graph.
func gaugeCase(data []byte) (nodes []uint32, edges []Edge, pol Policy, events []Event) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%15
	for i := 0; i < n; i++ {
		nodes = append(nodes, uint32(7*i+3))
	}
	p := next()
	pol = Policy{
		RecoveryFrames:    1 + p%3,
		RestartDependents: p&4 != 0,
		DisableScaleDown:  p&0x18 == 0x18,
	}
	seen := make(map[Edge]bool)
	add := func(a, b int) {
		if a == b {
			return
		}
		if a < b {
			a, b = b, a
		}
		e := Edge{Node: nodes[a], DependsOn: nodes[b]}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	if p&0x20 != 0 {
		for i := 1; i < n; i++ {
			add(i, i-1) // a chain of hubs
		}
	}
	for k := next() % (2 * n); k > 0; k-- {
		add(next()%n, next()%n)
	}
	for i, b := range data {
		node := uint32(1 << 20) // outside the graph
		if idx := int(b&0x3f) % (n + 1); idx < n {
			node = nodes[idx]
		}
		ev := Event{Node: node, Time: sim.Time(i)}
		switch b >> 6 {
		case 0:
			ev.Kind = EvLinkFault
		case 3:
			ev.Kind, ev.Restarted = EvFrame, true
		default:
			ev.Kind = EvFrame
		}
		events = append(events, ev)
	}
	return nodes, edges, pol, events
}

// FuzzControllerGauges checks the controller's incremental gauges and
// interested set against a full walk of the engine state after every
// event, over random DAGs and random link faults, frames and restarted
// frames; and that replaying the recorded trace through a fresh engine
// reproduces the actions and the counts.
func FuzzControllerGauges(f *testing.F) {
	// A hub chain with a shared dependent, faulted and recovered.
	f.Add([]byte{4, 0x20, 2, 3, 0, 3, 1, 0x00, 0x01, 0x40, 0x40, 0x41, 0x41, 0x02, 0xc0, 0x40, 0x40, 0x42})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		in := make([]byte, 8+rng.Intn(120))
		rng.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes, edges, pol, events := gaugeCase(data)
		g, err := NewGraph(nodes, edges)
		if err != nil {
			t.Fatalf("decoded graph rejected: %v", err)
		}
		c := newController(g, pol, nil, sim.NewManualClock(), Options{})
		var scratch []Action
		for i, ev := range events {
			scratch = c.step(ev, scratch[:0])
			wantSet, wantScaled := walkGauges(c.eng)
			s := c.Stats()
			if s.ActiveQuarantines != len(wantSet) || s.ActiveScaledDown != wantScaled {
				t.Fatalf("event %d %+v: gauges %d/%d, walk %d/%d",
					i, ev, s.ActiveQuarantines, s.ActiveScaledDown, len(wantSet), wantScaled)
			}
			if got := *c.interested.Load(); !maps.Equal(got, wantSet) {
				t.Fatalf("event %d %+v: interested set %v, walk %v", i, ev, got, wantSet)
			}
		}
		trace := c.Trace()
		if !slices.Equal(Replay(g, pol, trace), c.Actions()) {
			t.Fatal("replaying the trace does not reproduce the live actions")
		}
		e := NewEngine(g, pol)
		for _, ev := range trace {
			e.Decide(ev, nil)
		}
		q, sd := e.Active()
		if lq, lsd := c.eng.Active(); q != lq || sd != lsd {
			t.Fatalf("replayed counts %d/%d, live %d/%d", q, sd, lq, lsd)
		}
	})
}
