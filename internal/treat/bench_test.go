package treat

import (
	"fmt"
	"testing"

	"swwd/internal/sim"
)

// BenchmarkTreatDecide measures one full treatment cycle through the
// policy engine — link fault (quarantine + fan-out scale-down) followed
// by the recovery streak (resume + fan-in scale-up) — on a hub node
// with 32 dependents. The benchdiff CI gate watches the ns/op; the
// steady state reuses the action scratch and the per-node scaledBy
// slices, so it settles to zero allocations per cycle.
func BenchmarkTreatDecide(b *testing.B) {
	const dependents = 32
	nodes := []uint32{1}
	var edges []Edge
	for i := uint32(0); i < dependents; i++ {
		n := 100 + i
		nodes = append(nodes, n)
		edges = append(edges, Edge{Node: n, DependsOn: 1})
	}
	g, err := NewGraph(nodes, edges)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(g, Policy{RecoveryFrames: 3})
	var scratch []Action
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i) * 4
		scratch = e.Decide(Event{Kind: EvLinkFault, Node: 1, Time: at}, scratch[:0])
		if len(scratch) != 1+dependents {
			b.Fatalf("fault cycle emitted %d actions", len(scratch))
		}
		for f := sim.Time(1); f <= 3; f++ {
			scratch = e.Decide(Event{Kind: EvFrame, Node: 1, Time: at + f}, scratch[:0])
		}
		if len(scratch) != 2+dependents { // resume + self scale-up + dependents
			b.Fatalf("recovery cycle emitted %d actions", len(scratch))
		}
	}
}

// BenchmarkTreatDecideHealthy measures the no-op path: a frame event on
// a non-quarantined node, the engine's equivalent of the ingest
// steady state.
func BenchmarkTreatDecideHealthy(b *testing.B) {
	g, err := NewGraph([]uint32{1, 2}, []Edge{{Node: 2, DependsOn: 1}})
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(g, Policy{})
	var scratch []Action
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = e.Decide(Event{Kind: EvFrame, Node: 1, Time: sim.Time(i)}, scratch[:0])
		if len(scratch) != 0 {
			b.Fatal("healthy frame emitted actions")
		}
	}
}

// signalExec is a no-op executor that hands every Quarantine and Resume
// to the benchmark loop.
type signalExec chan ActionKind

func (s signalExec) Execute(a Action) error {
	if a.Kind == ActQuarantine || a.Kind == ActResume {
		s <- a.Kind
	}
	return nil
}

// BenchmarkTreatController measures the reaction path through the live
// controller: OnLinkFault until the executor receives the quarantine,
// then a recovery frame until it receives the resume. The graph has the
// benchmark fleet's shape — 8 hubs with 32 dependents each, the rest
// leaves — and the faulting node is a hub, so every round also scales
// 32 dependents down and up. The cost must follow the fault's fan-out,
// not the node count.
func BenchmarkTreatController(b *testing.B) {
	for _, n := range []int{512, 5001} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			const hubs, perHub = 8, 32
			nodes := make([]uint32, n)
			for i := range nodes {
				nodes[i] = uint32(i)
			}
			var edges []Edge
			for i := 0; i < hubs*perHub; i++ {
				edges = append(edges, Edge{Node: uint32(hubs + i), DependsOn: uint32(i % hubs)})
			}
			g, err := NewGraph(nodes, edges)
			if err != nil {
				b.Fatal(err)
			}
			sig := make(signalExec, 1)
			c := NewController(g, Policy{RecoveryFrames: 1}, sig, sim.NewManualClock(), Options{})
			defer c.Close()
			const hub = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.OnLinkFault(hub)
				if k := <-sig; k != ActQuarantine {
					b.Fatalf("got %v, want a quarantine", k)
				}
				// The frame goes straight onto the queue: OnFrame's filter
				// admits the hub only once the set is published, after the
				// fault's actions ran, and the queue keeps the order anyway.
				c.offer(Event{Kind: EvFrame, Node: hub, Time: c.clock.Now()})
				if k := <-sig; k != ActResume {
					b.Fatalf("got %v, want a resume", k)
				}
			}
		})
	}
}
