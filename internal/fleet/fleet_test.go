package fleet

import (
	"fmt"
	"slices"
	"testing"

	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// TestBuildLayout pins the fleet's numbering: node n's runnables take
// the consecutive IDs n*(R+1) .. n*(R+1)+R-1, its link runnable the next
// one, and Names follows the "node%04d/r%d" and "node%04d/link" scheme.
func TestBuildLayout(t *testing.T) {
	const nodes, rpn = 3, 2
	f, err := Build(Config{Nodes: nodes, RunnablesPerNode: rpn, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n, spec := range f.Specs {
		base := runnable.ID(n * (rpn + 1))
		if want := []runnable.ID{base, base + 1}; spec.Node != uint32(n) || !slices.Equal(spec.Runnables, want) || spec.Link != base+rpn {
			t.Fatalf("Specs[%d] = %+v, want node %d runnables %v link %d", n, spec, n, want, base+rpn)
		}
		names = append(names, fmt.Sprintf("node%04d/r0", n), fmt.Sprintf("node%04d/r1", n), fmt.Sprintf("node%04d/link", n))
	}
	if !slices.Equal(f.Names, names) {
		t.Fatalf("Names = %v, want %v", f.Names, names)
	}
	if st := f.Server.Stats(); st.Nodes != nodes {
		t.Fatalf("Stats.Nodes = %d, want %d", st.Nodes, nodes)
	}
}

// TestBuildConfiguresEveryRunnable builds a fleet whose runnables and
// links each take more than one set-up batch (core.SetupBatchOps) and
// checks that every one of them got its hypothesis and was activated.
func TestBuildConfiguresEveryRunnable(t *testing.T) {
	const nodes = core.SetupBatchOps/2 + 100
	f, err := Build(Config{Nodes: nodes, RunnablesPerNode: 1, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range f.Specs {
		for _, rid := range append(slices.Clone(spec.Runnables), spec.Link) {
			hyp, err := f.Watchdog.Hypothesis(rid)
			if err != nil {
				t.Fatal(err)
			}
			c, err := f.Watchdog.CounterSnapshot(rid)
			if err != nil {
				t.Fatal(err)
			}
			if hyp.AlivenessCycles == 0 || !c.Active {
				t.Fatalf("node %d runnable %d: hypothesis %+v, active %v", spec.Node, rid, hyp, c.Active)
			}
		}
	}
}

// TestAppendNodeName checks the fmt-free node names against fmt's
// "node%04d" around every padding boundary, and the runnable and link
// suffixes Build appends to them.
func TestAppendNodeName(t *testing.T) {
	for _, n := range []int{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456} {
		if got, want := string(appendNodeName(nil, n)), fmt.Sprintf("node%04d", n); got != want {
			t.Errorf("appendNodeName(%d) = %q, want %q", n, got, want)
		}
	}
	// Reusing the buffer leaves no stale bytes behind.
	buf := appendNodeName(nil, 10000)
	if got := string(appendNodeName(buf[:0], 7)); got != "node0007" {
		t.Errorf("appendNodeName into a reused buffer = %q, want %q", got, "node0007")
	}
}

// BenchmarkFleetBuild assembles a whole fleet of 4-runnable nodes per
// op: model, watchdog, hypotheses and server registration. Set-up is
// linear when ns/node stays flat from 10k to 100k nodes.
func BenchmarkFleetBuild(b *testing.B) {
	for _, nodes := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("nodes=%dk", nodes/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(Config{Nodes: nodes, RunnablesPerNode: 4, Clock: sim.NewManualClock()}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
		})
	}
}
