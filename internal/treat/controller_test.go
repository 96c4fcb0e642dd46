package treat

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"swwd/internal/sim"
)

// recordingExec collects executed actions.
type recordingExec struct {
	mu      sync.Mutex
	actions []Action
	fail    bool
}

func (r *recordingExec) Execute(a Action) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.actions = append(r.actions, a)
	if r.fail {
		return errors.New("boom")
	}
	return nil
}

func (r *recordingExec) snapshot() []Action {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Action(nil), r.actions...)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestControllerEndToEnd(t *testing.T) {
	g, err := NewGraph([]uint32{1, 2}, []Edge{{Node: 2, DependsOn: 1}})
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewManualClock()
	exec := &recordingExec{}
	c := NewController(g, Policy{RecoveryFrames: 2}, exec, clock, Options{})
	defer c.Close()

	// Healthy frames are filtered before the queue: the engine never
	// sees them.
	c.OnFrame(1, false)
	c.OnFrame(2, false)

	clock.Advance(10 * time.Millisecond)
	c.OnLinkFault(1)
	waitFor(t, "quarantine executed", func() bool {
		s := c.Stats()
		return s.Quarantines == 1 && s.ScaleDowns == 1
	})
	if s := c.Stats(); s.ActiveQuarantines != 1 || s.ActiveScaledDown != 1 {
		t.Fatalf("active gauges = %d/%d, want 1/1", s.ActiveQuarantines, s.ActiveScaledDown)
	}

	// Now node 1's frames are interesting; two of them recover it.
	clock.Advance(10 * time.Millisecond)
	c.OnFrame(1, false)
	c.OnFrame(1, false)
	waitFor(t, "resume executed", func() bool { return c.Stats().Resumes == 1 })
	s := c.Stats()
	if s.ActiveQuarantines != 0 || s.ActiveScaledDown != 0 {
		t.Fatalf("active gauges after recovery = %d/%d, want 0/0", s.ActiveQuarantines, s.ActiveScaledDown)
	}
	if s.ScaleUps != 2 { // self + dependent
		t.Fatalf("scale-ups = %d, want 2", s.ScaleUps)
	}
	if s.Events != 3 { // fault + two frames; healthy frames filtered
		t.Fatalf("events = %d, want 3", s.Events)
	}

	// The executor saw exactly the logged actions, in order, and the
	// recorded trace replays to the same sequence.
	waitFor(t, "executor caught up", func() bool {
		return len(exec.snapshot()) == len(c.Actions())
	})
	live := c.Actions()
	execd := exec.snapshot()
	for i := range live {
		if execd[i] != live[i] {
			t.Fatalf("executed action %d = %+v, want %+v", i, execd[i], live[i])
		}
	}
	replayed := Replay(g, Policy{RecoveryFrames: 2}, c.Trace())
	if len(replayed) != len(live) {
		t.Fatalf("replay produced %d actions, live %d", len(replayed), len(live))
	}
	for i := range live {
		if replayed[i] != live[i] {
			t.Fatalf("replayed action %d = %+v, want %+v", i, replayed[i], live[i])
		}
	}
	// Times on the trace come from the injected clock, not a wall clock.
	for _, ev := range c.Trace() {
		if ev.Time != sim.Time(10*time.Millisecond) && ev.Time != sim.Time(20*time.Millisecond) {
			t.Fatalf("event time %v not from manual clock", ev.Time)
		}
	}
}

// TestControllerGaugesFollowEngineState: a dependent that is itself
// quarantined when its root faults, and resumes while the root still
// holds it down, must read as scaled down in between and as healthy
// once the root resumes. A count of actions cannot track this: the
// engine emits no ScaleDown when the root faults (the dependent is
// quarantined), yet emits the dependent's ScaleUp when the root resumes.
func TestControllerGaugesFollowEngineState(t *testing.T) {
	g, err := NewGraph([]uint32{1, 2}, []Edge{{Node: 2, DependsOn: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(g, Policy{RecoveryFrames: 2}, nil, sim.NewManualClock(), Options{})
	defer c.Close()
	gauges := func(wantQ, wantS int) {
		t.Helper()
		if s := c.Stats(); s.ActiveQuarantines != wantQ || s.ActiveScaledDown != wantS {
			t.Fatalf("active gauges = %d/%d, want %d/%d", s.ActiveQuarantines, s.ActiveScaledDown, wantQ, wantS)
		}
	}

	c.OnLinkFault(2)
	waitFor(t, "node 2 quarantined", func() bool { return c.Stats().Quarantines == 1 })
	gauges(1, 0)
	c.OnLinkFault(1)
	waitFor(t, "node 1 quarantined", func() bool { return c.Stats().Quarantines == 2 })
	gauges(2, 0) // node 2 is held down by node 1 but counts as quarantined

	c.OnFrame(2, false)
	c.OnFrame(2, false)
	waitFor(t, "node 2 resumed", func() bool { return c.Stats().Resumes == 1 })
	gauges(1, 1) // node 1 still holds node 2 down

	c.OnFrame(1, false)
	c.OnFrame(1, false)
	waitFor(t, "node 1 resumed", func() bool { return c.Stats().Resumes == 2 })
	gauges(0, 0)
}

func TestControllerExecErrorsCounted(t *testing.T) {
	g, err := NewGraph([]uint32{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := &recordingExec{fail: true}
	c := NewController(g, Policy{}, exec, sim.NewManualClock(), Options{})
	defer c.Close()
	c.OnLinkFault(1)
	waitFor(t, "exec error counted", func() bool { return c.Stats().ExecErrors == 1 })
}

func TestControllerCloseIdempotent(t *testing.T) {
	g, err := NewGraph([]uint32{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(g, Policy{}, nil, nil, Options{})
	c.Close()
	c.Close() // second close must not panic or hang
	// Logs stay readable after close.
	_ = c.Trace()
	_ = c.Actions()
}

// TestControllerLogsBounded steps a controller past maxLogEvents: the
// logs stop at the cap, every kept event keeps exactly its actions, so
// the kept trace still replays to the kept actions.
func TestControllerLogsBounded(t *testing.T) {
	g, err := NewGraph([]uint32{1, 2}, []Edge{{Node: 2, DependsOn: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{RecoveryFrames: 1}
	c := newController(g, pol, nil, sim.NewManualClock(), Options{})
	// A fault and a recovering frame of the hub, alternating: every
	// event emits actions.
	events := make([]Event, maxLogEvents+101)
	for i := range events {
		events[i] = Event{Kind: EvLinkFault, Node: 1, Time: sim.Time(i)}
		if i%2 == 1 {
			events[i].Kind = EvFrame
		}
	}
	var scratch []Action
	for _, ev := range events {
		scratch = c.step(ev, scratch[:0])
	}
	if got := c.Stats().Events; got != uint64(len(events)) {
		t.Fatalf("Stats.Events = %d, want %d", got, len(events))
	}
	trace := c.Trace()
	if len(trace) != maxLogEvents || !slices.Equal(trace, events[:maxLogEvents]) {
		t.Fatalf("trace holds %d events, want the first %d", len(trace), maxLogEvents)
	}
	actions := c.Actions()
	if !slices.Equal(Replay(g, pol, trace), actions) {
		t.Fatal("replaying the kept trace does not reproduce the kept actions")
	}
	if all := Replay(g, pol, events); len(actions) >= len(all) {
		t.Fatalf("action log holds %d actions, all %d events emit %d: past the cap it kept growing",
			len(actions), len(events), len(all))
	}
}
