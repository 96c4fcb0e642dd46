package chaos

// The oracle contract. A campaign without a sharp oracle is noise: the
// run "passing" would only mean nothing crashed. Each Oracle states,
// over the fault-phase counter deltas and the end-of-run fault
// attribution, exactly what the campaign must and must not have
// caused — and the blanket rule that every node outside the victim set
// stayed completely fault-free, which is the paper's zero-false-
// positive requirement under adversarial conditions. Oracles assert
// structure (moved / stayed zero / bounded), not exact counts, because
// exact counts depend on kernel scheduling; the determinism guarantee
// lives in the plan, not the tallies.

import (
	"fmt"

	"swwd/internal/fleet"
	"swwd/internal/ingest"
	"swwd/internal/treat"
	"swwd/swwdclient"
)

// FaultCounts is one runnable's end-of-run error attribution.
type FaultCounts struct {
	Aliveness uint64 `json:"aliveness"`
	Arrival   uint64 `json:"arrival"`
	Flow      uint64 `json:"flow"`
}

// Any reports whether any fault was attributed.
func (f FaultCounts) Any() bool { return f.Aliveness != 0 || f.Arrival != 0 || f.Flow != 0 }

// NodeResult is one node's attribution: its link runnable and each
// monitored runnable.
type NodeResult struct {
	Node      uint32        `json:"node"`
	Link      FaultCounts   `json:"link"`
	Runnables []FaultCounts `json:"runnables"`
}

// ExecutedEvent is one schedule entry as executed. At/For are the
// *planned* offsets — the reproducible coordinates — not wall-clock
// measurements.
type ExecutedEvent struct {
	At    string `json:"at"`
	For   string `json:"for,omitempty"`
	Kind  string `json:"kind"` // "apply" or "revert"
	Fault string `json:"fault"`
	Err   string `json:"err,omitempty"`
}

// NodeRunnable addresses one monitored runnable by node and index.
type NodeRunnable struct {
	Node     uint32
	Runnable int
}

// ActionMatch is one required treatment action (kind on node).
type ActionMatch struct {
	Kind treat.ActionKind
	Node uint32
}

// Result is everything a campaign run collected, the oracle's input
// and the nightly artifact payload.
type Result struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	Plan string `json:"plan"`

	// Before/After bracket the fault phase; Delta is their difference —
	// the counters the campaign itself moved, warm-up noise excluded.
	Before ingest.Stats `json:"before"`
	After  ingest.Stats `json:"after"`
	Delta  ingest.Stats `json:"delta"`

	Nodes  []NodeResult       `json:"nodes"`
	Links  []LinkStats        `json:"links"`
	Client []swwdclient.Stats `json:"clients"`
	Events []ExecutedEvent    `json:"events"`

	// Calib is the calibration loop's final status; nil unless the
	// topology attached it.
	Calib *fleet.CalibStatus `json:"calib,omitempty"`

	// Treatment evidence; empty unless the topology attached the
	// control plane.
	HasTreatment  bool           `json:"has_treatment"`
	Actions       []treat.Action `json:"actions,omitempty"`
	Trace         []treat.Event  `json:"trace,omitempty"`
	ReplayMatches bool           `json:"replay_matches"`
	// TreatStats is the controller's final Stats. ReplayQuarantined and
	// ReplayScaledDown count the quarantined and the scaled-down (not
	// quarantined) nodes of a fresh engine replayed over Trace: what
	// TreatStats.ActiveQuarantines and ActiveScaledDown must read.
	TreatStats        treat.Stats `json:"treat_stats"`
	ReplayQuarantined int         `json:"replay_quarantined"`
	ReplayScaledDown  int         `json:"replay_scaled_down"`

	Violations []string `json:"violations,omitempty"`
}

// Oracle is a campaign's pass/fail contract, checked against the
// Result. Counter names are the ingest.CounterNames vocabulary and
// refer to fault-phase deltas.
type Oracle struct {
	// Zero lists counters that must not have moved; NonZero counters
	// that must have. Min/Max bound specific counters inclusively.
	Zero    []string
	NonZero []string
	Min     map[string]uint64
	Max     map[string]uint64

	// Victims are the nodes the campaign targets. Every node *not*
	// listed must finish with zero faults on its link and all its
	// runnables — the blanket no-false-positives rule.
	Victims []uint32

	// MustFaultLink / NoLinkFault pin link aliveness on specific nodes
	// (victims included: a victim in NoLinkFault asserts its link
	// survived the fault, as in the hang-under-loss campaign).
	MustFaultLink []uint32
	NoLinkFault   []uint32
	// MustFaultRunnable pins aliveness on specific monitored runnables.
	MustFaultRunnable []NodeRunnable

	// MustAct lists treatment actions that must appear in the action
	// log; ReplayTreatment additionally requires treat.Replay of the
	// recorded trace to reproduce the live actions exactly.
	MustAct         []ActionMatch
	ReplayTreatment bool

	// Extra runs arbitrary additional checks, returning violations.
	// Excluded from JSON artifacts.
	Extra func(*Result) []string `json:"-"`
}

// Check evaluates the oracle, returning one message per violation; an
// empty slice is a pass. Unknown counter names are violations — a
// misspelled oracle must fail loudly, never pass vacuously.
func (o *Oracle) Check(res *Result) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	counter := func(name string) (uint64, bool) {
		c, ok := res.Delta.Counter(name)
		if !ok {
			fail("oracle references unknown counter %q", name)
		}
		return c, ok
	}
	for _, name := range o.Zero {
		if c, ok := counter(name); ok && c != 0 {
			fail("counter %s = %d, want 0", name, c)
		}
	}
	for _, name := range o.NonZero {
		if c, ok := counter(name); ok && c == 0 {
			fail("counter %s = 0, want > 0", name)
		}
	}
	for name, min := range o.Min {
		if c, ok := counter(name); ok && c < min {
			fail("counter %s = %d, want >= %d", name, c, min)
		}
	}
	for name, max := range o.Max {
		if c, ok := counter(name); ok && c > max {
			fail("counter %s = %d, want <= %d", name, c, max)
		}
	}

	victims := make(map[uint32]bool, len(o.Victims))
	for _, n := range o.Victims {
		victims[n] = true
	}
	node := func(id uint32) *NodeResult {
		for i := range res.Nodes {
			if res.Nodes[i].Node == id {
				return &res.Nodes[i]
			}
		}
		fail("oracle references unknown node %d", id)
		return nil
	}
	for i := range res.Nodes {
		nr := &res.Nodes[i]
		if victims[nr.Node] {
			continue
		}
		if nr.Link.Any() {
			fail("healthy node %d link faulted: %+v", nr.Node, nr.Link)
		}
		for r, fc := range nr.Runnables {
			if fc.Any() {
				fail("healthy node %d runnable %d faulted: %+v", nr.Node, r, fc)
			}
		}
	}
	for _, id := range o.MustFaultLink {
		if nr := node(id); nr != nil && nr.Link.Aliveness == 0 {
			fail("node %d link raised no aliveness fault, want >= 1", id)
		}
	}
	for _, id := range o.NoLinkFault {
		if nr := node(id); nr != nil && nr.Link.Aliveness != 0 {
			fail("node %d link raised %d aliveness faults, want 0", id, nr.Link.Aliveness)
		}
	}
	for _, mr := range o.MustFaultRunnable {
		nr := node(mr.Node)
		if nr == nil {
			continue
		}
		if mr.Runnable < 0 || mr.Runnable >= len(nr.Runnables) {
			fail("oracle references unknown runnable %d on node %d", mr.Runnable, mr.Node)
			continue
		}
		if nr.Runnables[mr.Runnable].Aliveness == 0 {
			fail("node %d runnable %d raised no aliveness fault, want >= 1", mr.Node, mr.Runnable)
		}
	}

	if len(o.MustAct) > 0 && !res.HasTreatment {
		fail("oracle requires treatment actions but the topology has no treatment plane")
	}
	for _, m := range o.MustAct {
		found := false
		for _, a := range res.Actions {
			if a.Kind == m.Kind && a.Node == m.Node {
				found = true
				break
			}
		}
		if !found {
			fail("missing treatment action %v on node %d", m.Kind, m.Node)
		}
	}
	if res.HasTreatment {
		if st := res.TreatStats; st.ActiveQuarantines != res.ReplayQuarantined || st.ActiveScaledDown != res.ReplayScaledDown {
			fail("treatment gauges read %d quarantined / %d scaled down, the replayed engine holds %d / %d",
				st.ActiveQuarantines, st.ActiveScaledDown, res.ReplayQuarantined, res.ReplayScaledDown)
		}
	}
	if o.ReplayTreatment {
		if !res.HasTreatment {
			fail("oracle requires treatment replay but the topology has no treatment plane")
		} else if !res.ReplayMatches {
			fail("treat.Replay of the recorded trace diverged from the live actions")
		}
	}

	if o.Extra != nil {
		v = append(v, o.Extra(res)...)
	}
	return v
}
