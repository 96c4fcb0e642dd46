package core

import (
	"fmt"

	"swwd/internal/runnable"
)

// Monitor is a per-runnable heartbeat handle, the preferred hot-path API:
// Register resolves the runnable once, and Beat then reports heartbeats
// with no bounds check, no task lookup and no locks on the healthy path.
// This is the paper's "automatically generated glue code" shape — the
// instrumentation site holds a direct reference to its monitoring state.
//
// A Monitor is valid for the lifetime of its Watchdog and is safe for
// concurrent use; any number of goroutines may share one handle or hold
// their own handle for the same runnable.
type Monitor struct {
	w   *Watchdog
	hs  *hotState
	rid runnable.ID
}

// Register returns the heartbeat handle for a runnable. Unknown
// identifiers report ErrUnknownRunnable.
func (w *Watchdog) Register(rid runnable.ID) (*Monitor, error) {
	if err := w.checkRunnable(rid); err != nil {
		return nil, fmt.Errorf("core: Register(%d): %w", rid, err)
	}
	return &Monitor{w: w, hs: &w.hot[rid], rid: rid}, nil
}

// Beat reports one heartbeat: the aliveness indication of Heartbeat on a
// pre-resolved runnable. Lock-free in the healthy case.
func (m *Monitor) Beat() {
	m.w.beat(m.rid, m.hs)
}

// BeatN reports n coalesced heartbeats in a single atomic add — the
// replay primitive for batched remote heartbeat frames (internal/ingest):
// a node that beat 47 times since its last frame lands all 47 in AC and
// ARC at the cost of one Beat. Semantically equivalent to calling Beat n
// times back-to-back within the same monitoring window, except that the
// program-flow check does not run (batching erases execution order; see
// Watchdog.FlowEvent for the ordered PFC replay). n <= 0 is a no-op; n is
// clamped to MaxBatchBeats.
func (m *Monitor) BeatN(n int) {
	m.w.beatN(m.rid, m.hs, n)
}

// ID reports the runnable this handle beats for.
func (m *Monitor) ID() runnable.ID { return m.rid }

// Activate sets the runnable's Activation Status (see Watchdog.Activate).
func (m *Monitor) Activate() error { return m.w.Activate(m.rid) }

// Deactivate clears the runnable's Activation Status and resets its
// counters (see Watchdog.Deactivate).
func (m *Monitor) Deactivate() error { return m.w.Deactivate(m.rid) }

// Counters reports the live heartbeat-monitoring counters of the
// runnable (see Watchdog.CounterSnapshot).
func (m *Monitor) Counters() Counters {
	c, _ := m.w.CounterSnapshot(m.rid) // rid was validated at Register
	return c
}
