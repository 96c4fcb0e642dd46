package core

import (
	"runtime"
	"time"
)

// This file holds the watchdog lock's two helpers: lock, which every
// cold-path site takes w.mu through, and giveWayLocked, which the two
// O(fleet) holders — the due sweep and the telemetry scrape — call at
// their page boundaries so that no caller waits for a whole pass.

// holdBudget is how long a paged holder of w.mu keeps it before it
// gives way: one to two thousand runnables of sweep or scrape work on
// the 2-CPU Xeon VM. The treatment executor's batch and the beat
// path's flow and eager-arrival reports wait about this long plus one
// page (or until a burst of detections ends), instead of the rest of
// the pass.
const holdBudget = 50 * time.Microsecond

// lock acquires w.mu. A caller that finds it held is counted in
// w.waiters while it blocks, so a paged holder knows someone waits, and
// in w.handoffs once it has the lock, so a holder that gave way knows
// someone got in.
func (w *Watchdog) lock() {
	if w.mu.TryLock() {
		return
	}
	w.waiters.Add(1)
	w.mu.Lock()
	w.handoffs.Add(1)
	w.waiters.Add(-1)
}

// giveWayLocked lets the caller's hold of w.mu, begun at *held, be
// interrupted once it has passed holdBudget and either the caller has
// something to hand over (pending: the sweep reported a detection since
// it last gave way) or another caller waits for the lock. Giving way is
// Unlock, runtime.Gosched and lock again. sync.Mutex does not hand the
// lock to a waiter: without the Gosched the holder usually wins it
// back, and the Sink's consumer, woken onto this processor by the
// detection, would not run until the pass ended. Even with it, a waiter
// woken on another processor can lose the race, so while a caller waits
// the holder keeps yielding until one waiter has taken the lock, for at
// most holdBudget. It reports whether it gave way; *held then restarts.
// Requires w.mu.
func (w *Watchdog) giveWayLocked(held *time.Time, pending bool) bool {
	waiting := w.waiters.Load() != 0
	if !pending && !waiting {
		return false
	}
	if time.Since(*held) < holdBudget {
		return false
	}
	h := w.handoffs.Load()
	w.mu.Unlock()
	runtime.Gosched()
	for deadline := time.Now().Add(holdBudget); waiting && w.handoffs.Load() == h && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	w.lock()
	*held = time.Now()
	return true
}
