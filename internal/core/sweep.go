package core

import (
	"time"

	"swwd/internal/runnable"
)

// This file holds the Cycle sweep implementations: the default
// wheel-based sweep and the retired O(N) full-table walk, kept in-tree
// only as the bit-identical reference for the equivalence replay tests
// and as the "walk" side of BenchmarkCycleSweep (Config.legacySweep, an
// in-package test hook).

// detection is one deferred fault found by the sweep; detections are
// batched so w.mu is taken once per cycle, not once per fault.
type detection struct {
	kind               ErrorKind
	rid                runnable.ID
	observed, expected int
}

// Cycle advances the time-triggered part of the watchdog by one
// monitoring cycle (§3.3: counters are "checked shortly before the next
// period begins" and "reset to zero, if the periods ... expire or an
// error is detected").
//
// The sweep is deadline-driven: only runnables whose aliveness or
// arrival window expires on this very cycle are visited — O(due work)
// via the timer wheel's bitmap buckets instead of the retired O(N) walk
// over every padded counter line. Expiring windows are closed with
// atomic swaps so concurrent heartbeats land in either the closing or
// the next window; detections are batched and reported under one
// acquisition of the cold-path mutex per cycle.
//
// Telemetry: every Cycle is timed into the sweep-duration histogram
// (two monotonic clock reads per cycle, amortized over a whole
// monitoring period), and the optional MetricsSink fires after the
// sweep's locks are released.
func (w *Watchdog) Cycle() {
	start := time.Now()
	var c uint64
	if w.sched == nil {
		c = w.cycleLegacy()
	} else {
		c = w.cycleWheel()
	}
	w.sweepHist.record(time.Since(start))
	w.maybeEmitMetrics(c)
	w.maybeSampleEstimator(c)
}

// cycleWheel is the wheel-based sweep; it returns the new cycle number.
func (w *Watchdog) cycleWheel() uint64 {
	s := w.sched
	s.mu.Lock()
	c := w.cycle.Add(1)
	if c&s.mask == 0 {
		s.migrate(c)
	}
	b := &s.buckets[c&s.mask]
	na, nr, ns := 0, 0, 0
	if b.alive != nil {
		na = b.alive.len()
	}
	if b.arr != nil {
		nr = b.arr.len()
	}
	if b.shadow != nil {
		ns = b.shadow.len()
	}
	if na == 0 && nr == 0 && ns == 0 {
		s.mu.Unlock()
		return c
	}
	s.dueAlive = s.dueAlive[:0]
	s.dueArr = s.dueArr[:0]
	s.dueShadow = s.dueShadow[:0]
	if na > 0 {
		s.dueAlive = b.alive.drainInto(s.dueAlive)
	}
	if nr > 0 {
		s.dueArr = b.arr.drainInto(s.dueArr)
	}
	if ns > 0 {
		s.dueShadow = b.shadow.drainInto(s.dueShadow)
	}
	// The drained deadlines are consumed: mark them unscheduled before
	// processing so the per-item reschedule starts from a clean slate.
	for _, rid := range s.dueAlive {
		r := &s.rs[rid]
		r.aliveDue, r.aliveLoc = 0, locNone
	}
	for _, rid := range s.dueArr {
		r := &s.rs[rid]
		r.arrDue, r.arrLoc = 0, locNone
	}
	for _, rid := range s.dueShadow {
		r := &s.rs[rid]
		r.shadowDue, r.shadowLoc = 0, locNone
	}
	s.items = mergeDue(s.items[:0], s.dueAlive, s.dueArr)
	s.batch = s.batch[:0]
	w.sweepDue(c)
	if len(s.dueShadow) > 0 {
		// Shadow windows are judged after the active ones closed, still
		// under s.mu: due-cycle work inside the same sweep, never a fault.
		w.sweepShadows(c)
	}
	if len(s.batch) > 0 {
		w.mu.Lock()
		for _, d := range s.batch {
			w.detectLocked(d.kind, d.rid, d.observed, d.expected, runnable.NoID)
		}
		w.mu.Unlock()
	}
	s.mu.Unlock()
	return c
}

// sweepDue processes the due items inline: close expiring windows,
// collect detections, restart and re-index the windows. Holds s.mu.
func (w *Watchdog) sweepDue(c uint64) {
	s := w.sched
	for _, it := range s.items {
		rid := int(it.rid)
		hs := &w.hot[rid]
		if hs.active.Load() == 0 {
			continue // defensive: deactivation unschedules under s.mu
		}
		hyp := hs.hyp.Load()
		if it.alive && hyp.AlivenessCycles > 0 {
			ac := hs.closeAliveness()
			if int(ac) < hyp.MinHeartbeats {
				s.batch = append(s.batch, detection{AlivenessError, runnable.ID(rid), int(ac), hyp.MinHeartbeats})
			}
			s.rs[rid].aliveAnchor.Store(c)
			s.schedule(rid, kindAlive, c+uint64(hyp.AlivenessCycles), c)
		}
		if it.arr && hyp.ArrivalCycles > 0 {
			arc := hs.closeArrival()
			if int(arc) > hyp.MaxArrivals {
				s.batch = append(s.batch, detection{ArrivalRateError, runnable.ID(rid), int(arc), hyp.MaxArrivals})
			}
			s.rs[rid].arrAnchor.Store(c)
			s.schedule(rid, kindArr, c+uint64(hyp.ArrivalCycles), c)
		}
	}
}

// cycleLegacy is the retired full-table sweep (Config.legacySweep): one
// pass over every runnable's padded counter line per cycle, per-cycle
// CCA/CCAR increments, one w.mu acquisition per fault. Kept as the
// reference implementation the equivalence tests replay against and as
// the "before" side of BenchmarkCycleSweep.
func (w *Watchdog) cycleLegacy() uint64 {
	c := w.cycle.Add(1)
	for i := range w.hot {
		hs := &w.hot[i]
		if hs.active.Load() == 0 {
			continue
		}
		hyp := hs.hyp.Load()
		if hyp.AlivenessCycles > 0 {
			if hs.cca.Add(1) >= uint32(hyp.AlivenessCycles) {
				ac := hs.closeAliveness()
				hs.cca.Store(0)
				if int(ac) < hyp.MinHeartbeats {
					w.mu.Lock()
					w.detectLocked(AlivenessError, runnable.ID(i), int(ac), hyp.MinHeartbeats, runnable.NoID)
					w.mu.Unlock()
				}
			}
		}
		if hyp.ArrivalCycles > 0 {
			if hs.ccar.Add(1) >= uint32(hyp.ArrivalCycles) {
				arc := hs.closeArrival()
				hs.ccar.Store(0)
				if int(arc) > hyp.MaxArrivals {
					w.mu.Lock()
					w.detectLocked(ArrivalRateError, runnable.ID(i), int(arc), hyp.MaxArrivals, runnable.NoID)
					w.mu.Unlock()
				}
			}
		}
	}
	return c
}

// lockSched acquires the scheduler mutex when the wheel sweep is active
// and returns the matching unlock. Lock order: sched.mu before w.mu.
func (w *Watchdog) lockSched() func() {
	if s := w.sched; s != nil {
		s.mu.Lock()
		return s.mu.Unlock
	}
	return func() {}
}

// reschedFreshLocked re-derives both deadlines of a runnable after its
// counters were reset (activation changes, fault treatment): monitored
// windows restart at the current cycle; everything else freezes at zero.
// Requires sched.mu.
func (w *Watchdog) reschedFreshLocked(rid runnable.ID) {
	s := w.sched
	c := w.cycle.Load()
	i := int(rid)
	s.unschedule(i, kindAlive)
	s.unschedule(i, kindArr)
	hs := &w.hot[i]
	hyp := hs.hyp.Load()
	active := hs.active.Load() != 0
	r := &s.rs[i]
	if active && hyp.AlivenessCycles > 0 {
		r.aliveAnchor.Store(c)
		s.schedule(i, kindAlive, c+uint64(hyp.AlivenessCycles), c)
	} else {
		r.aliveAnchor.Store(frozenFlag)
	}
	if active && hyp.ArrivalCycles > 0 {
		r.arrAnchor.Store(c)
		s.schedule(i, kindArr, c+uint64(hyp.ArrivalCycles), c)
	} else {
		r.arrAnchor.Store(frozenFlag)
	}
}

// reschedPreserveLocked re-derives both deadlines of a runnable after a
// hypothesis change, preserving the elapsed cycle-counter value exactly
// like the reference sweep does (SetHypothesis never resets counters):
// the in-flight window keeps its age, a shortened period that is already
// exceeded expires on the next cycle, and disabling a unit freezes the
// counter where it stands. Requires sched.mu.
func (w *Watchdog) reschedPreserveLocked(rid runnable.ID) {
	s := w.sched
	c := w.cycle.Load()
	i := int(rid)
	hs := &w.hot[i]
	hyp := hs.hyp.Load()
	active := hs.active.Load() != 0
	r := &s.rs[i]

	elapsed := anchorElapsed(r.aliveAnchor.Load(), c)
	if elapsed > c {
		elapsed = c // defensive: anchors never precede cycle zero
	}
	s.unschedule(i, kindAlive)
	if active && hyp.AlivenessCycles > 0 {
		start := c - elapsed
		due := start + uint64(hyp.AlivenessCycles)
		if due <= c {
			due = c + 1
		}
		r.aliveAnchor.Store(start)
		s.schedule(i, kindAlive, due, c)
	} else {
		r.aliveAnchor.Store(frozenFlag | elapsed)
	}

	elapsed = anchorElapsed(r.arrAnchor.Load(), c)
	if elapsed > c {
		elapsed = c
	}
	s.unschedule(i, kindArr)
	if active && hyp.ArrivalCycles > 0 {
		start := c - elapsed
		due := start + uint64(hyp.ArrivalCycles)
		if due <= c {
			due = c + 1
		}
		r.arrAnchor.Store(start)
		s.schedule(i, kindArr, due, c)
	} else {
		r.arrAnchor.Store(frozenFlag | elapsed)
	}
}

// reschedArrivalRestartLocked restarts the arrival window after an eager
// arrival detection reset ARC mid-period (the reference sweep's
// ccar.Store(0)). Requires sched.mu.
func (w *Watchdog) reschedArrivalRestartLocked(rid runnable.ID, hyp *Hypothesis) {
	s := w.sched
	c := w.cycle.Load()
	i := int(rid)
	s.unschedule(i, kindArr)
	r := &s.rs[i]
	if hyp.ArrivalCycles > 0 {
		r.arrAnchor.Store(c)
		s.schedule(i, kindArr, c+uint64(hyp.ArrivalCycles), c)
	} else {
		r.arrAnchor.Store(frozenFlag)
	}
}
