package core

import (
	"math/bits"
	"time"

	"swwd/internal/runnable"
)

// This file holds the Cycle sweep over the due-cycle timer wheel
// (wheel.go) and the rescheduling that keeps the wheel's deadlines in
// step with the counters. The executable specification in spec_test.go
// states what the sweep must compute; FuzzWatchdogAgainstSpec and
// TestSweepEquivalence hold it to that.

// Cycle advances the time-triggered part of the watchdog by one
// monitoring cycle (§3.3: counters are "checked shortly before the next
// period begins" and "reset to zero, if the periods ... expire or an
// error is detected").
//
// The sweep is deadline-driven: only runnables whose aliveness or
// arrival window expires on this very cycle are visited — O(due work)
// via the timer wheel's bitmap buckets instead of an O(N) walk over
// every padded counter line. An expiring window is closed with one
// atomic load of the runnable's beat counter and a plain store of the
// window's baseline under w.mu, so concurrent heartbeats land in either
// the closing or the next window. Each detection is
// reported the moment its window is judged (§3.3: the TSI reports an
// error indication as the counters are checked), so a fault early in
// a large sweep reaches the Sink before the later runnables of the
// same cycle have been visited.
//
// A long sweep gives the watchdog's lock away between bitset words
// (see sweepDue), so the Sink's consumer can treat a fault while the
// rest of the bucket is still being swept, and a configuration call
// made meanwhile applies before the next word. Cycle callers are
// serialized on cycleMu: a second Cycle, or a ClearAll, waits for the
// sweep to return instead of running in such a gap.
//
// Telemetry: every Cycle is timed into the sweep-duration histogram
// (two monotonic clock reads per cycle, amortized over a whole
// monitoring period), and the optional MetricsSink fires after the
// sweep released the lock.
func (w *Watchdog) Cycle() {
	start := time.Now()
	c := w.cycleWheel()
	w.sweepHist.record(time.Since(start))
	w.maybeEmitMetrics(c)
	w.maybeSampleEstimator(c)
}

// cycleWheel is the wheel-based sweep; it returns the new cycle number.
func (w *Watchdog) cycleWheel() uint64 {
	s := w.sched
	w.cycleMu.Lock()
	defer w.cycleMu.Unlock()
	w.lock()
	defer w.mu.Unlock()
	held := time.Now()
	c := w.cycle.Add(1)
	// The previous cycle's slot was drained by its sweep, and nothing
	// can have landed on it since: a deadline scheduled at cycle p lies
	// in (p, p+size), never on slot p. Its bitsets go back to the free
	// list before this sweep reschedules anything.
	s.release(&s.buckets[(c-1)&s.mask])
	if c&s.mask == 0 {
		s.migrate(c)
	}
	b := &s.buckets[c&s.mask]
	if b.alive.len() > 0 || b.arr.len() > 0 {
		w.sweepDue(c, b.alive, b.arr, &held)
	}
	if b.shadow.len() > 0 {
		// Shadow windows are judged after the active ones closed, in
		// the same critical section: due-cycle work, never a fault.
		s.dueShadow = b.shadow.drainInto(s.dueShadow[:0])
		w.sweepShadows(c)
	}
	return c
}

// sweepDue closes the windows due on cycle c in a single pass over the
// union of the bucket's aliveness and arrival bitsets (either may be
// nil), one word at a time, draining both as it goes. Runnables are
// visited in ascending order and a runnable's aliveness window is
// judged before its arrival window, so detections — reported as each
// window is judged — come out in the order of the specification's
// cycle (spec_test.go). The drained bitsets stay on their slot until
// the next Cycle releases them. The runnables of a word whose next aliveness deadline
// is one in-horizon cycle are indexed with one OR into that bucket at
// the end of the word (wordAlive); nothing in the word reads the
// bucket before then, since the Sink and the journal sink run under
// w.mu and cannot reschedule.
//
// After each word without a detection the sweep may give w.mu away
// (giveWayLocked; the hold began at *held): once past the hold budget,
// when it has reported a detection since it last gave way or a caller
// waits. So it gives way at most once per burst of detections, after
// the burst. The words not yet reached are read afresh after the gap,
// so a runnable a caller deactivated or rescheduled meanwhile is not
// judged on this cycle. Nothing lands on slot c in the gap: every
// deadline scheduled at cycle c lies in (c, c+size). Holds w.mu.
func (w *Watchdog) sweepDue(c uint64, alive, arr *bitset, held *time.Time) {
	s := w.sched
	if alive == nil {
		alive = s.none
	}
	if arr == nil {
		arr = s.none
	}
	pending := false // a detection was reported since the sweep last gave way
	for si, sa := range alive.summary {
		sr := arr.summary[si]
		if sa|sr == 0 {
			continue
		}
		alive.summary[si], arr.summary[si] = 0, 0
		for sw := sa | sr; sw != 0; sw &= sw - 1 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			pa, pr := alive.words[wi], arr.words[wi]
			alive.words[wi], arr.words[wi] = 0, 0
			burst := false
			var ws wordAlive
			for pw := pa | pr; pw != 0; pw &= pw - 1 {
				bit := bits.TrailingZeros64(pw)
				m := uint64(1) << bit
				if w.closeDue(c, wi<<6+bit, pa&m != 0, pr&m != 0, &ws) {
					burst = true
				}
			}
			s.flushAlive(&ws, wi)
			switch {
			case burst:
				// Give way once the burst of detections ends, not
				// inside it: the runnables of a failed task or node
				// fault together, and a gap inside the burst would only
				// delay the rest of its reports.
				pending = true
			case (pending || w.waiters.Load() != 0) && w.giveWayLocked(held, pending):
				pending = false
			}
		}
	}
	alive.n, arr.n = 0, 0
}

// closeDue closes the due windows of one runnable: the aliveness window
// when alive, the arrival window when arr. Both read one atomic load of
// the beat counter; the baselines, anchors and deadlines are plain
// stores under w.mu, and the next aliveness deadline joins ws, the
// sweep's word of deadlines, when it can. Detections are reported on
// the spot, aliveness first, and closeDue reports whether it found a
// fault. The Sink runs under the lock and cannot reschedule, and the
// sweep never gives the lock away inside closeDue, so a runnable's two
// windows close and report together.
func (w *Watchdog) closeDue(c uint64, rid int, alive, arr bool, ws *wordAlive) bool {
	s := w.sched
	hs := &w.hot[rid]
	// The drained deadlines are consumed: mark them unscheduled before
	// rescheduling from a clean slate. Only an arrival close touches the
	// runnable's cold record.
	if alive {
		hs.aliveDue, hs.aliveLoc = 0, locNone
	}
	if arr {
		w.cold[rid].arrDue, hs.arrLoc = 0, locNone
	}
	if hs.active.Load() == 0 {
		return false // defensive: deactivation unschedules under w.mu
	}
	hyp := hs.hyp.Load()
	alive = alive && hyp.AlivenessCycles > 0
	arr = arr && hyp.ArrivalCycles > 0
	if !alive && !arr {
		return false
	}
	b := hs.beats.Load()
	var ac, arc uint64
	if alive {
		ac = hs.closeAlive(b)
		hs.aliveAnchor = c
		if due := c + uint64(hyp.AlivenessCycles); ws.join(rid, due, c, s.size) {
			hs.aliveDue, hs.aliveLoc = due, locBucket
		} else {
			s.schedule(rid, kindAlive, due, c)
		}
	}
	if arr {
		cs := &w.cold[rid]
		arc = hs.closeArrival(cs, b, eagerLimit(w.cfg.EagerArrivalCheck, hyp))
		cs.arrAnchor = c
		s.schedule(rid, kindArr, c+uint64(hyp.ArrivalCycles), c)
	}
	// Both windows are closed before either is reported, so a journal
	// freeze-frame shows this runnable's restarted windows.
	faultAlive := alive && int(ac) < hyp.MinHeartbeats
	faultArr := arr && int(arc) > hyp.MaxArrivals
	if faultAlive {
		w.detectLocked(AlivenessError, runnable.ID(rid), int(ac), hyp.MinHeartbeats, runnable.NoID)
	}
	if faultArr {
		w.detectLocked(ArrivalRateError, runnable.ID(rid), int(arc), hyp.MaxArrivals, runnable.NoID)
	}
	return faultAlive || faultArr
}

// reschedLocked re-derives one deadline of a runnable, kind kindAlive
// or kindArr, for a unit with the given period whose window is elapsed
// cycles old: after a counter reset (elapsed 0) the window restarts at
// the current cycle, and after a hypothesis change (the elapsed cycles
// of the running window, or of the frozen counter) it keeps its age, so
// a shortened period that is already exceeded expires on the next
// cycle. A unit that is off (inactive, or period 0) freezes its cycle
// counter at elapsed. Requires w.mu.
func (w *Watchdog) reschedLocked(rid runnable.ID, kind, period int, active bool, elapsed uint64) {
	s, c, i := w.sched, w.cycle.Load(), int(rid)
	elapsed = min(elapsed, c) // defensive: anchors never precede cycle zero
	anchor := &w.hot[i].aliveAnchor
	if kind == kindArr {
		anchor = &w.cold[i].arrAnchor
	}
	s.unschedule(i, kind)
	if !active || period <= 0 {
		*anchor = frozenFlag | elapsed
		return
	}
	*anchor = c - elapsed
	s.schedule(i, kind, max(c-elapsed+uint64(period), c+1), c)
}
