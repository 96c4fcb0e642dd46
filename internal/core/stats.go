package core

import (
	"time"

	"swwd/internal/runnable"
)

// This file implements the telemetry Snapshot: a point-in-time copy of
// everything a live watchdog can report about itself — per-runnable
// heartbeat counters and fault tallies, the cumulative detection
// results, the TSI-derived ECU state, journal occupancy and the
// sweep-duration histogram.
//
// Cost contract: the heartbeat hot path pays NOTHING for any of this.
// The lifetime beat series is the free-running beat counter AC and ARC
// are read off, and every other figure comes from state the watchdog
// already maintains. Reading a snapshot is cold: the per-runnable
// counters, beat counts and error-indication vectors are copied under the
// watchdog's lock in pages of snapshotPage runnables, and the lock may
// be given to a waiting caller between pages, so a scrape never holds
// the sweep or the treatment executor off for a whole fleet's copy.
// Each runnable's row is consistent; the cut across runnables is not.
// The cycle, the results, the ECU state and the journal accounting are
// read together in the last critical section. SnapshotInto reuses the
// caller's buffers, so a metrics scraper settles into zero allocations
// per scrape.

// snapshotPage is how many runnables SnapshotInto copies between two
// chances to give the lock away: about 40 µs of copying on the 2-CPU
// Xeon VM, within the lock's hold budget.
const snapshotPage = 1024

// RunnableStats is the telemetry of one runnable.
type RunnableStats struct {
	ID runnable.ID
	// Active is the Activation Status (AS).
	Active bool
	// Beats is the lifetime count of heartbeats recorded while the
	// runnable was active. Unlike AC/ARC it survives window closes and
	// counter resets: it is the beat counter those two are read off.
	Beats uint64
	// AC/ARC/CCA/CCAR are the live §3.3 monitoring counters.
	AC, ARC, CCA, CCAR int
	// ErrAliveness/ErrArrivalRate/ErrProgramFlow are the accumulated
	// error-indication-vector elements (fault counts by kind).
	ErrAliveness   uint64
	ErrArrivalRate uint64
	ErrProgramFlow uint64
}

// DriverStats is the cycle-driver telemetry contributed by whatever
// drives Cycle — the swwd.Service ticker in live deployments. The core
// leaves it zero; the Service fills it in its Snapshot wrapper so tick
// drift (missed cycles silently stretching every hypothesis window) is
// visible on the same scrape as the detection counters.
type DriverStats struct {
	// Ticks is the number of monitoring cycles actually driven.
	Ticks uint64
	// MissedCycles is the cumulative count of cycles lost to overruns.
	MissedCycles uint64
	// Overruns is the number of overrun events (each may lose several
	// cycles); MaxLateNs the worst observed lateness in nanoseconds.
	Overruns  uint64
	MaxLateNs int64
}

// Snapshot is a point-in-time copy of the watchdog's telemetry.
type Snapshot struct {
	// Cycle is the monitoring-cycle counter at snapshot time.
	Cycle uint64
	// Results are the cumulative detection counts (AM/AR/PFC Result).
	Results Results
	// ECUState is the TSI-derived global state.
	ECUState HealthState
	// Journal summarizes the fault-event ring (zero when disabled).
	Journal JournalStats
	// Sweep is the Cycle-duration histogram.
	Sweep HistogramSnapshot
	// Driver is filled by the Service wrapper (zero from Watchdog.Snapshot).
	Driver DriverStats
	// Runnables holds one entry per runnable, indexed by runnable ID.
	Runnables []RunnableStats
}

// Snapshot returns a freshly allocated telemetry snapshot. For repeated
// scraping prefer SnapshotInto with a reused buffer.
func (w *Watchdog) Snapshot() Snapshot {
	var s Snapshot
	w.SnapshotInto(&s)
	return s
}

// SnapshotInto fills s with the current telemetry, reusing s.Runnables
// when it has capacity: scraping with a retained Snapshot is
// allocation-free after the first call. The per-runnable rows are
// copied in pages of snapshotPage runnables under the watchdog's lock,
// which may pass to a waiting caller (a Cycle, a configuration call)
// between pages once the hold has passed its budget. So each row is
// consistent, but rows copied in different pages may straddle a sweep
// or a configuration change. Cycle, Results, ECUState and Journal are
// read together in the last critical section. Safe for concurrent use
// with beats, cycles and configuration changes, but not from a Sink or
// journal sink callback, which runs under that lock.
func (w *Watchdog) SnapshotInto(s *Snapshot) {
	n := len(w.hot)
	if cap(s.Runnables) < n {
		s.Runnables = make([]RunnableStats, n)
	}
	s.Runnables = s.Runnables[:n]

	s.Driver = DriverStats{}
	w.lock()
	held := time.Now()
	for i := range w.hot {
		if i%snapshotPage == 0 && i > 0 {
			w.giveWayLocked(&held, false)
		}
		rs := &s.Runnables[i]
		c, beats := w.countersLocked(runnable.ID(i))
		e := w.errv[i]
		rs.ID = runnable.ID(i)
		rs.Active = c.Active
		rs.AC, rs.ARC, rs.CCA, rs.CCAR = c.AC, c.ARC, c.CCA, c.CCAR
		rs.Beats = beats
		rs.ErrAliveness, rs.ErrArrivalRate, rs.ErrProgramFlow = e[0], e[1], e[2]
	}
	s.Cycle = w.cycle.Load()
	s.Results = w.results
	s.ECUState = w.ecuState
	s.Journal = w.journalStatsLocked()
	w.mu.Unlock()

	w.sweepHist.snapshotInto(&s.Sweep)
}

// SweepHistogram returns a copy of the Cycle-duration histogram without
// assembling a full Snapshot.
func (w *Watchdog) SweepHistogram() HistogramSnapshot {
	var s HistogramSnapshot
	w.sweepHist.snapshotInto(&s)
	return s
}

// maybeEmitMetrics invokes the configured MetricsSink every
// cfg.MetricsEveryCycles cycles, on the Cycle caller's goroutine, with
// the watchdog's reused snapshot buffer. Runs after the sweep released
// the watchdog's lock, so a slow sink delays only its own cycle's
// return, never the wheel.
func (w *Watchdog) maybeEmitMetrics(c uint64) {
	sink := w.cfg.MetricsSink
	if sink == nil || c%w.metricsEvery != 0 {
		return
	}
	w.metricsMu.Lock()
	defer w.metricsMu.Unlock()
	w.SnapshotInto(&w.metricsBuf)
	sink(&w.metricsBuf)
}
