package swwd

import "time"

// Option configures a Watchdog built with New. Options are applied in
// order over the zero Config, so later options win; anything expressible
// with an Option can equally be set on a Config passed to NewFromConfig.
type Option func(*Config)

// WithClock sets the time source stamped onto reports. The default is a
// wall clock anchored at construction, the right choice for live
// services; simulations pass their virtual clock.
func WithClock(c Clock) Option {
	return func(cfg *Config) { cfg.Clock = c }
}

// WithSink attaches the receiver of fault reports and state events,
// typically a Fault Management Framework. Without a sink, output is
// discarded but stays queryable through Results and the state accessors.
func WithSink(s Sink) Option {
	return func(cfg *Config) { cfg.Sink = s }
}

// WithCyclePeriod documents the intended spacing of monitoring cycles
// (the Service ticker default). Zero or negative falls back to
// CyclePeriodDefault (10ms, the tick of the paper's plots).
func WithCyclePeriod(d time.Duration) Option {
	return func(cfg *Config) { cfg.CyclePeriod = d }
}

// WithThresholds sets the TSI error-indication-vector limits; the zero
// value means DefaultThresholds (3/3/3, the paper's evaluation setup).
func WithThresholds(t Thresholds) Option {
	return func(cfg *Config) { cfg.Thresholds = t }
}

// WithEagerArrivalCheck trips an arrival-rate error the moment ARC
// exceeds MaxArrivals instead of at period end (ablation; the paper
// checks "shortly before the next period begins").
func WithEagerArrivalCheck() Option {
	return func(cfg *Config) { cfg.EagerArrivalCheck = true }
}

// WithoutCorrelation disables the Fig. 6 collaboration between the PFC
// and heartbeat units (ablation): aliveness errors are accumulated even
// when a program-flow root cause was just detected on the same task.
func WithoutCorrelation() Option {
	return func(cfg *Config) { cfg.DisableCorrelation = true }
}

// WithCorrelationWindow sets how many cycles after a program-flow error
// an aliveness error on the same task is attributed to the flow root
// cause. Zero or negative means the default of 2.
func WithCorrelationWindow(cycles int) Option {
	return func(cfg *Config) { cfg.CorrelationWindowCycles = cycles }
}

// WithECUFaultyAppCount sets how many simultaneously faulty applications
// mark the global ECU state faulty. Zero or negative means the default
// of 2; 1 makes any faulty application an ECU-level fault.
func WithECUFaultyAppCount(n int) Option {
	return func(cfg *Config) { cfg.ECUFaultyAppCount = n }
}

// WithJournalSize sets the fault-event journal capacity in entries
// (rounded up to a power of two, at most 1<<20; construction fails
// above that). Zero keeps the default of 256. The
// journal records every detection with a freeze-frame of the runnable's
// counters; when full, the oldest entry is overwritten and the drop
// counter advances. Journal writes happen only on the detection cold
// path, never on the healthy beat path.
func WithJournalSize(n int) Option {
	return func(cfg *Config) { cfg.JournalSize = n }
}

// WithoutJournal disables the fault-event journal entirely: Journal()
// returns nil and JournalStats() is zero. Detection counters and sinks
// are unaffected.
func WithoutJournal() Option {
	return func(cfg *Config) { cfg.JournalSize = -1 }
}

// WithJournalSink installs a per-detection callback: every journaled
// detection is handed to sink, Seq stamped, immediately after it lands
// in the ring. The sink runs under the watchdog's lock, so it MUST be
// non-blocking and must not call any Watchdog method — hand the entry
// off to a lock-free ring (the WAL does) or drop it. A consumer on
// another goroutine may call Watchdog methods and may act mid-sweep:
// the Cycle gives the lock away between bitset words once it has held
// it past its budget after a detection. Ignored together with
// WithoutJournal. Watchdog.SetJournalSink replaces it at runtime.
func WithJournalSink(sink func(JournalEntry)) Option {
	return func(cfg *Config) { cfg.JournalSink = sink }
}

// WithMetricsSink installs a telemetry callback: every everyCycles
// monitoring cycles (zero means 100) the watchdog assembles a Snapshot
// and hands it to sink on the goroutine that drove the Cycle. The
// pointed-to Snapshot is a buffer the watchdog reuses across emissions —
// copy whatever must outlive the call. Typical use is pushing gauges to
// a metrics registry without polling from a second goroutine.
func WithMetricsSink(sink func(*Snapshot), everyCycles int) Option {
	return func(cfg *Config) {
		cfg.MetricsSink = sink
		cfg.MetricsEveryCycles = everyCycles
	}
}

// WithEstimatorWindow enables the online calibration estimator: every
// cycles monitoring cycles the per-runnable lifetime beat counts are
// sampled into one observation window (arrival-rate EWMA, extremes and
// a quantile sketch), queryable via Watchdog.Estimator and feeding
// SuggestHypotheses. Sampling happens on the goroutine that called
// Cycle; the heartbeat hot path is unchanged.
func WithEstimatorWindow(cycles int) Option {
	return func(cfg *Config) { cfg.EstimatorWindowCycles = cycles }
}
