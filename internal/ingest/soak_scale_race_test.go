//go:build race

package ingest_test

import "time"

// Race-detector soak parameters: the race runtime multiplies every
// atomic and channel operation, so the soak shrinks to a scale that
// still exercises every concurrent path (read loops, client
// flushers, watchdog sweeps) without timing out a CI worker.
const (
	soakNodes     = 100
	soakRunnables = 10
	soakDuration  = 5 * time.Second
)
