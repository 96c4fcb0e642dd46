// Telemetry benchmarks for the observability layer (BENCH_stats.json):
// the healthy-path cost of a beat with the always-on stats counter, the
// cost of taking a full Snapshot, and the journal append/read paths.
//
// Run with: make bench-json  (or: go test -bench 'Snapshot|BeatWithStats|Journal' -benchmem)
package swwd_test

import (
	"fmt"
	"testing"
	"time"

	"swwd"
)

// BenchmarkBeatWithStats measures the handle fast path with the
// telemetry layer in place. The lifetime beat count costs the beat
// nothing: it is the free-running counter AC and ARC are read off,
// which no window close or counter reset clears — so this must match
// BenchmarkMonitorBeat to within noise. The
// acceptance bound is ≤ 2 ns/beat of added cost versus the recorded
// baseline (~22-25 ns single-threaded on the reference host).
func BenchmarkBeatWithStats(b *testing.B) {
	w, monitors := buildParallelWatchdog(b, 1, 3)
	_ = w
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monitors[i%3].Beat()
	}
}

// BenchmarkSnapshot measures a full telemetry snapshot over n runnables.
// reuse=true retains the buffer across scrapes (the steady state of a
// metrics endpoint; must be 0 allocs/op), reuse=false allocates a fresh
// Snapshot per call (the worst case: one slice per scrape).
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{64, 1024} {
		nTasks := 8
		perTask := n / nTasks
		w, monitors := buildParallelWatchdog(b, nTasks, perTask)
		for _, m := range monitors {
			m.Beat()
		}
		w.Cycle()
		b.Run(fmt.Sprintf("n=%d/reuse=true", n), func(b *testing.B) {
			var s swwd.Snapshot
			w.SnapshotInto(&s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.SnapshotInto(&s)
			}
		})
		b.Run(fmt.Sprintf("n=%d/reuse=false", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = w.Snapshot()
			}
		})
	}
}

// buildJournalWatchdog builds n starved runnables whose aliveness window
// expires every cycle, so each Cycle produces n journaled detections.
func buildJournalWatchdog(b *testing.B, n int, journalSize int) *swwd.Watchdog {
	b.Helper()
	m := swwd.NewModel()
	app, err := m.AddApp("bench", swwd.SafetyCritical)
	if err != nil {
		b.Fatalf("AddApp: %v", err)
	}
	task, err := m.AddTask(app, "T", 1)
	if err != nil {
		b.Fatalf("AddTask: %v", err)
	}
	var rids []swwd.RunnableID
	for i := 0; i < n; i++ {
		rid, err := m.AddRunnable(task, fmt.Sprintf("r%d", i), time.Millisecond, swwd.SafetyCritical)
		if err != nil {
			b.Fatalf("AddRunnable: %v", err)
		}
		rids = append(rids, rid)
	}
	if err := m.Freeze(); err != nil {
		b.Fatalf("Freeze: %v", err)
	}
	opts := []swwd.Option{swwd.WithClock(swwd.NewWallClock())}
	if journalSize < 0 {
		opts = append(opts, swwd.WithoutJournal())
	} else {
		opts = append(opts, swwd.WithJournalSize(journalSize))
	}
	w, err := swwd.New(m, opts...)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for _, rid := range rids {
		if err := w.SetHypothesis(rid, swwd.Hypothesis{AlivenessCycles: 1, MinHeartbeats: 1}); err != nil {
			b.Fatalf("SetHypothesis: %v", err)
		}
		if err := w.Activate(rid); err != nil {
			b.Fatalf("Activate: %v", err)
		}
	}
	return w
}

// BenchmarkJournalAppend measures the detection cold path's journal
// cost: every benched Cycle closes 64 starved aliveness windows and
// journals all 64 detections (freeze-frame included), wrapping a
// 256-entry ring. journal=off is the same detection storm with the
// journal disabled — the difference is the per-detection append cost.
func BenchmarkJournalAppend(b *testing.B) {
	const n = 64
	for _, mode := range []struct {
		name string
		size int
	}{{"journal=on", 256}, {"journal=off", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			w := buildJournalWatchdog(b, n, mode.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Cycle()
			}
			b.StopTimer()
			if res := w.Results(); res.Aliveness == 0 {
				b.Fatalf("no detections generated")
			}
		})
	}
}

// BenchmarkJournalRead measures copying a full 256-entry ring out with a
// reused destination slice (the scrape path; must be 0 allocs/op in
// steady state).
func BenchmarkJournalRead(b *testing.B) {
	w := buildJournalWatchdog(b, 64, 256)
	for i := 0; i < 8; i++ { // 8 cycles × 64 detections fill and wrap the ring
		w.Cycle()
	}
	if st := w.JournalStats(); st.Len != st.Cap {
		b.Fatalf("ring not full: %+v", st)
	}
	buf := w.JournalInto(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = w.JournalInto(buf[:0])
	}
}
