package core

import (
	"testing"
	"time"
)

// cycleN runs n monitoring cycles.
func cycleN(w *Watchdog, n int) {
	for i := 0; i < n; i++ {
		w.Cycle()
	}
}

func TestSnapshotCountersAndBeats(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()

	// Three healthy windows: one beat per runnable per cycle.
	for c := 0; c < 15; c++ {
		f.w.Heartbeat(f.a)
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.c)
		f.w.Cycle()
	}
	s := f.w.Snapshot()
	if s.Cycle != 15 {
		t.Fatalf("Snapshot.Cycle = %d, want 15", s.Cycle)
	}
	if len(s.Runnables) != 3 {
		t.Fatalf("len(Runnables) = %d, want 3", len(s.Runnables))
	}
	for i, rs := range s.Runnables {
		if rs.Beats != 15 {
			t.Errorf("runnable %d: Beats = %d, want 15", i, rs.Beats)
		}
		if !rs.Active {
			t.Errorf("runnable %d: not active", i)
		}
		if rs.ErrAliveness != 0 || rs.ErrArrivalRate != 0 || rs.ErrProgramFlow != 0 {
			t.Errorf("runnable %d: unexpected faults %+v", i, rs)
		}
	}
	if s.Results != (Results{}) {
		t.Fatalf("Results = %+v, want zero", s.Results)
	}
	if s.ECUState != StateOK {
		t.Fatalf("ECUState = %v, want OK", s.ECUState)
	}

	// Starve runnable a for one aliveness window: one fault for a only.
	for c := 0; c < 5; c++ {
		f.w.Heartbeat(f.b)
		f.w.Heartbeat(f.c)
		f.w.Cycle()
	}
	s = f.w.Snapshot()
	if got := s.Runnables[f.a].ErrAliveness; got != 1 {
		t.Fatalf("a.ErrAliveness = %d, want 1", got)
	}
	if got := s.Runnables[f.b].ErrAliveness; got != 0 {
		t.Fatalf("b.ErrAliveness = %d, want 0", got)
	}
	if s.Results.Aliveness != 1 {
		t.Fatalf("Results.Aliveness = %d, want 1", s.Results.Aliveness)
	}
	if s.Runnables[f.a].Beats != 15 || s.Runnables[f.b].Beats != 20 {
		t.Fatalf("beats = %d/%d, want 15/20",
			s.Runnables[f.a].Beats, s.Runnables[f.b].Beats)
	}
}

func TestBeatsSurviveCounterResets(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	for i := 0; i < 4; i++ {
		f.w.Heartbeat(f.a)
	}
	if err := f.w.ClearTask(f.task); err != nil {
		t.Fatalf("ClearTask: %v", err)
	}
	if err := f.w.Deactivate(f.a); err != nil {
		t.Fatalf("Deactivate: %v", err)
	}
	s := f.w.Snapshot()
	if got := s.Runnables[f.a].Beats; got != 4 {
		t.Fatalf("Beats after resets = %d, want 4 (lifetime counter must not reset)", got)
	}
	if got := s.Runnables[f.a].AC; got != 0 {
		t.Fatalf("AC after resets = %d, want 0", got)
	}
}

func TestSnapshotIntoIsAllocationFree(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	cycleN(f.w, 12) // some detections so the journal and errv are non-trivial
	var s Snapshot
	f.w.SnapshotInto(&s) // warm-up sizes the buffer
	allocs := testing.AllocsPerRun(100, func() {
		f.w.SnapshotInto(&s)
	})
	if allocs != 0 {
		t.Fatalf("SnapshotInto allocates %.1f objects per call with a reused buffer, want 0", allocs)
	}
}

func TestJournalRecordsDetections(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	f.w.Heartbeat(f.a) // a beats once, b and c starve
	cycleN(f.w, 5)     // aliveness window expires: b and c trip

	entries := f.w.Journal()
	if len(entries) != 2 {
		t.Fatalf("journal has %d entries, want 2: %+v", len(entries), entries)
	}
	for i, e := range entries {
		if e.Kind != AlivenessError {
			t.Errorf("entry %d: kind %v, want aliveness", i, e.Kind)
		}
		if e.Cycle != 5 {
			t.Errorf("entry %d: cycle %d, want 5", i, e.Cycle)
		}
		if e.Observed != 0 || e.Expected != 1 {
			t.Errorf("entry %d: observed/expected %d/%d, want 0/1", i, e.Observed, e.Expected)
		}
		if e.ErrAliveness != 1 {
			t.Errorf("entry %d: freeze-frame ErrAliveness %d, want 1", i, e.ErrAliveness)
		}
		if e.Beats != 0 {
			t.Errorf("entry %d: freeze-frame Beats %d, want 0", i, e.Beats)
		}
		if e.Seq != uint64(i) {
			t.Errorf("entry %d: seq %d, want %d", i, e.Seq, i)
		}
	}
	// Detections are reported runnable-ascending within a cycle.
	if entries[0].Runnable != f.b || entries[1].Runnable != f.c {
		t.Fatalf("journal order %d,%d, want %d,%d",
			entries[0].Runnable, entries[1].Runnable, f.b, f.c)
	}
	st := f.w.JournalStats()
	if st.Written != 2 || st.Dropped != 0 || st.Len != 2 {
		t.Fatalf("JournalStats = %+v, want Written 2 Dropped 0 Len 2", st)
	}
}

func TestJournalWraparoundAndDropCounter(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.JournalSize = 4 })
	f.monitorAll()
	// Nobody beats: every 5th cycle produces 3 aliveness detections
	// (runnable-ascending). 30 cycles → 6 windows → 18 detections.
	cycleN(f.w, 30)

	st := f.w.JournalStats()
	if st.Cap != 4 {
		t.Fatalf("Cap = %d, want 4", st.Cap)
	}
	if st.Written != 18 {
		t.Fatalf("Written = %d, want 18", st.Written)
	}
	if st.Dropped != 14 {
		t.Fatalf("Dropped = %d, want 14 (overwrite-oldest accounting)", st.Dropped)
	}
	if st.Len != 4 {
		t.Fatalf("Len = %d, want 4", st.Len)
	}

	entries := f.w.Journal()
	if len(entries) != 4 {
		t.Fatalf("len(entries) = %d, want 4", len(entries))
	}
	for i, e := range entries {
		want := st.Written - 4 + uint64(i)
		if e.Seq != want {
			t.Errorf("entry %d: seq %d, want %d (oldest-first, contiguous)", i, e.Seq, want)
		}
	}
	// The newest retained entry is the cycle-30 window's runnable c with
	// its sixth accumulated aliveness error.
	last := entries[3]
	if last.Cycle != 30 || last.Runnable != f.c || last.ErrAliveness != 6 {
		t.Fatalf("newest entry = %+v, want cycle 30, runnable %d, ErrAliveness 6", last, f.c)
	}
	// Reusing the destination slice must not allocate.
	buf := entries[:0]
	allocs := testing.AllocsPerRun(50, func() {
		buf = f.w.JournalInto(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("JournalInto allocates %.1f objects per call with a reused buffer, want 0", allocs)
	}
}

func TestJournalSizeRoundsUpToPowerOfTwo(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.JournalSize = 5 })
	if got := f.w.JournalStats().Cap; got != 8 {
		t.Fatalf("Cap = %d, want 8", got)
	}
}

func TestJournalDisabled(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.JournalSize = -1 })
	f.monitorAll()
	cycleN(f.w, 10) // detections fire, nothing is journaled
	if got := f.w.Journal(); got != nil {
		t.Fatalf("Journal() = %v, want nil when disabled", got)
	}
	if st := f.w.JournalStats(); st != (JournalStats{}) {
		t.Fatalf("JournalStats = %+v, want zero when disabled", st)
	}
	// Detection accounting is unaffected.
	if res := f.w.Results(); res.Aliveness == 0 {
		t.Fatalf("no aliveness detections despite starved runnables")
	}
}

func TestSweepHistogramCountsCycles(t *testing.T) {
	f := newFixture(t, nil)
	f.monitorAll()
	const n = 25
	cycleN(f.w, n)
	h := f.w.SweepHistogram()
	if h.Count != n {
		t.Fatalf("histogram Count = %d, want %d", h.Count, n)
	}
	var sum uint64
	for _, b := range h.Buckets {
		sum += b
	}
	if sum != n {
		t.Fatalf("bucket sum = %d, want %d", sum, n)
	}
	if h.MaxNs > 0 && uint64(h.Mean()) > h.MaxNs {
		t.Fatalf("mean %v exceeds max %dns", h.Mean(), h.MaxNs)
	}
	if q := h.Quantile(0.99); q < h.Quantile(0.5) {
		t.Fatalf("p99 %v below p50 %v", q, h.Quantile(0.5))
	}
	// The snapshot's embedded histogram agrees.
	if s := f.w.Snapshot(); s.Sweep.Count != n {
		t.Fatalf("Snapshot.Sweep.Count = %d, want %d", s.Sweep.Count, n)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	var h histogram
	h.record(0)
	h.record(1)
	h.record(1000)         // 2^9 < 1000 < 2^10 → bucket 10
	h.record(time.Hour)    // beyond the last bound → clamped to the last bucket
	h.record(-time.Second) // clock regression → clamped to zero
	var s HistogramSnapshot
	h.snapshotInto(&s)
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Buckets[0] != 2 { // the 0 and the clamped negative
		t.Fatalf("bucket 0 = %d, want 2", s.Buckets[0])
	}
	if s.Buckets[1] != 1 {
		t.Fatalf("bucket 1 = %d, want 1", s.Buckets[1])
	}
	if s.Buckets[10] != 1 {
		t.Fatalf("bucket 10 = %d, want 1", s.Buckets[10])
	}
	if s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("last bucket = %d, want 1", s.Buckets[histBuckets-1])
	}
	if s.MaxNs != uint64(time.Hour) {
		t.Fatalf("MaxNs = %d, want %d", s.MaxNs, uint64(time.Hour))
	}
	if HistBucketBound(3) != 8 {
		t.Fatalf("HistBucketBound(3) = %d, want 8", HistBucketBound(3))
	}
}

func TestMetricsSinkCadence(t *testing.T) {
	var snaps []uint64
	f := newFixture(t, func(cfg *Config) {
		cfg.MetricsEveryCycles = 3
		cfg.MetricsSink = func(s *Snapshot) { snaps = append(snaps, s.Cycle) }
	})
	f.monitorAll()
	cycleN(f.w, 10)
	if len(snaps) != 3 {
		t.Fatalf("sink fired %d times over 10 cycles with period 3, want 3 (cycles 3,6,9): %v", len(snaps), snaps)
	}
	for i, c := range snaps {
		if want := uint64(3 * (i + 1)); c != want {
			t.Fatalf("emission %d at cycle %d, want %d", i, c, want)
		}
	}
}

func TestMetricsSinkSeesDetections(t *testing.T) {
	var last Snapshot
	fired := 0
	f := newFixture(t, func(cfg *Config) {
		cfg.MetricsEveryCycles = 5
		cfg.MetricsSink = func(s *Snapshot) {
			fired++
			// The buffer is reused: deep-copy what we keep.
			last = *s
			last.Runnables = append([]RunnableStats(nil), s.Runnables...)
		}
	})
	f.monitorAll()
	cycleN(f.w, 5) // starved window expires exactly on the emission cycle
	if fired != 1 {
		t.Fatalf("sink fired %d times, want 1", fired)
	}
	if last.Results.Aliveness != 3 {
		t.Fatalf("sink snapshot Aliveness = %d, want 3", last.Results.Aliveness)
	}
	if last.Journal.Written != 3 {
		t.Fatalf("sink snapshot Journal.Written = %d, want 3", last.Journal.Written)
	}
}

func TestSnapshotMidWindow(t *testing.T) {
	// Mid-window, the Snapshot derives CCA from the wheel's window
	// anchors; at the window's end the starved runnables are judged.
	f := newFixture(t, nil)
	f.monitorAll()
	f.w.Heartbeat(f.a)
	cycleN(f.w, 3)
	s := f.w.Snapshot()
	if got := s.Runnables[f.a].CCA; got != 3 {
		t.Fatalf("CCA = %d, want 3", got)
	}
	if got := s.Runnables[f.a].Beats; got != 1 {
		t.Fatalf("Beats = %d, want 1", got)
	}
	if s.Sweep.Count != 3 {
		t.Fatalf("Sweep.Count = %d, want 3", s.Sweep.Count)
	}
	cycleN(f.w, 2)
	if res := f.w.Results(); res.Aliveness != 2 { // b and c starved
		t.Fatalf("Aliveness = %d, want 2", res.Aliveness)
	}
	if entries := f.w.Journal(); len(entries) != 2 {
		t.Fatalf("journal has %d entries, want 2", len(entries))
	}
}
