package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// det builds a deterministic detection as a function of i — the shared
// generator of the unit tests and the crash harness, so a reference
// View can be rebuilt from the acknowledged count alone.
func det(i uint64) Detection {
	return Detection{
		JournalSeq:     i,
		SimTimeNs:      int64(i) * 1_000_000,
		Cycle:          i * 3,
		Kind:           uint8(i%3 + 1),
		Runnable:       int32(i % 7),
		Task:           int32(i % 5),
		App:            int32(i % 2),
		Predecessor:    -1,
		Observed:       int32(i % 11),
		Expected:       int32(i%11) + 1,
		Correlated:     i%4 == 0,
		Active:         i%2 == 0,
		AC:             int32(i % 13),
		ARC:            int32(i % 17),
		CCA:            int32(i % 19),
		CCAR:           int32(i % 23),
		Beats:          i * 10,
		ErrAliveness:   i / 3,
		ErrArrivalRate: i / 5,
		ErrProgramFlow: i / 7,
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, TimeNs: 1111, Kind: KindDetection, Det: det(42)},
		{Seq: 2, TimeNs: 2222, Kind: KindAction, Act: Action{Kind: 3, Node: 9, Cause: 4, SimTimeNs: 77, ExecErr: true}},
		{Seq: 3, TimeNs: 3333, Kind: KindDelta, Delta: Delta{Frames: 10, Bytes: 999, Accepted: 9, CommandStaleAcks: 5}},
	}
	var buf []byte
	for i := range recs {
		buf = appendRecord(buf, &recs[i])
	}
	off := 0
	for i := range recs {
		var got Record
		n, err := decodeRecord(buf[off:], &got)
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, recs[i]) {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got, recs[i])
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

// TestFromJournalSaturates journals a freeze-frame whose ARC is past
// 2³¹−1, from a runnable with arrival monitoring off that beat 129
// windows of MaxBatchBeats and then starved one, and requires the
// durable ARC to read MaxInt32 instead of a wrapped negative value.
func TestFromJournalSaturates(t *testing.T) {
	m := runnable.NewModel()
	app, _ := m.AddApp("A", runnable.QM)
	task, _ := m.AddTask(app, "T", 1)
	rid, err := m.AddRunnable(task, "R", time.Millisecond, runnable.QM)
	if err != nil {
		t.Fatalf("AddRunnable: %v", err)
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	var entries []core.JournalEntry
	w, err := core.New(core.Config{Model: m, Clock: sim.NewManualClock(),
		JournalSink: func(e core.JournalEntry) { entries = append(entries, e) }})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := w.SetHypothesis(rid, core.Hypothesis{AlivenessCycles: 1, MinHeartbeats: 1}); err != nil {
		t.Fatalf("SetHypothesis: %v", err)
	}
	if err := w.Activate(rid); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	mon, err := w.Register(rid)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	const windows = 129
	for i := 0; i < windows; i++ {
		mon.BeatN(core.MaxBatchBeats)
		w.Cycle()
	}
	w.Cycle() // a silent window: one aliveness error
	if len(entries) != 1 {
		t.Fatalf("journaled %d entries, want 1", len(entries))
	}
	e := entries[0]
	if want := windows * core.MaxBatchBeats; e.Frame.ARC != want {
		t.Fatalf("journaled ARC = %d, want %d", e.Frame.ARC, want)
	}
	d := FromJournal(e)
	if d.ARC != math.MaxInt32 {
		t.Fatalf("durable ARC = %d, want %d", d.ARC, int32(math.MaxInt32))
	}
	if d.AC != 0 || d.Observed != 0 || d.Expected != 1 || d.Beats != e.Beats {
		t.Fatalf("durable detection = %+v, want AC 0, Observed 0, Expected 1, Beats %d", d, e.Beats)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	rec := Record{Seq: 7, TimeNs: 1, Kind: KindDetection, Det: det(1)}
	good := appendRecord(nil, &rec)
	var out Record

	// Truncations anywhere inside the frame are torn, not corrupt.
	for cut := 0; cut < len(good); cut++ {
		_, err := decodeRecord(good[:cut], &out)
		if err != ErrTorn && err != ErrCorrupt {
			t.Fatalf("cut at %d: got %v", cut, err)
		}
	}
	// A flipped byte anywhere in the body fails the CRC.
	for i := frameOverhead; i < len(good); i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := decodeRecord(bad, &out); err == nil {
			t.Fatalf("flip at %d: decode accepted corrupt record", i)
		}
	}
	// An absurd length field is corruption.
	bad := append([]byte(nil), good...)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := decodeRecord(bad, &out); err != ErrCorrupt {
		t.Fatalf("oversized length: got %v", err)
	}
}

// FuzzWALRecordDecode feeds arbitrary bytes to decodeRecord. It must
// never panic, and must return an error or a frame length in
// (0, len(data)]. With fixCRC the CRC is recomputed over the (possibly
// mutated) body first, so mutations reach the payload parser instead of
// stopping at the checksum. Every record that decodes re-encodes to a
// frame that decodes to an identical Record.
func FuzzWALRecordDecode(f *testing.F) {
	for _, r := range []Record{
		{Seq: 1, TimeNs: 1111, Kind: KindDetection, Det: det(42)},
		{Seq: 2, TimeNs: 2222, Kind: KindAction, Act: Action{Kind: 3, Node: 9, Cause: 4, SimTimeNs: 77, ExecErr: true}},
		{Seq: 3, TimeNs: 3333, Kind: KindDelta, Delta: Delta{Frames: 10, Bytes: 999, Accepted: 9, CommandStaleAcks: 5}},
	} {
		f.Add(appendRecord(nil, &r), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		data = append([]byte(nil), data...)
		if fixCRC && len(data) >= frameOverhead {
			if n := uint64(binary.LittleEndian.Uint32(data)); n <= uint64(len(data)-frameOverhead) {
				body := data[frameOverhead : frameOverhead+int(n)]
				binary.LittleEndian.PutUint32(data[4:], crc32.Checksum(body, castagnoli))
			}
		}
		var r Record
		n, err := decodeRecord(data, &r)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is neither ErrTorn nor ErrCorrupt", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded frame length %d of %d bytes", n, len(data))
		}
		enc := appendRecord(nil, &r)
		var again Record
		m, err := decodeRecord(enc, &again)
		if err != nil || m != len(enc) || again != r {
			t.Fatalf("re-encoded record does not round-trip: n=%d/%d err=%v\n got %+v\nwant %+v", m, len(enc), err, again, r)
		}
	})
}

func TestRingHandOff(t *testing.T) {
	r := newRing(8)
	var rec Record
	if r.pop(&rec) {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := uint64(0); i < 8; i++ {
		if !r.push(&Record{Seq: i}) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	if r.push(&Record{Seq: 99}) {
		t.Fatal("push into full ring succeeded")
	}
	for i := uint64(0); i < 8; i++ {
		if !r.pop(&rec) || rec.Seq != i {
			t.Fatalf("pop %d: got seq %d", i, rec.Seq)
		}
	}
	if r.pop(&rec) {
		t.Fatal("pop from drained ring succeeded")
	}
}

func TestRingConcurrentProducers(t *testing.T) {
	const producers, each = 4, 10_000
	r := newRing(64)
	var pushed, popped, drops [producers + 1]uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // single consumer, like the writer goroutine
		defer wg.Done()
		var rec Record
		for {
			if r.pop(&rec) {
				popped[0]++
				continue
			}
			select {
			case <-stop:
				for r.pop(&rec) {
					popped[0]++
				}
				return
			default:
			}
		}
	}()
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < each; i++ {
				if r.push(&Record{Seq: uint64(i)}) {
					pushed[p+1]++
				} else {
					drops[p+1]++
				}
			}
		}(p)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()
	var totPush, totDrop uint64
	for p := 1; p <= producers; p++ {
		totPush += pushed[p]
		totDrop += drops[p]
	}
	if totPush+totDrop != producers*each {
		t.Fatalf("accounting: pushed %d + dropped %d != %d", totPush, totDrop, producers*each)
	}
	if popped[0] != totPush {
		t.Fatalf("consumer got %d of %d pushed records", popped[0], totPush)
	}
}

func TestWALAppendSyncReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithSyncInterval(time.Hour)) // sync only on demand
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := uint64(1); i <= n; i++ {
		if !w.AppendDetection(det(i)) {
			t.Fatalf("append %d dropped", i)
		}
	}
	w.AppendAction(Action{Kind: 1, Node: 3, Cause: 3, SimTimeNs: 5})
	w.AppendDelta(Delta{Frames: 123, Accepted: 120})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.SyncedSeq != n+2 || st.Synced != n+2 || st.Appended != n+2 || st.Dropped != 0 {
		t.Fatalf("stats after sync: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	h, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != n+2 || h.FirstSeq != 1 || h.LastSeq != n+2 || h.TornBytes != 0 {
		t.Fatalf("history: records=%d first=%d last=%d torn=%d",
			len(h.Records), h.FirstSeq, h.LastSeq, h.TornBytes)
	}
	for i := uint64(0); i < n; i++ {
		r := h.Records[i]
		if r.Seq != i+1 || r.Kind != KindDetection || !reflect.DeepEqual(r.Det, det(i+1)) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	v := h.View()
	if v.Detections != n || v.Actions[1] != 1 || v.Ingest.Frames != 123 || v.Deltas != 1 {
		t.Fatalf("view: %+v", v)
	}
}

func TestWALSeqContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		w, err := Open(dir)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < 10; i++ {
			w.AppendDetection(det(uint64(round*10 + i)))
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, want := w.Stats().SyncedSeq, uint64((round+1)*10); got != want {
			t.Fatalf("round %d: synced seq %d, want %d", round, got, want)
		}
		w.Close()
	}
	h, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 30 || h.LastSeq != 30 {
		t.Fatalf("after 3 rounds: %d records, last seq %d", len(h.Records), h.LastSeq)
	}
}

func TestWALRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// ~107-byte detection frames; 1 KiB segments force rotation every
	// ~9 records. Retain 3 segments.
	w, err := Open(dir, WithSegmentBytes(1024), WithRetainSegments(3), WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := uint64(1); i <= n; i++ {
		w.AppendDetection(det(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	w.Close()
	if st.Rotations == 0 || st.SegmentsRemoved == 0 {
		t.Fatalf("expected rotations and retention removals: %+v", st)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 3 {
		t.Fatalf("%d segments retained, want <= 3", len(segs))
	}
	if got := int(st.Segments); got != len(segs) {
		t.Fatalf("Stats.Segments=%d, on disk %d", got, len(segs))
	}
	// The retained tail replays cleanly and ends at seq n.
	h, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h.LastSeq != n || h.TornBytes != 0 {
		t.Fatalf("retained replay: last=%d torn=%d", h.LastSeq, h.TornBytes)
	}
	if h.FirstSeq == 1 {
		t.Fatal("retention removed nothing: first seq still 1")
	}
	// Seqs are contiguous across the retained segments.
	for i := 1; i < len(h.Records); i++ {
		if h.Records[i].Seq != h.Records[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d -> %d", i, h.Records[i-1].Seq, h.Records[i].Seq)
		}
	}
}

// TestWALTornTail injects the corruptions a crash can leave behind and
// asserts replay stops cleanly and recovery truncates.
func TestWALTornTail(t *testing.T) {
	cases := []struct {
		name    string
		mangle  func(t *testing.T, path string)
		lostTwo bool // whether the last record is lost too
	}{
		{"truncated-mid-record", func(t *testing.T, path string) {
			fi, _ := os.Stat(path)
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"garbage-appended", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}, false},
		{"bitflip-in-last-record", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0x10
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, WithSyncInterval(0))
			if err != nil {
				t.Fatal(err)
			}
			const n = 20
			for i := uint64(1); i <= n; i++ {
				w.AppendDetection(det(i))
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			segs, err := listSegments(dir)
			if err != nil || len(segs) != 1 {
				t.Fatalf("want 1 segment, got %d (%v)", len(segs), err)
			}
			tc.mangle(t, segs[0].path)

			wantLast := uint64(n)
			if tc.lostTwo {
				wantLast = n - 1
			}
			// Read-only replay stops at the damage and reports it.
			h, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if h.LastSeq != wantLast || h.TornBytes == 0 {
				t.Fatalf("replay after %s: last=%d (want %d) torn=%d",
					tc.name, h.LastSeq, wantLast, h.TornBytes)
			}

			// Re-opening truncates the tail and appending continues at
			// the right sequence number.
			w2, err := Open(dir, WithSyncInterval(0))
			if err != nil {
				t.Fatal(err)
			}
			rs := w2.Recovery()
			if rs.LastSeq != wantLast || rs.TornBytes == 0 {
				t.Fatalf("recovery after %s: %+v", tc.name, rs)
			}
			w2.AppendDetection(det(n + 1))
			if err := w2.Sync(); err != nil {
				t.Fatal(err)
			}
			w2.Close()
			h2, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if h2.TornBytes != 0 || h2.LastSeq != wantLast+1 {
				t.Fatalf("post-recovery replay: last=%d torn=%d", h2.LastSeq, h2.TornBytes)
			}
		})
	}
}

// TestWALCorruptMidLogDropsTail: damage in an *older* segment abandons
// everything after the corruption point on recovery.
func TestWALCorruptMidLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithSegmentBytes(1024), WithRetainSegments(1000), WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		w.AppendDetection(det(i))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d (%v)", len(segs), err)
	}
	// Flip a byte in the middle of the second segment.
	victim := segs[1].path
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+20] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs := w2.Recovery()
	w2.Close()
	if rs.SegmentsDropped == 0 || rs.TornBytes == 0 {
		t.Fatalf("mid-log corruption not dropped: %+v", rs)
	}
	h, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h.TornBytes != 0 {
		t.Fatalf("replay after recovery still torn: %+v", h)
	}
	// The surviving prefix is contiguous from seq 1.
	for i, r := range h.Records {
		if r.Seq != uint64(i)+1 {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestWALWindow(t *testing.T) {
	h := &History{}
	for i := int64(1); i <= 10; i++ {
		h.Records = append(h.Records, Record{Seq: uint64(i), TimeNs: i * 100})
	}
	if got := h.Window(0, 0); len(got) != 10 {
		t.Fatalf("unbounded window: %d records", len(got))
	}
	got := h.Window(300, 700)
	if len(got) != 4 || got[0].TimeNs != 300 || got[3].TimeNs != 600 {
		t.Fatalf("window [300,700): %+v", got)
	}
	if got := h.Window(2000, 0); len(got) != 0 {
		t.Fatalf("future window: %d records", len(got))
	}
}

func TestWALDroppedWhenRingFull(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithRingSize(2), WithSyncInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Choke the only drain: flood far faster than one writer goroutine
	// can be scheduled. Some records must be dropped-and-counted rather
	// than blocking the producer.
	total := 0
	for i := uint64(0); i < 100_000; i++ {
		w.AppendDetection(det(i))
		total++
	}
	st := w.Stats()
	if st.Appended+st.Dropped != uint64(total) {
		t.Fatalf("append accounting: %d + %d != %d", st.Appended, st.Dropped, total)
	}
	w.Close()
	if w.AppendDetection(det(1)) {
		t.Fatal("append after Close accepted")
	}
	if w.Sync() != ErrClosed {
		t.Fatal("Sync after Close did not report ErrClosed")
	}
}

func TestWALFilesAreSegmentNamed(t *testing.T) {
	if name := segmentName(0x1b); name != "000000000000001b.wal" {
		t.Fatalf("segmentName: %q", name)
	}
	if seq, ok := parseSegmentName("000000000000001b.wal"); !ok || seq != 0x1b {
		t.Fatalf("parseSegmentName: %d %v", seq, ok)
	}
	for _, bad := range []string{"x.wal", "000000000000001b.seg", "1b.wal", ""} {
		if _, ok := parseSegmentName(bad); ok {
			t.Fatalf("parseSegmentName accepted %q", bad)
		}
	}
	dir := t.TempDir()
	// Foreign files in the directory are ignored by listing and replay.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendDetection(det(1))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	h, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 1 {
		t.Fatalf("replay with foreign file: %d records", len(h.Records))
	}
}

// TestWALHealthyStaleness pins the liveness window to the WAL's own
// sync cadence: max(4 sync intervals, 2 s). A writer last seen 3 s ago
// is stale at sub-second cadences (and with fsync-every-batch) but not
// at a 1 s cadence; a write error is unhealthy however fresh the beat.
func TestWALHealthyStaleness(t *testing.T) {
	for _, tc := range []struct {
		sync    time.Duration
		age     time.Duration
		healthy bool
	}{
		{0, time.Second, true},
		{0, 3 * time.Second, false},
		{100 * time.Millisecond, time.Second, true},
		{100 * time.Millisecond, 3 * time.Second, false},
		{time.Second, 3 * time.Second, true},
		{time.Second, 5 * time.Second, false},
	} {
		w := &WAL{opt: options{syncInterval: tc.sync}}
		w.beatNs.Store(time.Now().Add(-tc.age).UnixNano())
		if got := w.Healthy(); got != tc.healthy {
			t.Errorf("sync %v, writer seen %v ago: Healthy() = %v, want %v", tc.sync, tc.age, got, tc.healthy)
		}
		w.writeErrs.Add(1)
		if w.Healthy() {
			t.Errorf("sync %v: Healthy() after a write error", tc.sync)
		}
	}
}
