package wal

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Defaults for Option zero values.
const (
	// DefaultSegmentBytes is the rotation threshold of one segment.
	DefaultSegmentBytes = 8 << 20
	// DefaultSyncInterval is the group-commit fsync cadence: records
	// are acknowledged (durable) at most this long after they were
	// appended.
	DefaultSyncInterval = 50 * time.Millisecond
	// DefaultRetainSegments is how many rotated segments are kept.
	DefaultRetainSegments = 64
	// DefaultRingSize is the hand-off ring capacity in records.
	DefaultRingSize = 1024

	// flushChunk bounds the encode buffer: a drain writes to the OS at
	// least every flushChunk bytes so one enormous backlog cannot grow
	// the buffer unboundedly.
	flushChunk = 1 << 20
)

// ErrClosed is reported by Sync and Close after the WAL shut down.
var ErrClosed = errors.New("wal: closed")

// Option tunes an opened WAL.
type Option func(*options)

type options struct {
	segmentBytes int64
	syncInterval time.Duration
	syncEvery    bool // fsync after every write batch (max durability)
	retainSegs   int
	retainAge    time.Duration
	ringSize     int
}

// WithSegmentBytes sets the segment rotation threshold.
func WithSegmentBytes(n int64) Option {
	return func(o *options) {
		if n > 0 {
			o.segmentBytes = n
		}
	}
}

// WithSyncInterval sets the group-commit fsync cadence. d <= 0 selects
// maximum durability: an fsync after every write batch.
func WithSyncInterval(d time.Duration) Option {
	return func(o *options) {
		o.syncInterval = d
		o.syncEvery = d <= 0
	}
}

// WithRetainSegments keeps at most n segments (including the active
// one); older segments are removed at rotation. n < 1 is ignored.
func WithRetainSegments(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.retainSegs = n
		}
	}
}

// WithRetainAge additionally removes rotated segments not modified for
// d (0 disables age-based compaction).
func WithRetainAge(d time.Duration) Option {
	return func(o *options) { o.retainAge = d }
}

// WithRingSize sets the hand-off ring capacity (rounded up to a power
// of two).
func WithRingSize(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.ringSize = n
		}
	}
}

// RecoveryStats reports what Open found and repaired.
type RecoveryStats struct {
	// Segments is the segment count after recovery; Records the intact
	// records scanned; LastSeq the highest surviving sequence number (0
	// on a fresh log).
	Segments int
	Records  uint64
	LastSeq  uint64
	// TornBytes is how many trailing bytes were truncated as an
	// interrupted append; SegmentsDropped how many whole segments after
	// the corruption point were removed.
	TornBytes       int64
	SegmentsDropped int
}

// Stats is a point-in-time copy of the WAL's counters.
type Stats struct {
	// Appended counts records accepted into the hand-off ring; Dropped
	// the records refused because the ring was full or the WAL closed
	// (the producers never block).
	Appended uint64
	Dropped  uint64
	// Written counts records handed to the OS; Synced the records
	// covered by a completed fsync — the durability horizon. SyncedSeq
	// is the last acknowledged sequence number: every record with
	// Seq <= SyncedSeq survives kill -9.
	Written   uint64
	Synced    uint64
	SyncedSeq uint64
	// Syncs counts fsync calls; BytesWritten the record bytes written;
	// WriteErrors failed writes or fsyncs (records in a failed batch
	// are lost and the health probe degrades).
	Syncs        uint64
	BytesWritten uint64
	WriteErrors  uint64
	// Rotations counts segment rotations; SegmentsRemoved the segments
	// deleted by retention; Segments the current on-disk segment count.
	Rotations       uint64
	SegmentsRemoved uint64
	Segments        int
	// RingDepth is the approximate hand-off backlog; LastSyncNs the
	// wall clock of the last completed fsync (0 = never); WriterBeatNs
	// the writer goroutine's last liveness beat — both in Unix
	// nanoseconds, for the /healthz probe.
	RingDepth    int
	LastSyncNs   int64
	WriterBeatNs int64
}

// WAL is an opened write-ahead log: concurrent producers append through
// a lock-free ring, one writer goroutine owns the segment files.
type WAL struct {
	dir      string
	opt      options
	ring     *ring
	wake     chan struct{}
	syncReq  chan chan error
	stop     chan struct{}
	done     chan struct{}
	recovery RecoveryStats

	// Writer-goroutine-only state.
	f           *os.File
	curSize     int64
	encBuf      []byte
	nextSeq     uint64
	writtenSeq  uint64
	pendingSync bool

	// Counters shared with Stats readers.
	appended  atomic.Uint64
	dropped   atomic.Uint64
	written   atomic.Uint64
	synced    atomic.Uint64
	syncedSeq atomic.Uint64
	syncs     atomic.Uint64
	bytes     atomic.Uint64
	writeErrs atomic.Uint64
	rotations atomic.Uint64
	removed   atomic.Uint64
	segments  atomic.Int64
	lastSync  atomic.Int64
	beatNs    atomic.Int64
	closed    atomic.Bool
}

// Open recovers the log in dir (created if missing) — scanning every
// segment, truncating the torn tail a crash left behind, dropping
// segments past a corruption point — and starts the writer goroutine.
// Sequence numbers continue after the last intact record.
func Open(dir string, opts ...Option) (*WAL, error) {
	opt := options{
		segmentBytes: DefaultSegmentBytes,
		syncInterval: DefaultSyncInterval,
		retainSegs:   DefaultRetainSegments,
		ringSize:     DefaultRingSize,
	}
	for _, o := range opts {
		o(&opt)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:     dir,
		opt:     opt,
		ring:    newRing(opt.ringSize),
		wake:    make(chan struct{}, 1),
		syncReq: make(chan chan error),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := w.recover(); err != nil {
		return nil, err
	}
	w.beatNs.Store(time.Now().UnixNano())
	go w.run()
	return w, nil
}

// Recovery reports what Open found and repaired.
func (w *WAL) Recovery() RecoveryStats { return w.recovery }

// Dir reports the log directory.
func (w *WAL) Dir() string { return w.dir }

// recover scans the segments, truncates the torn tail and opens the
// last segment for appending (or creates the first one).
func (w *WAL) recover() error {
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	rs := RecoveryStats{}
	want := startSeq(segs)
	broken := -1 // index of the segment where scanning stopped
	var validOff int64
	for i := range segs {
		data, err := os.ReadFile(segs[i].path)
		if err != nil {
			return err
		}
		off, scanErr := scanSegment(data, &want, func(r *Record) {
			rs.Records++
			rs.LastSeq = r.Seq
		})
		if scanErr != nil {
			broken, validOff = i, off
			break
		}
	}
	if broken >= 0 {
		// Truncate the interrupted segment at the last intact record —
		// or remove it outright when not even the header survived —
		// and remove every segment after it: records beyond a
		// corruption point have no contiguous history to belong to.
		keep := broken + 1
		if validOff < segHeaderSize {
			keep = broken
		} else if err := os.Truncate(segs[broken].path, validOff); err != nil {
			return err
		}
		rs.TornBytes -= validOff
		for k, s := range segs[broken:] {
			rs.TornBytes += s.size
			if broken+k >= keep {
				if err := os.Remove(s.path); err != nil {
					return err
				}
				rs.SegmentsDropped++
			}
		}
		segs = segs[:keep]
	}

	// want is the number the next record carries: one past the last
	// record kept or, with none kept, the one the first segment is named
	// after (1 for an empty log).
	w.nextSeq = max(want, 1)
	if len(segs) == 0 {
		f, err := createSegment(w.dir, w.nextSeq)
		if err != nil {
			return err
		}
		w.f, w.curSize = f, segHeaderSize
		w.segments.Store(1)
		rs.Segments = 1
	} else {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		w.f, w.curSize = f, fi.Size()
		w.segments.Store(int64(len(segs)))
		rs.Segments = len(segs)
	}
	if rs.TornBytes > 0 || rs.SegmentsDropped > 0 {
		if err := syncDir(w.dir); err != nil {
			w.f.Close()
			return err
		}
	}
	w.writtenSeq = rs.LastSeq
	w.syncedSeq.Store(rs.LastSeq)
	w.recovery = rs
	return nil
}

// AppendDetection hands a detection record to the writer. It never
// blocks; false means the ring was full (or the WAL closed) and the
// record was dropped and counted. Safe from any goroutine, including
// under the watchdog's cold-path mutex.
func (w *WAL) AppendDetection(d Detection) bool {
	r := Record{Kind: KindDetection, Det: d}
	return w.append(&r)
}

// AppendAction hands a treatment-action record to the writer.
func (w *WAL) AppendAction(a Action) bool {
	r := Record{Kind: KindAction, Act: a}
	return w.append(&r)
}

// AppendDelta hands an ingest counter-delta record to the writer.
func (w *WAL) AppendDelta(d Delta) bool {
	r := Record{Kind: KindDelta, Delta: d}
	return w.append(&r)
}

func (w *WAL) append(r *Record) bool {
	if w.closed.Load() {
		w.dropped.Add(1)
		return false
	}
	r.TimeNs = time.Now().UnixNano()
	if !w.ring.push(r) {
		w.dropped.Add(1)
		return false
	}
	w.appended.Add(1)
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return true
}

// Sync forces a group commit: it returns once every record appended
// before the call is fsync'd (or the write failed).
func (w *WAL) Sync() error {
	ch := make(chan error, 1)
	select {
	case w.syncReq <- ch:
		return <-ch
	case <-w.done:
		return ErrClosed
	}
}

// Close drains the ring, commits the tail and stops the writer.
func (w *WAL) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		<-w.done
		return nil
	}
	close(w.stop)
	<-w.done
	return nil
}

// Stats returns a point-in-time copy of the counters.
func (w *WAL) Stats() Stats {
	return Stats{
		Appended:        w.appended.Load(),
		Dropped:         w.dropped.Load(),
		Written:         w.written.Load(),
		Synced:          w.synced.Load(),
		SyncedSeq:       w.syncedSeq.Load(),
		Syncs:           w.syncs.Load(),
		BytesWritten:    w.bytes.Load(),
		WriteErrors:     w.writeErrs.Load(),
		Rotations:       w.rotations.Load(),
		SegmentsRemoved: w.removed.Load(),
		Segments:        int(w.segments.Load()),
		RingDepth:       w.ring.depth(),
		LastSyncNs:      w.lastSync.Load(),
		WriterBeatNs:    w.beatNs.Load(),
	}
}

// Healthy reports whether the writer goroutine has not hit a write
// error and has shown liveness within max(4 sync intervals, 2 s): the
// writer beats at least once per sync interval, and the floor keeps a
// sub-second cadence from flapping on one slow fsync.
func (w *WAL) Healthy() bool {
	if w.closed.Load() || w.writeErrs.Load() > 0 {
		return false
	}
	staleAfter := max(4*w.opt.syncInterval, 2*time.Second)
	return time.Now().UnixNano()-w.beatNs.Load() < int64(staleAfter)
}

// run is the writer goroutine: drain, encode, write, group-commit.
func (w *WAL) run() {
	tick := w.opt.syncInterval
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var rec Record
	for {
		var ack chan error
		select {
		case <-w.wake:
		case <-ticker.C:
		case ack = <-w.syncReq:
		case <-w.stop:
			w.drainAndWrite(&rec)
			_ = w.fsync()
			if w.f != nil {
				_ = w.f.Close()
			}
			close(w.done)
			return
		}
		now := time.Now().UnixNano()
		w.beatNs.Store(now)
		w.drainAndWrite(&rec)
		due := w.opt.syncEvery || now-w.lastSync.Load() >= int64(w.opt.syncInterval)
		if ack != nil || (due && w.pendingSync) {
			err := w.fsync()
			if ack != nil {
				ack <- err
			}
		}
	}
}

// drainAndWrite empties the ring into the encode buffer, flushing to
// the current segment in flushChunk slices and rotating at record
// granularity: a record that would push the active segment past its
// size budget opens the next segment instead (records never span
// segments).
func (w *WAL) drainAndWrite(rec *Record) {
	buf := w.encBuf[:0]
	n, firstSeq := 0, uint64(0)
	flush := func() {
		if n > 0 {
			w.writeChunk(buf, n, firstSeq)
			buf, n = buf[:0], 0
		}
	}
	for w.ring.pop(rec) {
		rec.Seq = w.nextSeq
		w.nextSeq++
		recLen := int64(frameOverhead + bodyLen(rec.Kind))
		if w.curSize+int64(len(buf))+recLen > w.opt.segmentBytes &&
			w.curSize+int64(len(buf)) > segHeaderSize {
			flush()
			w.rotate(rec.Seq)
		}
		if n == 0 {
			firstSeq = rec.Seq
		}
		buf = appendRecord(buf, rec)
		n++
		if len(buf) >= flushChunk {
			flush()
		}
	}
	flush()
	w.encBuf = buf[:0]
}

// writeChunk appends one encoded batch to the active segment.
func (w *WAL) writeChunk(buf []byte, n int, firstSeq uint64) {
	if w.f == nil {
		w.writeErrs.Add(1)
		return
	}
	if _, err := w.f.Write(buf); err != nil {
		w.writeErrs.Add(1)
		return
	}
	w.curSize += int64(len(buf))
	w.writtenSeq = firstSeq + uint64(n) - 1
	w.written.Add(uint64(n))
	w.bytes.Add(uint64(len(buf)))
	w.pendingSync = true
}

// fsync completes the group commit: everything written so far becomes
// acknowledged. A no-op when nothing is pending.
func (w *WAL) fsync() error {
	if !w.pendingSync || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.writeErrs.Add(1)
		return err
	}
	w.pendingSync = false
	w.syncs.Add(1)
	w.syncedSeq.Store(w.writtenSeq)
	w.synced.Store(w.written.Load())
	w.lastSync.Store(time.Now().UnixNano())
	return nil
}

// rotate commits and closes the active segment, starts a fresh one
// whose name is the next record's sequence number, and applies the
// retention policy to the rotated-out tail.
func (w *WAL) rotate(nextFirst uint64) {
	if err := w.fsync(); err != nil {
		return // keep appending to the old segment; the error is counted
	}
	_ = w.f.Close()
	f, err := createSegment(w.dir, nextFirst)
	if err != nil {
		w.writeErrs.Add(1)
		w.f = nil
		return
	}
	w.f, w.curSize = f, segHeaderSize
	w.rotations.Add(1)
	w.segments.Add(1)
	w.applyRetention()
	if err := syncDir(w.dir); err != nil {
		w.writeErrs.Add(1)
	}
}

// applyRetention removes the oldest rotated segments beyond the
// configured count and age budgets. The active segment never goes.
func (w *WAL) applyRetention() {
	segs, err := listSegments(w.dir)
	if err != nil {
		w.writeErrs.Add(1)
		return
	}
	if len(segs) == 0 {
		return
	}
	cutoff := int64(0)
	if w.opt.retainAge > 0 {
		cutoff = time.Now().Add(-w.opt.retainAge).UnixNano()
	}
	for i, s := range segs[:len(segs)-1] { // never the active (newest) segment
		excess := len(segs)-i > w.opt.retainSegs
		tooOld := cutoff > 0 && s.modNs < cutoff
		if !excess && !tooOld {
			break
		}
		if err := os.Remove(s.path); err != nil {
			w.writeErrs.Add(1)
			return
		}
		w.removed.Add(1)
		w.segments.Add(-1)
	}
}

// syncDir fsyncs the log directory so segment creates and removes are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
