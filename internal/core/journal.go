package core

import (
	"swwd/internal/runnable"
	"swwd/internal/sim"
)

// This file implements the fault-event journal: a fixed-size,
// power-of-two ring buffer of the most recent detections, in the spirit
// of an AUTOSAR Dem event memory. Each entry carries the detection
// itself plus a freeze-frame of the runnable's monitoring counters at
// the moment of detection, so a fault can be diagnosed after the fact
// without having had a trace attached.
//
// Placement: journal writes happen only inside detectLocked, i.e. on the
// detection cold path under the watchdog's existing mutex. The healthy
// beat path never touches the journal — a heartbeat that trips nothing
// costs zero journal work — and no new lock is introduced: the ring
// shares w.mu with the error-indication vectors it snapshots. When the
// ring is full the oldest entry is overwritten and the drop counter
// advances, so a reader can always tell how much history it lost.

// defaultJournalSize is the ring capacity when Config.JournalSize is
// zero. 256 entries × ~130 B ≈ 33 KiB — small enough to always carry,
// deep enough to cover a realistic fault burst (the paper's evaluation
// scenarios produce a handful of detections per injected fault).
const defaultJournalSize = 256

// maxJournalSize bounds Config.JournalSize: 1<<20 entries × ~130 B ≈
// 130 MiB, far past any fault burst. New rejects larger sizes, which
// would otherwise ask for a multi-GB ring or overflow the power-of-two
// rounding in newJournal.
const maxJournalSize = 1 << 20

// JournalEntry is one recorded detection with its freeze-frame.
type JournalEntry struct {
	// Seq is the entry's position in the lifetime detection sequence,
	// starting at 0. Seq gaps never occur; after overwrites the journal
	// simply starts at a Seq > Dropped-visible floor.
	Seq   uint64
	Time  sim.Time
	Cycle uint64
	Kind  ErrorKind

	Runnable runnable.ID
	Task     runnable.TaskID
	App      runnable.AppID

	// Observed/Expected carry the counter evidence exactly as in Report.
	Observed int
	Expected int
	// Predecessor is set for ProgramFlowError (runnable.NoID otherwise).
	Predecessor runnable.ID
	// Correlated marks an error attributed to a program-flow root cause.
	Correlated bool

	// Frame is the freeze-frame: the runnable's live monitoring counters
	// (AC/ARC/CCA/CCAR/AS) read at detection time, after the expiring
	// window was closed.
	Frame Counters
	// Beats is the runnable's lifetime heartbeat count at detection time.
	Beats uint64
	// ErrAliveness/ErrArrivalRate/ErrProgramFlow are the runnable's
	// error-indication vector after this detection was accumulated.
	ErrAliveness   uint64
	ErrArrivalRate uint64
	ErrProgramFlow uint64
}

// journal is the ring storage. All fields are guarded by the watchdog's
// cold-path mutex (w.mu): every writer already holds it, and readers
// take it briefly to copy entries out.
type journal struct {
	entries []JournalEntry // len is a power of two
	mask    uint64
	next    uint64 // sequence number of the next entry to be written
	dropped uint64 // entries overwritten (lost to the ring wrapping)
}

// newJournal builds a ring with at least the requested capacity, rounded
// up to a power of two. size <= 0 selects the default.
func newJournal(size int) *journal {
	if size <= 0 {
		size = defaultJournalSize
	}
	cap := 1
	for cap < size {
		cap <<= 1
	}
	return &journal{entries: make([]JournalEntry, cap), mask: uint64(cap) - 1}
}

// appendLocked records one entry, overwriting the oldest when full, and
// returns the entry with its Seq stamped (for the journal sink).
// Callers hold w.mu.
func (j *journal) appendLocked(e JournalEntry) JournalEntry {
	e.Seq = j.next
	if j.next >= uint64(len(j.entries)) {
		j.dropped++
	}
	j.entries[j.next&j.mask] = e
	j.next++
	return e
}

// lenLocked reports how many entries are currently held.
func (j *journal) lenLocked() int {
	if j.next < uint64(len(j.entries)) {
		return int(j.next)
	}
	return len(j.entries)
}

// appendTo copies the held entries, oldest first, onto dst. Callers hold
// w.mu.
func (j *journal) appendTo(dst []JournalEntry) []JournalEntry {
	n := uint64(j.lenLocked())
	for seq := j.next - n; seq < j.next; seq++ {
		dst = append(dst, j.entries[seq&j.mask])
	}
	return dst
}

// JournalStats summarizes the ring without copying entries.
type JournalStats struct {
	// Len is the number of entries currently held; Cap the ring size.
	Len, Cap int
	// Written is the lifetime number of detections journaled; Dropped how
	// many of those were overwritten before being this old. The oldest
	// retained entry has Seq == Written-Len.
	Written, Dropped uint64
}

// Journal returns the retained fault-event entries, oldest first. A nil
// slice means the journal is disabled (Config.JournalSize < 0).
func (w *Watchdog) Journal() []JournalEntry {
	return w.JournalInto(nil)
}

// JournalInto appends the retained entries, oldest first, onto dst and
// returns it; passing a previous result amortizes the allocation to
// zero. The copy is taken under the cold-path mutex, so it is a
// consistent prefix-free view of the ring.
func (w *Watchdog) JournalInto(dst []JournalEntry) []JournalEntry {
	if w.journal == nil {
		return dst
	}
	w.lock()
	defer w.mu.Unlock()
	return w.journal.appendTo(dst)
}

// JournalStats reports ring occupancy and the drop accounting. The zero
// value is returned when the journal is disabled.
func (w *Watchdog) JournalStats() JournalStats {
	if w.journal == nil {
		return JournalStats{}
	}
	w.lock()
	defer w.mu.Unlock()
	return w.journalStatsLocked()
}

// journalStatsLocked assembles JournalStats; callers hold w.mu.
func (w *Watchdog) journalStatsLocked() JournalStats {
	j := w.journal
	if j == nil {
		return JournalStats{}
	}
	return JournalStats{
		Len:     j.lenLocked(),
		Cap:     len(j.entries),
		Written: j.next,
		Dropped: j.dropped,
	}
}

// journalLocked appends the freeze-framed detection to the ring, if one
// is attached. Callers hold w.mu, which also guards the sweep state
// the freeze-frame reads.
func (w *Watchdog) journalLocked(kind ErrorKind, rid runnable.ID, tid runnable.TaskID, app runnable.AppID,
	cycle uint64, observed, expected int, pred runnable.ID, correlated bool) {
	j := w.journal
	if j == nil {
		return
	}
	e := w.errv[rid]
	frame, beats := w.countersLocked(rid)
	stamped := j.appendLocked(JournalEntry{
		Time:           w.clock.Now(),
		Cycle:          cycle,
		Kind:           kind,
		Runnable:       rid,
		Task:           tid,
		App:            app,
		Observed:       observed,
		Expected:       expected,
		Predecessor:    pred,
		Correlated:     correlated,
		Frame:          frame,
		Beats:          beats,
		ErrAliveness:   e[0],
		ErrArrivalRate: e[1],
		ErrProgramFlow: e[2],
	})
	if w.journalSink != nil {
		w.journalSink(stamped)
	}
}

// SetJournalSink installs (or, with nil, removes) the journal sink at
// runtime; see Config.JournalSink for the contract. No-op when the
// journal is disabled.
func (w *Watchdog) SetJournalSink(fn func(JournalEntry)) {
	if w.journal == nil {
		return
	}
	w.lock()
	w.journalSink = fn
	w.mu.Unlock()
}
