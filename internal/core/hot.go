package core

import (
	"math"
	"slices"
	"sync/atomic"

	"swwd/internal/runnable"
)

// This file holds the lock-free heartbeat hot path state. The design goal
// is the paper's "minimize performance penalty" requirement (§5, Table 2):
// a heartbeat from a healthy runnable must cost a handful of uncontended
// atomic operations, never a global lock. The layout follows three rules:
//
//   - Per-runnable counters (AC, ARC) and the Activation Status live in a
//     one-cache-line hotState so heartbeats from different runnables
//     never write the same cache line (no false sharing). AC and ARC are
//     both read off one free-running beat counter, so recording a
//     heartbeat in both is a single atomic add, and closing a window is
//     one atomic load and a plain store of the window's baseline. The
//     rest of the line carries the runnable's aliveness window state,
//     which the beat path never reads; the arrival and shadow window
//     state lives in a parallel cold record (coldSched, wheel.go).
//   - The program-flow look-up table is an immutable snapshot swapped with
//     an atomic pointer (copy-on-write on the rare AddFlowPair), so the
//     per-beat flow check is two loads, a bit test and a scan of the
//     predecessor's short successor list. The table is sparse and paged
//     (see flowTable): it costs memory only for predecessors with pairs.
//   - PFC predecessor tracking shards by task: each task owns a padded
//     atomic register, and the per-beat read-predecessor/set-current step
//     is one atomic exchange. A frame's flow records (FlowEventN) pay one
//     exchange per run of consecutive records of one task and check the
//     run's inner pairs locally. (An earlier iteration guarded the
//     registers with 16 sharded mutexes; benchmarking showed the
//     uncontended lock/unlock pair alone cost more than half of the
//     seed's entire hot path, so the shards degenerated to one lock-free
//     register per task — perfect sharding.)
//
// The cold path stays behind one mutex, w.mu: it guards the sweep state
// (the wheel and every runnable's window bookkeeping), the detections,
// the TSI unit and the journal. It is taken once per Cycle and when
// something is wrong or being reconfigured, never per healthy beat.

// cacheLineSize is the assumed coherence granularity.
const cacheLineSize = 64

// eagerDisabled parks the eager arrival trip point out of reach so the
// hot path pays a single always-false compare when the eager check is
// off.
const eagerDisabled = math.MaxUint64

// hotState is the heartbeat-monitoring state of one runnable (§3.3):
// the beat counter and Activation Status the beat path updates with
// atomics, and the aliveness part of the runnable's sweep state
// (aliveSched, see wheel.go) that only lock holders touch.
//
// Ownership discipline:
//
//   - beats counts every heartbeat recorded while the runnable was
//     active, for its whole life; it is never reset. AC is beats minus
//     the aliveness window's baseline (aliveBase) and ARC is beats
//     minus the arrival window's (coldSched.arrBase). A window close
//     loads beats and moves its baseline there, a counter reset moves
//     both, so a racing beat lands in either the closing or the fresh
//     window, and lifetime beats are beats itself.
//   - active gates the counter; it is written by Activate/Deactivate and
//     the treatment paths (cold).
//   - eagerAt is the beat count past which a beat trips the eager arrival
//     check: arrBase + MaxArrivals when the check is armed,
//     eagerDisabled otherwise. It moves with arrBase only when armed, so
//     the hot path needs no hypothesis load and an unarmed close no
//     store.
//   - hyp is the installed fault hypothesis, replaced wholesale by
//     SetHypothesis (equal values share one interned pointer); the sweep
//     reads it once per due runnable.
//   - tid is the hosting task, precomputed at construction and immutable
//     thereafter; keeping it on the runnable's own cache line saves the
//     compat wrapper a second slice load.
//   - the embedded aliveSched — the aliveness window's baseline, anchor
//     and deadline, and the wheel locations of all three deadlines —
//     holds plain fields guarded by w.mu. Every writer (the sweep,
//     activation changes, fault treatment, eager arrival detection)
//     already holds that lock, and every reader takes it.
//
// hotState is exactly one cache line (TestHotLayout). The beat path
// reads its first 32 bytes, and every field an aliveness close reads or
// writes lies in the line, so a due aliveness window costs the sweep one
// line, one atomic load and plain stores. An arrival close, a shadow
// window, SetHypothesis and a counter reset also touch the runnable's
// 32-byte coldSched. Keeping that state off the line halves the bytes
// an aligned due sweep walks, which sits between a missed beat and its
// detection (DESIGN §8).
type hotState struct {
	beats   atomic.Uint64
	active  atomic.Uint32
	tid     int32 // runnable.TaskID; the per-task registers bound it far below 2^31
	eagerAt atomic.Uint64
	hyp     atomic.Pointer[Hypothesis]
	aliveSched
}

// closeAlive closes the aliveness window at beat count b and returns
// its AC. Requires w.mu.
func (h *hotState) closeAlive(b uint64) uint64 {
	ac := b - h.aliveBase
	h.aliveBase = b
	return ac
}

// closeArrival closes the arrival window of h, whose cold record is cs,
// at beat count b and returns its ARC; lim is the eager limit
// (eagerLimit). Requires w.mu.
func (h *hotState) closeArrival(cs *coldSched, b, lim uint64) uint64 {
	arc := b - cs.arrBase
	h.openArrival(cs, b, lim)
	return arc
}

// openArrival opens an arrival window at beat count b and, when the
// eager check is armed (lim > 0), moves the beat path's trip point with
// it. Requires w.mu.
func (h *hotState) openArrival(cs *coldSched, b, lim uint64) {
	cs.arrBase = b
	if lim > 0 {
		h.eagerAt.Store(b + lim)
	}
}

// resetCounters zeroes AC, ARC, CCA and CCAR ("reset to zero, if the
// periods ... expire or an error is detected", §3.3; also on activation
// changes and fault treatment) by moving both baselines to the current
// beat count; eager is Config.EagerArrivalCheck. A beat racing the
// reset lands on either side of it, exactly as the monitoring semantics
// already allow. Requires w.mu.
func (h *hotState) resetCounters(cs *coldSched, eager bool) {
	b := h.beats.Load()
	h.aliveBase = b
	h.openArrival(cs, b, eagerLimit(eager, h.hyp.Load()))
}

// eagerLimit returns MaxArrivals when the eager arrival check is armed
// for hypothesis h (eager is Config.EagerArrivalCheck), 0 otherwise.
func eagerLimit(eager bool, h *Hypothesis) uint64 {
	if !eager || h.ArrivalCycles <= 0 || h.MaxArrivals <= 0 {
		return 0
	}
	return uint64(h.MaxArrivals)
}

// flowPageBits sets the page size of the PFC successor table: one page
// holds the successor lists of 64 consecutive predecessors.
const flowPageBits = 6

// flowPage holds the successor lists of one page of predecessors.
type flowPage [1 << flowPageBits][]runnable.ID

// flowTable is an immutable snapshot of the PFC configuration: which
// runnables are enrolled and which successor pairs are allowed (§3.4).
// Readers load it once per heartbeat (or once per frame, FlowEventN)
// through an atomic pointer; writers clone-and-swap under the watchdog
// mutex.
//
// The look-up table is sparse, as the paper's table is: a runnable has a
// handful of allowed successors. Successor lists live in pages of 64
// predecessors, and a page no pair touches stays nil, so a table without
// pairs costs the monitored bitset plus the page index: two words per 64
// runnables. A clone copies those two and shares every page; an edit
// copies only the pages it writes.
type flowTable struct {
	// monitored is a bitset over runnable IDs of PFC-enrolled runnables.
	monitored []uint64
	// pages[p>>6][p&63] lists the runnables allowed to follow p; a nil
	// page allows nothing after any of its predecessors.
	pages []*flowPage
}

// newFlowTable returns an empty table for n runnables.
func newFlowTable(n int) *flowTable {
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	pages := (n + 1<<flowPageBits - 1) >> flowPageBits
	return &flowTable{monitored: make([]uint64, words), pages: make([]*flowPage, pages)}
}

// isMonitored reports whether rid is PFC-enrolled. rid must be in range.
func (t *flowTable) isMonitored(rid runnable.ID) bool {
	return t.monitored[uint(rid)>>6]&(1<<(uint(rid)&63)) != 0
}

// allowed reports whether succ may follow pred per the look-up table.
func (t *flowTable) allowed(pred, succ runnable.ID) bool {
	pg := t.pages[uint(pred)>>flowPageBits]
	if pg == nil {
		return false
	}
	for _, s := range pg[uint(pred)&(1<<flowPageBits-1)] {
		if s == succ {
			return true
		}
	}
	return false
}

// flowEdit is one copy-on-write edit of a flowTable. The new table
// shares every page of the snapshot it started from until the edit first
// writes to one; owned lists the page indices already copied.
type flowEdit struct {
	t     *flowTable
	owned []uint
}

// edit starts a copy-on-write edit of t.
func (t *flowTable) edit() *flowEdit {
	return &flowEdit{t: &flowTable{monitored: slices.Clone(t.monitored), pages: slices.Clone(t.pages)}}
}

// setMonitored enrols rid.
func (e *flowEdit) setMonitored(rid runnable.ID) {
	e.t.monitored[uint(rid)>>6] |= 1 << (uint(rid) & 63)
}

// addPair allows succ after pred and enrols both.
func (e *flowEdit) addPair(pred, succ runnable.ID) {
	e.setMonitored(pred)
	e.setMonitored(succ)
	pi := uint(pred) >> flowPageBits
	if !slices.Contains(e.owned, pi) {
		pg := new(flowPage)
		if old := e.t.pages[pi]; old != nil {
			*pg = *old
		}
		e.t.pages[pi] = pg
		e.owned = append(e.owned, pi)
	}
	list := &e.t.pages[pi][uint(pred)&(1<<flowPageBits-1)]
	if !slices.Contains(*list, succ) {
		// The full slice expression makes append copy: the list's backing
		// array may be shared with older snapshots.
		*list = append((*list)[:len(*list):len(*list)], succ)
	}
}

// predReg is the per-task PFC predecessor register ("the previously
// executed monitored runnable"), padded so neighbouring tasks do not
// share a cache line. The beat path reads-and-replaces it with a single
// atomic exchange — predecessor tracking sharded by task with one
// lock-free register per shard.
type predReg struct {
	last atomic.Int64 // runnable.ID; runnable.NoID when no predecessor
	_    [cacheLineSize - 8]byte
}
