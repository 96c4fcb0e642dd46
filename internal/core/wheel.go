package core

// This file implements the due-cycle timer wheel behind the Cycle sweep.
//
// The seed design swept every runnable's padded 128-byte counter line on
// every monitoring cycle — O(N) per cycle even when no window expired,
// measured 2.6× slower than the seed's packed-array walk (README
// §Performance history). The wheel replaces that with deadline-based
// scheduling: each runnable stores the absolute cycle number at which its
// aliveness and arrival windows next expire, and those deadlines are
// indexed in a ring of bitmap buckets keyed by `due % wheelSize`.
// `Cycle()` then visits only the runnables whose window expires on that
// very cycle — O(due work) plus a handful of summary-bitmap words —
// instead of walking the whole table.
//
// Deadlines at least wheelSize cycles away cannot live in a bucket (the
// slot would alias an earlier cycle), so they park in a per-kind overflow
// bitset; every wheelSize cycles the sweep migrates overflow entries that
// have come within the horizon into their bucket. A deadline parked in
// overflow is always migrated before it is due: between `due-wheelSize`
// and `due` there is exactly one multiple of wheelSize, migration runs at
// that cycle before the bucket is drained, and at that point
// `due - now < wheelSize` holds.
//
// All wheel state is guarded by the watchdog's lock (w.mu), which the
// sweep holds while it reports detections and which every configuration
// path that reschedules a deadline takes. The heartbeat hot path never
// touches the wheel; the only beat-path entry is the eager arrival cold
// branch, which restarts the arrival window.

// defaultWheelSize is the bucket count of the timer wheel (power of two).
// Hypothesis periods are typically a handful of cycles (the paper uses 5),
// so almost all live deadlines sit in buckets; longer periods overflow and
// are migrated in once per wheel revolution.
const defaultWheelSize = 256

// deadline kinds. kindShadow is the shadow-guard window of a candidate
// hypothesis (see shadow.go): it rides the same buckets as the active
// deadlines, so shadow evaluation is due-cycle work, not a second walk.
const (
	kindAlive  = 0
	kindArr    = 1
	kindShadow = 2
)

// Deadline locations (aliveSched.aliveLoc, arrLoc, shadowLoc).
const (
	locNone = iota
	locBucket
	locOverflow
)

// frozenFlag marks a counter anchor as frozen: the low 63 bits hold the
// cycle-counter value directly instead of the window's start cycle.
const frozenFlag = uint64(1) << 63

// anchorElapsed decodes a counter anchor at cycle c: a running anchor
// stores the window's start cycle (elapsed = c - start); a frozen anchor
// stores the elapsed value itself (monitoring disabled or inactive, the
// counter no longer advances).
func anchorElapsed(a, c uint64) uint64 {
	if a&frozenFlag != 0 {
		return a &^ frozenFlag
	}
	return c - a
}

// aliveSched and coldSched are the per-runnable sweep state. Every
// field is a plain field guarded by w.mu: the sweep, activation changes,
// fault treatment and the eager arrival detection write it holding that
// lock, and CounterSnapshot, the telemetry Snapshot and the journal's
// freeze-frames take the lock to read it.
//
//   - aliveBase/arrBase are the beat counts at which the running
//     aliveness and arrival windows opened: AC and ARC are the beats
//     since (see hotState).
//   - aliveAnchor/arrAnchor stand for the per-cycle CCA/CCAR increments
//     of §3.3: the start cycle of the running window, or a frozen
//     counter value (see anchorElapsed).
//   - the *Due/*Loc pairs index the runnable's deadlines in the wheel.
//
// aliveSched is embedded in hotState: with the beat-path words it
// fills the runnable's one cache line, so an aliveness close, the
// sweep's common case, touches that line alone. The location bytes of
// all three deadlines ride in the line's tail, where alignment would
// otherwise leave padding. coldSched holds the rest in a parallel
// slice (Watchdog.cold), indexed like hot.
type aliveSched struct {
	aliveBase   uint64
	aliveAnchor uint64
	aliveDue    uint64 // absolute cycle the aliveness window expires; 0 = unscheduled
	aliveLoc    uint8
	arrLoc      uint8
	shadowLoc   uint8
}

// coldSched is the arrival and shadow window state of one runnable; see
// aliveSched.
type coldSched struct {
	arrBase   uint64
	arrAnchor uint64
	arrDue    uint64
	shadowDue uint64
}

// dueLoc returns runnable rid's deadline state for kind.
func (s *scheduler) dueLoc(rid, kind int) (uint64, uint8) {
	h := &s.hot[rid]
	switch kind {
	case kindArr:
		return s.cold[rid].arrDue, h.arrLoc
	case kindShadow:
		return s.cold[rid].shadowDue, h.shadowLoc
	default:
		return h.aliveDue, h.aliveLoc
	}
}

// setDueLoc stores runnable rid's deadline state for kind.
func (s *scheduler) setDueLoc(rid, kind int, due uint64, loc uint8) {
	h := &s.hot[rid]
	switch kind {
	case kindArr:
		s.cold[rid].arrDue, h.arrLoc = due, loc
	case kindShadow:
		s.cold[rid].shadowDue, h.shadowLoc = due, loc
	default:
		h.aliveDue, h.aliveLoc = due, loc
	}
}

// wheelBucket holds the deadlines of one wheel slot, one bitmap per kind.
// A slot holds a bitset only while deadlines may land on it: get takes
// one from the scheduler's free list (allocating only when it is
// empty), and the next Cycle hands the swept slot's drained bitsets
// back. A periodic fleet whose windows all expire together therefore
// cycles through a couple of bitsets per kind instead of keeping one on
// every slot it visits.
type wheelBucket struct {
	alive  *bitset
	arr    *bitset
	shadow *bitset
}

// get returns the bucket's bitset for kind, taking an empty one from s's
// free list, or allocating, when the slot has none.
func (b *wheelBucket) get(kind int, s *scheduler) *bitset {
	p := &b.alive
	switch kind {
	case kindArr:
		p = &b.arr
	case kindShadow:
		p = &b.shadow
	}
	if *p == nil {
		if k := len(s.free); k > 0 {
			*p = s.free[k-1]
			s.free = s.free[:k-1]
		} else {
			*p = newBitset(s.n)
		}
	}
	return *p
}

// peek returns the bucket's bitset for kind without allocating.
func (b *wheelBucket) peek(kind int) *bitset {
	switch kind {
	case kindArr:
		return b.arr
	case kindShadow:
		return b.shadow
	default:
		return b.alive
	}
}

// scheduler is the due-cycle index driving the wheel-based sweep.
// Guarded by w.mu, like every runnable's sweep state (aliveSched and
// coldSched).
type scheduler struct {
	size uint64 // bucket count, power of two
	mask uint64

	buckets    []wheelBucket
	overAlive  *bitset // deadlines ≥ size cycles away
	overArr    *bitset
	overShadow *bitset
	hot        []hotState  // the watchdog's runnables, for their sweep state
	cold       []coldSched // their arrival and shadow sweep state
	n          int         // number of runnables
	// none stands in for a slot that holds no bitset of a kind, so
	// the sweep walks two bitsets without nil checks. It stays empty.
	none *bitset

	// free holds empty bitsets handed back by swept slots, for get to
	// reuse; every bitset of the wheel has the same size.
	free []*bitset

	// Reusable sweep buffers.
	dueShadow []uint32
	migr      []uint32
}

// newScheduler builds the wheel over the runnables of hot and cold
// (equal lengths) and freezes their counters at zero. size must be a
// power of two.
func newScheduler(hot []hotState, cold []coldSched, size uint64) *scheduler {
	if size == 0 {
		size = defaultWheelSize
	}
	n := len(hot)
	s := &scheduler{
		size:       size,
		mask:       size - 1,
		buckets:    make([]wheelBucket, size),
		overAlive:  newBitset(n),
		overArr:    newBitset(n),
		overShadow: newBitset(n),
		hot:        hot,
		cold:       cold,
		n:          n,
		none:       newBitset(n),
	}
	for i := range hot {
		// Everything starts inactive: counters frozen at zero.
		hot[i].aliveAnchor = frozenFlag
		cold[i].arrAnchor = frozenFlag
	}
	return s
}

// overflow returns the overflow bitset for kind.
func (s *scheduler) overflow(kind int) *bitset {
	switch kind {
	case kindArr:
		return s.overArr
	case kindShadow:
		return s.overShadow
	default:
		return s.overAlive
	}
}

// schedule indexes a deadline. due must be > now. Callers hold w.mu and
// have unscheduled any previous deadline of the same kind.
func (s *scheduler) schedule(rid, kind int, due, now uint64) {
	var loc uint8
	if due-now < s.size {
		s.buckets[due&s.mask].get(kind, s).set(rid)
		loc = locBucket
	} else {
		s.overflow(kind).set(rid)
		loc = locOverflow
	}
	s.setDueLoc(rid, kind, due, loc)
}

// wordAlive gathers, for the sweep of one bitset word, the runnables
// whose next aliveness deadline is the same in-horizon cycle, so the
// sweep indexes them with one OR into that cycle's bucket (flushAlive)
// instead of a schedule call each.
type wordAlive struct {
	due  uint64
	bits uint64
}

// join adds rid to ws when its next aliveness deadline due (> now)
// lies within the horizon size and ws is empty or holds due, and
// reports whether it did.
func (ws *wordAlive) join(rid int, due, now, size uint64) bool {
	if due-now >= size || (ws.bits != 0 && ws.due != due) {
		return false
	}
	ws.due = due
	ws.bits |= 1 << (uint(rid) & 63)
	return true
}

// flushAlive ORs ws into its bucket as payload word wi.
func (s *scheduler) flushAlive(ws *wordAlive, wi int) {
	if ws.bits != 0 {
		s.buckets[ws.due&s.mask].get(kindAlive, s).orWord(wi, ws.bits)
	}
}

// unschedule removes a deadline if one is indexed. Callers hold w.mu.
func (s *scheduler) unschedule(rid, kind int) {
	due, loc := s.dueLoc(rid, kind)
	switch loc {
	case locBucket:
		if bs := s.buckets[due&s.mask].peek(kind); bs != nil {
			bs.clear(rid)
		}
	case locOverflow:
		s.overflow(kind).clear(rid)
	}
	s.setDueLoc(rid, kind, 0, locNone)
}

// migrate moves overflow deadlines that have come within the wheel
// horizon into their bucket. Called once per wheel revolution, before the
// current bucket is drained, so a deadline due this very cycle is still
// swept on time.
func (s *scheduler) migrate(now uint64) {
	for kind := kindAlive; kind <= kindShadow; kind++ {
		ov := s.overflow(kind)
		if ov.len() == 0 {
			continue
		}
		s.migr = ov.appendMembers(s.migr[:0])
		for _, rid := range s.migr {
			due, _ := s.dueLoc(int(rid), kind)
			if due-now >= s.size {
				continue
			}
			ov.clear(int(rid))
			s.buckets[due&s.mask].get(kind, s).set(int(rid))
			s.setDueLoc(int(rid), kind, due, locBucket)
		}
	}
}

// release hands a slot's empty bitsets back to the free list; a
// bitset that still holds a deadline stays on its slot.
func (s *scheduler) release(b *wheelBucket) {
	for _, p := range []**bitset{&b.alive, &b.arr, &b.shadow} {
		if *p != nil && (*p).n == 0 {
			s.free = append(s.free, *p)
			*p = nil
		}
	}
}

// resetAll clears every indexed deadline (ClearAll rebuilds the wheel
// after resetting the cycle counter, since bucket slots are keyed by
// absolute cycle numbers).
func (s *scheduler) resetAll() {
	scratch := s.migr[:0]
	for i := range s.buckets {
		b := &s.buckets[i]
		for _, bs := range []*bitset{b.alive, b.arr, b.shadow} {
			if bs != nil {
				scratch = bs.drainInto(scratch[:0])
			}
		}
		s.release(b)
	}
	scratch = s.overAlive.drainInto(scratch[:0])
	scratch = s.overArr.drainInto(scratch[:0])
	scratch = s.overShadow.drainInto(scratch[:0])
	s.migr = scratch[:0]
	for i := range s.hot {
		for kind := kindAlive; kind <= kindShadow; kind++ {
			s.setDueLoc(i, kind, 0, locNone)
		}
	}
}
