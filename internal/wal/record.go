// Package wal is the durable fault-history log of the Software
// Watchdog: an append-only, segmented write-ahead log that streams
// journal detections, treatment actions and ingest counter deltas to
// disk off the hot path, survives crashes, and replays into a
// Snapshot-equivalent view for "what happened at 03:12" queries.
//
// # Why a WAL
//
// The in-core fault-event journal (internal/core journal.go) is a
// volatile ring: a daemon restart erases exactly the evidence a fleet
// supervisor needs after an incident. The paper's watchdog exists to
// record dependability evidence; this package is the recording half at
// fleet scale — the persistent event memory of a central
// health-monitoring node.
//
// # Architecture
//
//	producers ──► lock-free ring ──► writer goroutine ──► segment files
//	(journal sink,  (bounded MPMC,     (group-commit        (CRC32C-framed
//	 treat actions,  drop-counted)      batching, fsync      records, rotation,
//	 ingest deltas)                     cadence)             retention)
//
// Producers hand fixed-size records to a bounded lock-free ring and
// return immediately — a full ring drops the record and counts it, so
// the detection and ingest paths never block on disk. A single writer
// goroutine drains the ring in batches, assigns monotonic sequence
// numbers, appends CRC32C-framed records to the current segment and
// fsyncs on a configurable cadence (group commit). A record is
// *acknowledged* — guaranteed to survive kill -9 — once a completed
// fsync covers it; Stats.SyncedSeq is the durability horizon.
//
// Recovery on Open scans the segments in order, verifies every frame's
// CRC and sequence continuity, truncates the torn tail the crash left
// behind and resumes appending after the last intact record. Replay
// never mutates: it stops at the first invalid frame and reports how
// many torn bytes it skipped.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"

	"swwd/internal/core"
	"swwd/internal/ingest"
)

// Kind classifies one WAL record.
type Kind uint8

const (
	// KindDetection is a fault detection streamed from the in-core
	// journal, freeze-frame included.
	KindDetection Kind = iota + 1
	// KindAction is one executed fault-treatment action.
	KindAction
	// KindDelta is a periodic snapshot of the ingest server's counter
	// deltas since the previous delta record.
	KindDelta
	kindMax
)

// String names the kind for logs and the /history endpoint.
func (k Kind) String() string {
	switch k {
	case KindDetection:
		return "detection"
	case KindAction:
		return "action"
	case KindDelta:
		return "ingest-delta"
	}
	return "unknown"
}

// Detection is the durable form of one journal entry: the detection
// plus its freeze-frame, exactly as recorded by the in-core journal.
// JournalSeq is the journal's monotonic entry sequence (also exported
// as swwd_journal_seq), so WAL records, live journal reads and /history
// results can be correlated and dedup'd across restarts.
//
// Observed, Expected and the counters AC, ARC, CCA and CCAR are stored
// saturated to [0, MaxInt32]: a count past 2³¹−1 reads MaxInt32, never a
// wrapped value. ARC of a runnable with arrival monitoring off is never
// cleared, so it can pass that bound on a long-lived runnable. Wider
// fields would lengthen the fixed payload that existing segments are
// decoded by.
type Detection struct {
	JournalSeq uint64 `json:"journal_seq"`
	SimTimeNs  int64  `json:"sim_time_ns"`
	Cycle      uint64 `json:"cycle"`
	Kind       uint8  `json:"kind"`

	Runnable    int32 `json:"runnable"`
	Task        int32 `json:"task"`
	App         int32 `json:"app"`
	Predecessor int32 `json:"predecessor"`

	Observed   int32 `json:"observed"`
	Expected   int32 `json:"expected"`
	Correlated bool  `json:"correlated"`

	// Freeze-frame: the runnable's live monitoring counters at
	// detection time, plus its lifetime beat count and cumulative
	// error-indication vector *after* this detection.
	Active         bool   `json:"active"`
	AC             int32  `json:"ac"`
	ARC            int32  `json:"arc"`
	CCA            int32  `json:"cca"`
	CCAR           int32  `json:"ccar"`
	Beats          uint64 `json:"beats"`
	ErrAliveness   uint64 `json:"err_aliveness"`
	ErrArrivalRate uint64 `json:"err_arrival_rate"`
	ErrProgramFlow uint64 `json:"err_program_flow"`
}

// FromJournal converts an in-core journal entry to its durable form.
func FromJournal(e core.JournalEntry) Detection {
	return Detection{
		JournalSeq:     e.Seq,
		SimTimeNs:      int64(e.Time),
		Cycle:          e.Cycle,
		Kind:           uint8(e.Kind),
		Runnable:       int32(e.Runnable),
		Task:           int32(e.Task),
		App:            int32(e.App),
		Predecessor:    int32(e.Predecessor),
		Observed:       sat32(e.Observed),
		Expected:       sat32(e.Expected),
		Correlated:     e.Correlated,
		Active:         e.Frame.Active,
		AC:             sat32(e.Frame.AC),
		ARC:            sat32(e.Frame.ARC),
		CCA:            sat32(e.Frame.CCA),
		CCAR:           sat32(e.Frame.CCAR),
		Beats:          e.Beats,
		ErrAliveness:   e.ErrAliveness,
		ErrArrivalRate: e.ErrArrivalRate,
		ErrProgramFlow: e.ErrProgramFlow,
	}
}

// sat32 saturates a count to [0, MaxInt32] (see Detection).
func sat32(v int) int32 {
	return int32(max(0, min(v, math.MaxInt32)))
}

// Action is the durable form of one executed treatment action
// (internal/treat Action semantics: Node acted on, Cause traced to).
// ExecErr marks actions whose executor reported an error.
type Action struct {
	Kind      uint8  `json:"kind"`
	Node      uint32 `json:"node"`
	Cause     uint32 `json:"cause"`
	SimTimeNs int64  `json:"sim_time_ns"`
	ExecErr   bool   `json:"exec_err"`
}

// Delta is one periodic snapshot of ingest counter deltas: every
// counter is the increase since the previous Delta record
// (ingest.Stats.Delta). Summing a contiguous run of deltas
// (Counters.Add) reconstructs the counters over any replayed window.
// The record stores the counters in ingest.Counters.Fields order.
type Delta = ingest.Counters

// Record is one WAL entry: the monotonic WAL sequence number, the
// wall-clock append time, and exactly one kind-selected payload. The
// struct is fixed-size and pointer-free so the ring hand-off is one
// copy and zero allocations.
type Record struct {
	// Seq is the record's WAL sequence number: contiguous, ascending,
	// assigned by the writer goroutine, monotonic across restarts.
	Seq uint64 `json:"seq"`
	// TimeNs is the wall-clock append time in Unix nanoseconds — the
	// time base of /history -since/-until windows.
	TimeNs int64 `json:"time_ns"`
	Kind   Kind  `json:"record_kind"`

	Det   Detection `json:"detection,omitempty"`
	Act   Action    `json:"action,omitempty"`
	Delta Delta     `json:"delta,omitempty"`
}

// Frame layout (little-endian):
//
//	u32 length   — byte count of the body that follows the CRC
//	u32 crc32c   — Castagnoli CRC over the body
//	body: u8 kind | u64 seq | i64 timeNs | fixed payload(kind)
//
// The length and CRC let recovery detect a torn tail: a partially
// written frame fails the length bound or the CRC and scanning stops
// exactly at the last intact record. Each kind's payload has a fixed
// size (codec.body is the one statement of every layout), so changing
// a layout, a new ingest counter included, needs a new record kind: a
// build whose layout of a kind differs reads the records already
// written under that kind as corruption.
const frameOverhead = 8 // length + crc

// bodyLens is the body length of each record kind, and maxBody the
// largest; both are measured by encoding a zero record of each kind
// into a scratch buffer longer than any body. maxBody bounds the length
// field during decode: anything larger is corruption (or a future
// record kind this build cannot read).
var bodyLens, maxBody = func() (lens [kindMax]int, longest int) {
	for k := KindDetection; k < kindMax; k++ {
		c := codec{buf: make([]byte, 1024)}
		c.body(&Record{Kind: k})
		lens[k] = c.off
		longest = max(longest, lens[k])
	}
	return lens, longest
}()

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrTorn marks a frame that ends past the available
// bytes (an interrupted append); ErrCorrupt a frame whose CRC, kind or
// payload size is wrong. Recovery treats both as end-of-log.
var (
	ErrTorn    = errors.New("wal: torn record")
	ErrCorrupt = errors.New("wal: corrupt record")
)

// bodyLen is the body length of a kind-k record, -1 for an unknown kind.
func bodyLen(k Kind) int {
	if k < KindDetection || k >= kindMax {
		return -1
	}
	return bodyLens[k]
}

// appendRecord encodes r onto dst and returns the extended slice.
func appendRecord(dst []byte, r *Record) []byte {
	n := bodyLen(r.Kind)
	if n < 0 {
		panic("wal: appendRecord of unknown kind")
	}
	start := len(dst)
	dst = append(dst, make([]byte, frameOverhead+n)...)
	c := codec{buf: dst[start+frameOverhead:]}
	c.body(r)
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+frameOverhead:], castagnoli))
	return dst
}

// decodeRecord parses the frame at the head of data into r and reports
// the frame's total byte length. ErrTorn / ErrCorrupt mark end-of-log.
func decodeRecord(data []byte, r *Record) (int, error) {
	if len(data) < frameOverhead {
		return 0, ErrTorn
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 1 || n > maxBody {
		return 0, ErrCorrupt
	}
	if len(data) < frameOverhead+n {
		return 0, ErrTorn
	}
	body := data[frameOverhead : frameOverhead+n]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return 0, ErrCorrupt
	}
	if bodyLen(Kind(body[0])) != n {
		return 0, ErrCorrupt
	}
	*r = Record{}
	c := codec{buf: body, decode: true}
	c.body(r)
	return frameOverhead + n, nil
}

// codec moves one record body between a Record and its bytes in either
// direction, field by field at the cursor off: encoding writes each
// field into buf, decoding reads it back. Walking the fields once
// through it (body) is the whole layout, so the encoder and the decoder
// cannot disagree.
type codec struct {
	buf    []byte
	off    int
	decode bool
}

// body walks r's body: the prefix, then the kind's payload.
func (c *codec) body(r *Record) {
	c.u8((*uint8)(&r.Kind))
	c.u64(&r.Seq)
	c.i64(&r.TimeNs)
	switch r.Kind {
	case KindDetection:
		d := &r.Det
		c.u64(&d.JournalSeq)
		c.i64(&d.SimTimeNs)
		c.u64(&d.Cycle)
		c.u8(&d.Kind)
		c.i32(&d.Runnable)
		c.i32(&d.Task)
		c.i32(&d.App)
		c.i32(&d.Predecessor)
		c.i32(&d.Observed)
		c.i32(&d.Expected)
		c.bool(&d.Correlated)
		c.bool(&d.Active)
		c.i32(&d.AC)
		c.i32(&d.ARC)
		c.i32(&d.CCA)
		c.i32(&d.CCAR)
		c.u64(&d.Beats)
		c.u64(&d.ErrAliveness)
		c.u64(&d.ErrArrivalRate)
		c.u64(&d.ErrProgramFlow)
	case KindAction:
		a := &r.Act
		c.u8(&a.Kind)
		c.u32(&a.Node)
		c.u32(&a.Cause)
		c.i64(&a.SimTimeNs)
		c.bool(&a.ExecErr)
	case KindDelta:
		for _, f := range r.Delta.Fields() {
			c.u64(f)
		}
	}
}

func (c *codec) u8(v *uint8) {
	if c.decode {
		*v = c.buf[c.off]
	} else {
		c.buf[c.off] = *v
	}
	c.off++
}

func (c *codec) u32(v *uint32) {
	if c.decode {
		*v = binary.LittleEndian.Uint32(c.buf[c.off:])
	} else {
		binary.LittleEndian.PutUint32(c.buf[c.off:], *v)
	}
	c.off += 4
}

func (c *codec) u64(v *uint64) {
	if c.decode {
		*v = binary.LittleEndian.Uint64(c.buf[c.off:])
	} else {
		binary.LittleEndian.PutUint64(c.buf[c.off:], *v)
	}
	c.off += 8
}

func (c *codec) i32(v *int32) {
	u := uint32(*v)
	c.u32(&u)
	if c.decode {
		*v = int32(u)
	}
}

func (c *codec) i64(v *int64) {
	u := uint64(*v)
	c.u64(&u)
	if c.decode {
		*v = int64(u)
	}
}

// bool stores a flag as one byte; any non-zero byte decodes as true.
func (c *codec) bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.u8(&u)
	if c.decode {
		*v = u != 0
	}
}
