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

// Delta is one periodic snapshot of ingest counter deltas: every field
// is the increase since the previous Delta record (ingest.Stats.Delta).
// Summing a contiguous run of deltas reconstructs the counters over any
// replayed window.
type Delta struct {
	Frames           uint64 `json:"frames"`
	Bytes            uint64 `json:"bytes"`
	Accepted         uint64 `json:"accepted"`
	DecodeErrors     uint64 `json:"decode_errors"`
	UnknownNode      uint64 `json:"unknown_node"`
	SeqGaps          uint64 `json:"seq_gaps"`
	SeqGapEvents     uint64 `json:"seq_gap_events"`
	DuplicateDrops   uint64 `json:"duplicate_drops"`
	NodeRestarts     uint64 `json:"node_restarts"`
	StaleEpochDrops  uint64 `json:"stale_epoch_drops"`
	IntervalMismatch uint64 `json:"interval_mismatch"`
	DroppedPackets   uint64 `json:"dropped_packets"`
	BuffersExhausted uint64 `json:"buffers_exhausted"`
	ReadErrors       uint64 `json:"read_errors"`
	CommandsSent     uint64 `json:"commands_sent"`
	CommandsAcked    uint64 `json:"commands_acked"`
	CommandsDropped  uint64 `json:"commands_dropped"`
	CommandStaleAcks uint64 `json:"command_stale_acks"`
}

// IsZero reports whether no counter moved — zero deltas are not worth a
// record.
func (d Delta) IsZero() bool { return d == Delta{} }

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
// exactly at the last intact record.
const (
	frameOverhead = 8 // length + crc
	recPrefix     = 1 + 8 + 8

	detPayloadLen   = 8 + 8 + 8 + 1 + 4*4 + 4 + 4 + 1 + 1 + 4*4 + 8 + 3*8
	actPayloadLen   = 1 + 4 + 4 + 8 + 1
	deltaPayloadLen = 18 * 8

	// maxBody bounds the length field during decode; anything larger is
	// corruption (or a future record kind this build cannot read).
	maxBody = recPrefix + deltaPayloadLen
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrTorn marks a frame that ends past the available
// bytes (an interrupted append); ErrCorrupt a frame whose CRC, kind or
// payload size is wrong. Recovery treats both as end-of-log.
var (
	ErrTorn    = errors.New("wal: torn record")
	ErrCorrupt = errors.New("wal: corrupt record")
)

func payloadLen(k Kind) int {
	switch k {
	case KindDetection:
		return detPayloadLen
	case KindAction:
		return actPayloadLen
	case KindDelta:
		return deltaPayloadLen
	}
	return -1
}

// appendRecord encodes r onto dst and returns the extended slice.
func appendRecord(dst []byte, r *Record) []byte {
	n := recPrefix + payloadLen(r.Kind)
	start := len(dst)
	dst = append(dst, make([]byte, frameOverhead)...)
	dst = append(dst, byte(r.Kind))
	dst = appendU64(dst, r.Seq)
	dst = appendU64(dst, uint64(r.TimeNs))
	switch r.Kind {
	case KindDetection:
		d := &r.Det
		dst = appendU64(dst, d.JournalSeq)
		dst = appendU64(dst, uint64(d.SimTimeNs))
		dst = appendU64(dst, d.Cycle)
		dst = append(dst, d.Kind)
		dst = appendU32(dst, uint32(d.Runnable))
		dst = appendU32(dst, uint32(d.Task))
		dst = appendU32(dst, uint32(d.App))
		dst = appendU32(dst, uint32(d.Predecessor))
		dst = appendU32(dst, uint32(d.Observed))
		dst = appendU32(dst, uint32(d.Expected))
		dst = append(dst, b2u8(d.Correlated), b2u8(d.Active))
		dst = appendU32(dst, uint32(d.AC))
		dst = appendU32(dst, uint32(d.ARC))
		dst = appendU32(dst, uint32(d.CCA))
		dst = appendU32(dst, uint32(d.CCAR))
		dst = appendU64(dst, d.Beats)
		dst = appendU64(dst, d.ErrAliveness)
		dst = appendU64(dst, d.ErrArrivalRate)
		dst = appendU64(dst, d.ErrProgramFlow)
	case KindAction:
		a := &r.Act
		dst = append(dst, a.Kind)
		dst = appendU32(dst, a.Node)
		dst = appendU32(dst, a.Cause)
		dst = appendU64(dst, uint64(a.SimTimeNs))
		dst = append(dst, b2u8(a.ExecErr))
	case KindDelta:
		d := &r.Delta
		for _, v := range [...]uint64{
			d.Frames, d.Bytes, d.Accepted, d.DecodeErrors, d.UnknownNode,
			d.SeqGaps, d.SeqGapEvents, d.DuplicateDrops, d.NodeRestarts,
			d.StaleEpochDrops, d.IntervalMismatch, d.DroppedPackets,
			d.BuffersExhausted, d.ReadErrors, d.CommandsSent,
			d.CommandsAcked, d.CommandsDropped, d.CommandStaleAcks,
		} {
			dst = appendU64(dst, v)
		}
	default:
		panic("wal: appendRecord of unknown kind")
	}
	body := dst[start+frameOverhead:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst
}

// decodeRecord parses the frame at the head of data into r and reports
// the frame's total byte length. ErrTorn / ErrCorrupt mark end-of-log.
func decodeRecord(data []byte, r *Record) (int, error) {
	if len(data) < frameOverhead {
		return 0, ErrTorn
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < recPrefix || n > maxBody {
		return 0, ErrCorrupt
	}
	if len(data) < frameOverhead+n {
		return 0, ErrTorn
	}
	body := data[frameOverhead : frameOverhead+n]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return 0, ErrCorrupt
	}
	k := Kind(body[0])
	if pl := payloadLen(k); pl < 0 || recPrefix+pl != n {
		return 0, ErrCorrupt
	}
	*r = Record{
		Kind:   k,
		Seq:    binary.LittleEndian.Uint64(body[1:]),
		TimeNs: int64(binary.LittleEndian.Uint64(body[9:])),
	}
	p := body[recPrefix:]
	switch k {
	case KindDetection:
		d := &r.Det
		d.JournalSeq = getU64(p, 0)
		d.SimTimeNs = int64(getU64(p, 8))
		d.Cycle = getU64(p, 16)
		d.Kind = p[24]
		d.Runnable = int32(getU32(p, 25))
		d.Task = int32(getU32(p, 29))
		d.App = int32(getU32(p, 33))
		d.Predecessor = int32(getU32(p, 37))
		d.Observed = int32(getU32(p, 41))
		d.Expected = int32(getU32(p, 45))
		d.Correlated = p[49] != 0
		d.Active = p[50] != 0
		d.AC = int32(getU32(p, 51))
		d.ARC = int32(getU32(p, 55))
		d.CCA = int32(getU32(p, 59))
		d.CCAR = int32(getU32(p, 63))
		d.Beats = getU64(p, 67)
		d.ErrAliveness = getU64(p, 75)
		d.ErrArrivalRate = getU64(p, 83)
		d.ErrProgramFlow = getU64(p, 91)
	case KindAction:
		a := &r.Act
		a.Kind = p[0]
		a.Node = getU32(p, 1)
		a.Cause = getU32(p, 5)
		a.SimTimeNs = int64(getU64(p, 9))
		a.ExecErr = p[17] != 0
	case KindDelta:
		d := &r.Delta
		for i, f := range [...]*uint64{
			&d.Frames, &d.Bytes, &d.Accepted, &d.DecodeErrors, &d.UnknownNode,
			&d.SeqGaps, &d.SeqGapEvents, &d.DuplicateDrops, &d.NodeRestarts,
			&d.StaleEpochDrops, &d.IntervalMismatch, &d.DroppedPackets,
			&d.BuffersExhausted, &d.ReadErrors, &d.CommandsSent,
			&d.CommandsAcked, &d.CommandsDropped, &d.CommandStaleAcks,
		} {
			*f = getU64(p, i*8)
		}
	}
	return frameOverhead + n, nil
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func getU64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
func getU32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }

func b2u8(v bool) byte {
	if v {
		return 1
	}
	return 0
}
