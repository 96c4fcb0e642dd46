package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// corpusDir holds one segment written by an earlier build's encoder and
// never regenerated. The first detection carries saturated AC and ARC;
// in the second one, the action and the delta every field holds a
// distinct value, so a payload field that moves, resizes or swaps with
// another changes the bytes.
const corpusDir = "testdata"

// corpusRecords is the content of corpusDir's only segment.
var corpusRecords = []Record{
	{Seq: 1, TimeNs: 1_760_000_000_000_000_001, Kind: KindDetection, Det: Detection{
		JournalSeq:     0x0102030405060708,
		SimTimeNs:      123_456_789_000,
		Cycle:          12_345_678,
		Kind:           2,
		Runnable:       24_999,
		Task:           6_249,
		App:            3,
		Predecessor:    -1,
		Observed:       0,
		Expected:       4,
		Correlated:     true,
		Active:         true,
		AC:             math.MaxInt32,
		ARC:            math.MaxInt32,
		CCA:            7,
		CCAR:           3,
		Beats:          1<<40 + 5,
		ErrAliveness:   11,
		ErrArrivalRate: 13,
		ErrProgramFlow: 17,
	}},
	{Seq: 2, TimeNs: 1_760_000_000_000_000_002, Kind: KindDetection, Det: Detection{
		JournalSeq:     0x0807060504030201,
		SimTimeNs:      987_654_321,
		Cycle:          55_555,
		Kind:           3,
		Runnable:       101,
		Task:           102,
		App:            103,
		Predecessor:    104,
		Observed:       105,
		Expected:       106,
		Correlated:     false,
		Active:         true,
		AC:             107,
		ARC:            108,
		CCA:            109,
		CCAR:           110,
		Beats:          111,
		ErrAliveness:   112,
		ErrArrivalRate: 113,
		ErrProgramFlow: 114,
	}},
	{Seq: 3, TimeNs: 1_760_000_000_000_000_003, Kind: KindAction, Act: Action{
		Kind:      4,
		Node:      4_999,
		Cause:     4_998,
		SimTimeNs: 123_457_000_000,
		ExecErr:   true,
	}},
	{Seq: 4, TimeNs: 1_760_000_000_000_000_004, Kind: KindDelta, Delta: Delta{
		Frames:           0x0100000000000001,
		Bytes:            0x0200000000000002,
		Accepted:         0x0300000000000003,
		DecodeErrors:     0x0400000000000004,
		UnknownNode:      0x0500000000000005,
		SeqGaps:          0x0600000000000006,
		SeqGapEvents:     0x0700000000000007,
		DuplicateDrops:   0x0800000000000008,
		NodeRestarts:     0x0900000000000009,
		StaleEpochDrops:  0x0a0000000000000a,
		IntervalMismatch: 0x0b0000000000000b,
		DroppedPackets:   0x0c0000000000000c,
		BuffersExhausted: 0x0d0000000000000d,
		ReadErrors:       0x0e0000000000000e,
		CommandsSent:     0x0f0000000000000f,
		CommandsAcked:    0x1000000000000010,
		CommandsDropped:  0x1100000000000011,
		CommandStaleAcks: 0x1200000000000012,
	}},
}

// TestFrozenSegment replays the frozen segment to the expected records
// and re-encodes them byte for byte. It pins the on-disk record layout:
// logs already on disk are decoded by it, so a layout change (a new
// ingest counter included) needs a new record kind instead of an edit
// here or to the file.
func TestFrozenSegment(t *testing.T) {
	h, err := Replay(corpusDir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if h.Segments != 1 || h.TornBytes != 0 || h.TornSegments != 0 {
		t.Fatalf("replay saw %d segments, %d torn bytes, %d torn segments; want 1, 0, 0",
			h.Segments, h.TornBytes, h.TornSegments)
	}
	if !reflect.DeepEqual(h.Records, corpusRecords) {
		t.Fatalf("replayed records:\n got %+v\nwant %+v", h.Records, corpusRecords)
	}
	data, err := os.ReadFile(filepath.Join(corpusDir, segmentName(1)))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	enc := append([]byte(nil), data[:segHeaderSize]...)
	for i := range corpusRecords {
		enc = appendRecord(enc, &corpusRecords[i])
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("re-encoded segment differs from the frozen file:\n got %x\nwant %x", enc, data)
	}
}
