package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// fuzzLogRecords is the length of FuzzWALSegmentRecovery's log, and
// fuzzLogSegmentBytes its rotation threshold: about ten records a
// segment, so the log spans several segments.
const (
	fuzzLogRecords      = 40
	fuzzLogSegmentBytes = 1024
)

// fuzzSegment is one segment file of the fuzzer's log. first is the
// index of its first record and starts the offset of each of its
// records; the last ends with the file.
type fuzzSegment struct {
	name   string
	data   []byte
	first  int
	starts []int
}

// writeFuzzLog writes the fuzzer's log — detections, actions and deltas
// in turn — and returns its segments and records.
func writeFuzzLog(tb testing.TB) ([]fuzzSegment, []Record) {
	tb.Helper()
	dir := tb.TempDir()
	w, err := Open(dir, WithSegmentBytes(fuzzLogSegmentBytes), WithRetainSegments(1000), WithSyncInterval(time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(1); i <= fuzzLogRecords; i++ {
		switch i % 3 {
		case 0:
			w.AppendAction(Action{Kind: uint8(i % 4), Node: uint32(i), Cause: 3, SimTimeNs: int64(i)})
		case 1:
			w.AppendDetection(det(i))
		default:
			w.AppendDelta(Delta{Frames: i, Accepted: i - 1})
		}
		if err := w.Sync(); err != nil { // one record per write: the ring never fills
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	h, err := Replay(dir)
	if err != nil || len(h.Records) != fuzzLogRecords {
		tb.Fatalf("replay of the fuzz log: %v, %d records", err, len(h.Records))
	}
	infos, err := listSegments(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var segs []fuzzSegment
	n := 0
	for _, info := range infos {
		data, err := os.ReadFile(info.path)
		if err != nil {
			tb.Fatal(err)
		}
		seg := fuzzSegment{name: filepath.Base(info.path), data: data, first: n}
		var rec Record
		for off := segHeaderSize; off < len(data); {
			k, err := decodeRecord(data[off:], &rec)
			if err != nil {
				tb.Fatal(err)
			}
			seg.starts = append(seg.starts, off)
			off += k
		}
		n += len(seg.starts)
		segs = append(segs, seg)
	}
	if len(segs) < 3 {
		tb.Fatalf("fuzz log has %d segments, want several", len(segs))
	}
	return segs, h.Records
}

// FuzzWALSegmentRecovery damages a log spread over several small
// segments at a fuzzed offset of its bytes, in one of four ways:
// truncating the segment that holds the offset there, flipping the byte
// there, deleting the segments from the one that holds it to the end,
// or truncating as the first way after deleting the segments before it,
// as retention does. The cut is the first record the damage touches.
// Replay must read exactly the records kept before the cut; Open must
// not panic, repairs the log and reports the last of them; and after a
// reopened writer appends one record, and again after a second reopen,
// Replay reads the records kept before the cut and that record,
// numbered next: Open never brings back a record after the cut, nor
// numbers a record as one retention removed.
func FuzzWALSegmentRecovery(f *testing.F) {
	segs, want := writeFuzzLog(f)
	for _, seed := range []struct {
		mode byte
		off  uint32
		val  byte
	}{
		{0, 0, 0}, {0, 40, 0}, {0, 1500, 0},
		{0, 16, 0}, // the first segment keeps its header and loses every record
		{1, 3, 0x80}, {1, 14, 1}, {1, 700, 0x10}, {1, 2100, 0xff},
		{2, 0, 0}, {2, 3000, 0},
		{3, 1040, 0}, // retention removed the first segment; the second keeps its header only
		{3, 2100, 0}, {3, 1030, 0},
	} {
		f.Add(seed.mode, seed.off, seed.val)
	}
	total := 0
	for _, s := range segs {
		total += len(s.data)
	}
	f.Fuzz(func(t *testing.T, mode byte, off uint32, val byte) {
		// Locate the offset: segment si, byte x of it.
		x, si := int(off%uint32(total)), 0
		for ; x >= len(segs[si].data); si++ {
			x -= len(segs[si].data)
		}
		seg := &segs[si]
		// firstPast is the first record of seg that ends past x.
		firstPast := func() int {
			for i := range seg.starts {
				if i+1 == len(seg.starts) || seg.starts[i+1] > x {
					return seg.first + i
				}
			}
			return seg.first // no record: seg is the empty last segment
		}
		lo, cut := 0, seg.first // deleting the segments from si on
		switch mode % 4 {
		case 3:
			lo = seg.first
			fallthrough
		case 0:
			if x >= segHeaderSize {
				cut = firstPast()
			}
		case 1:
			switch {
			case x >= segHeaderSize:
				cut = firstPast()
			case x >= 12: // reserved header bytes: not checked
				cut = fuzzLogRecords
			}
		}
		dir := t.TempDir()
		for i := range segs {
			data := segs[i].data
			if i == si {
				switch mode % 4 {
				case 0, 3:
					data = data[:x]
				case 1:
					data = append([]byte(nil), data...)
					data[x] ^= max(val, 1)
				}
			}
			if mode%4 == 2 && i >= si {
				break
			}
			if mode%4 == 3 && i < si {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, segs[i].name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		kept := want[lo:cut:cut]
		h, err := Replay(dir)
		if err != nil || !reflect.DeepEqual(h.Records, kept) && len(kept)+len(h.Records) > 0 {
			t.Fatalf("Replay before Open: %v, %d records, want the %d kept before the cut", err, len(h.Records), len(kept))
		}
		files, bytes := dirUsage(t, dir)
		var last uint64 // what Open reports: the last record kept, 0 for none
		if len(kept) > 0 {
			last = uint64(cut)
		}
		for round := range 2 {
			w, err := Open(dir, WithSegmentBytes(fuzzLogSegmentBytes), WithRetainSegments(1000), WithSyncInterval(time.Hour))
			if err != nil {
				t.Fatalf("Open %d: %v", round, err)
			}
			if got := w.Recovery().LastSeq; got != last {
				w.Close()
				t.Fatalf("Open %d recovered up to seq %d, want %d", round, got, last)
			}
			if round == 0 { // Open counts exactly what it removed
				rs := w.Recovery()
				files2, bytes2 := dirUsage(t, dir)
				if rs.SegmentsDropped == files { // and Open made a fresh one
					files2, bytes2 = files2-1, bytes2-segHeaderSize
				}
				if rs.TornBytes != bytes-bytes2 || rs.SegmentsDropped != files-files2 {
					w.Close()
					t.Fatalf("Open counted %d torn bytes and %d dropped segments, removed %d and %d",
						rs.TornBytes, rs.SegmentsDropped, bytes-bytes2, files-files2)
				}
			}
			w.AppendDelta(Delta{Frames: 7 + uint64(round)})
			if err := w.Close(); err != nil {
				t.Fatalf("Close %d: %v", round, err)
			}
			last = uint64(cut + 1 + round)
		}
		h, err = Replay(dir)
		if err != nil || len(h.Records) != len(kept)+2 || !reflect.DeepEqual(h.Records[:len(kept)], kept) {
			t.Fatalf("Replay after two reopens: %v, %d records, want the %d kept before the cut and two appended",
				err, len(h.Records), len(kept))
		}
		for round, r := range h.Records[len(kept):] {
			if r.Seq != uint64(cut+1+round) || r.Delta.Frames != 7+uint64(round) {
				t.Fatalf("appended record %d: seq %d, frames %d; want seq %d, frames %d",
					round, r.Seq, r.Delta.Frames, cut+1+round, 7+round)
			}
		}
	})
}

// dirUsage reports the number of segment files in dir and their bytes.
func dirUsage(tb testing.TB, dir string) (files int, bytes int64) {
	segs, err := listSegments(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range segs {
		bytes += s.size
	}
	return len(segs), bytes
}
