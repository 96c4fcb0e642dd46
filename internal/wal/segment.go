package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment files are named <firstseq>.wal with the first record's WAL
// sequence number zero-padded hex, so lexical order is replay order.
// Each begins with a 16-byte header:
//
//	[0:8)   magic "SWWDWAL\x01"
//	[8:12)  format version (little-endian u32, currently 1)
//	[12:16) reserved (zero)
//
// Records follow back to back in the frame layout of record.go. A
// segment is immutable once the writer rotates past it; only the
// newest segment ever grows, and only recovery ever truncates.
const (
	segMagic      = "SWWDWAL\x01"
	segVersion    = 1
	segHeaderSize = 16
	segSuffix     = ".wal"
)

// ErrSegmentHeader is reported for a segment whose header is missing,
// foreign or from an unreadable future version.
var ErrSegmentHeader = fmt.Errorf("wal: bad segment header")

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%016x%s", firstSeq, segSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segSuffix)
	if !ok || len(base) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segInfo is one on-disk segment in listing order.
type segInfo struct {
	path     string
	firstSeq uint64
	size     int64
	modNs    int64
}

// listSegments returns the directory's segments sorted by first
// sequence number. Foreign files are ignored.
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segInfo{
			path:     filepath.Join(dir, e.Name()),
			firstSeq: seq,
			size:     fi.Size(),
			modNs:    fi.ModTime().UnixNano(),
		})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// startSeq is the sequence number a scan of segs expects first: the one
// the first segment is named after. So a segment that lost its records
// to a torn tail ends the history there, even with its header intact
// (the next segment does not follow it), and a log whose older segments
// retention removed goes on from where it stood. 0 for no segments.
func startSeq(segs []segInfo) uint64 {
	if len(segs) == 0 {
		return 0
	}
	return segs[0].firstSeq
}

// createSegment opens a fresh segment for firstSeq and writes its
// header (not yet synced; the first group commit covers it).
func createSegment(dir string, firstSeq uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segmentName(firstSeq)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// checkSegmentHeader validates the first segHeaderSize bytes of a
// segment file's contents.
func checkSegmentHeader(data []byte) error {
	if len(data) < segHeaderSize || string(data[:8]) != segMagic {
		return ErrSegmentHeader
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != segVersion {
		return fmt.Errorf("%w: version %d", ErrSegmentHeader, v)
	}
	return nil
}

// scanSegment walks the records of one segment's contents, calling fn
// for each intact frame, and returns the byte offset just past the last
// intact record plus the error that stopped the scan (nil at a clean
// end-of-file, ErrTorn/ErrCorrupt at a torn tail). wantSeq enforces
// sequence continuity: the first record must carry *wantSeq (0 accepts
// any start), and each record must follow its predecessor without a
// gap — a break is corruption and stops the scan. On return *wantSeq is
// the number the next record must carry.
func scanSegment(data []byte, wantSeq *uint64, fn func(*Record)) (int64, error) {
	if err := checkSegmentHeader(data); err != nil {
		return 0, err
	}
	off := int64(segHeaderSize)
	var rec Record
	for int(off) < len(data) {
		n, err := decodeRecord(data[off:], &rec)
		if err != nil {
			return off, err
		}
		if *wantSeq != 0 && rec.Seq != *wantSeq {
			return off, fmt.Errorf("%w: sequence %d where %d expected", ErrCorrupt, rec.Seq, *wantSeq)
		}
		if fn != nil {
			fn(&rec)
		}
		*wantSeq = rec.Seq + 1
		off += int64(n)
	}
	return off, nil
}
