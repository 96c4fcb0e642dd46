// Package wire defines the binary wire protocol of the networked
// Software Watchdog: the batched heartbeat frames a remote node flushes
// to the ingestion server (internal/ingest) every client tick, and —
// since version 3 — the command frames the server sends back on the
// same UDP flow to treat faults (internal/treat): quarantine, resume,
// restart-runnable and set-hypothesis.
//
// A heartbeat frame coalesces everything a node observed since its
// previous flush:
//
//   - per-runnable heartbeat *counts* (not individual beats — a runnable
//     that beat 47 times since the last frame travels as one varint pair),
//     replayed on the server through Monitor.BeatN;
//   - the ordered list of executed flow-monitored runnables ("successor
//     IDs"), replayed a frame at a time through Watchdog.FlowEventN so the
//     server-side PFC look-up-table check sees the same
//     predecessor/successor pairs it would have seen locally;
//   - a session epoch, chosen once per reporter process (swwdclient uses
//     its start time in nanoseconds), so the server can tell a restarted
//     reporter — whose sequence numbers begin again at 1 — from a
//     duplicated or re-ordered datagram and reset its sequence tracking
//     instead of discarding the new session's frames;
//   - a monotonic per-session sequence number, so the server can detect
//     lost, duplicated and re-ordered datagrams;
//   - the command acknowledgement pair (CmdAckEpoch, CmdAckSeq): the
//     highest command the reporter has applied, in the server's command
//     epoch. Zeros mean "no command applied yet". Acks piggyback on the
//     heartbeat cadence — the command channel needs no extra datagrams
//     in the steady state;
//   - the node's declared flush interval. The *registration-time*
//     interval is authoritative for the link-runnable aliveness
//     hypothesis (internal/ingest derives it when the node is
//     registered); the declared field is cross-checked against it on
//     every frame and mismatches are counted as a diagnostic
//     (Stats.IntervalMismatch), never silently ignored.
//
// One UDP datagram carries exactly one frame. Byte 3 of every frame is
// the frame kind: KindHeartbeat (reporter → server) or KindCommand
// (server → reporter). The layout is fixed-header + varint payload, all
// multi-byte header fields little-endian.
//
// Heartbeat frame (KindHeartbeat):
//
//	offset size field
//	0      2    magic 0x5357 ("SW")
//	2      1    version (currently 3)
//	3      1    kind (0 = heartbeat)
//	4      4    node ID
//	8      8    session epoch (> 0; larger epoch = newer session)
//	16     8    sequence number (first frame of a session is 1)
//	24     8    command-ack epoch (0 = no command applied yet)
//	32     8    command-ack sequence number
//	40     4    declared flush interval in milliseconds (> 0)
//	44     2    beat record count
//	46     2    flow record count
//	48     ...  beat records: { runnable uvarint, beats uvarint } ...
//	     	...  flow records: { runnable uvarint } ...
//
// The command frame layout lives in command.go. Version 3 added the
// frame kind, the command channel and the heartbeat ack pair; version-2
// frames (32-byte header, no kind or acks) and version-1 frames are
// rejected with ErrVersion.
//
// Decoding is strict (unknown magic/version/kind, truncated payloads,
// out-of-range values and trailing bytes are all errors) and allocation
// free in the steady state: DecodeFrame and DecodeCommand reuse the
// destination's slices, so a per-source decode loop settles into zero
// allocations per frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol constants.
const (
	// Magic identifies a Software Watchdog wire frame ("SW").
	Magic uint16 = 0x5357
	// Version is the wire version this package encodes and decodes.
	// Version 3 added the frame kind, the server→reporter command
	// channel and the heartbeat command-ack pair.
	Version uint8 = 3
	// KindHeartbeat marks a reporter→server batched heartbeat frame.
	KindHeartbeat uint8 = 0
	// KindCommand marks a server→reporter treatment command frame.
	KindCommand uint8 = 1
	// HeaderSize is the fixed heartbeat frame header length in bytes.
	HeaderSize = 48
	// MaxFrameSize is the largest encoded frame this package produces or
	// accepts — comfortably under the 65507-byte UDP payload ceiling.
	MaxFrameSize = 60000
	// MaxRunnableIndex bounds the per-node runnable index of beat, flow
	// and command records.
	MaxRunnableIndex = 1 << 20
	// MaxBeatsPerRecord bounds the coalesced beat count of one record,
	// mirroring core.MaxBatchBeats so a decoded record always replays in
	// a single Monitor.BeatN call.
	MaxBeatsPerRecord = 1 << 24
)

// Decode/encode errors. Match with errors.Is; returned errors may wrap
// these with offset context.
var (
	// ErrMagic marks a datagram that is not a Software Watchdog frame.
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion marks an unsupported wire version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrKind marks a frame kind the decoder was not asked to accept:
	// an unknown kind byte, a command frame handed to DecodeFrame or a
	// heartbeat frame handed to DecodeCommand.
	ErrKind = errors.New("wire: unexpected frame kind")
	// ErrTruncated marks a frame shorter than its header and counts
	// promise.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrRange marks a header or payload value outside protocol limits.
	ErrRange = errors.New("wire: value out of range")
	// ErrTrailing marks bytes after the last declared record — one
	// datagram carries exactly one frame.
	ErrTrailing = errors.New("wire: trailing bytes after frame")
	// ErrTooLarge marks an encode whose result would exceed MaxFrameSize.
	ErrTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
)

// BeatRec is one coalesced heartbeat record: the node-local runnable
// index and how many times it beat since the previous frame.
type BeatRec struct {
	Runnable uint32
	Beats    uint32
}

// Frame is the decoded form of one heartbeat frame. Beats and Flow are
// reused across DecodeFrame calls on the same Frame value.
type Frame struct {
	// Node is the reporting node's ID, assigned at registration.
	Node uint32
	// Epoch identifies the reporter session (process lifetime) the frame
	// belongs to. It is chosen once at client start, must be non-zero,
	// and a larger epoch marks a newer session: the server resets its
	// per-node sequence tracking when the epoch advances, so a restarted
	// reporter (whose Seq begins again at 1) is never mistaken for a
	// storm of duplicates.
	Epoch uint64
	// Seq is the session's monotonic frame sequence number, starting
	// at 1.
	Seq uint64
	// CmdAckEpoch and CmdAckSeq acknowledge the highest command the
	// reporter has applied: the server's command epoch and the per-node
	// command sequence number within it. Both zero means no command has
	// been applied yet; CmdAckSeq must be zero when CmdAckEpoch is zero.
	// The server ignores acks whose epoch is not its current command
	// epoch, so a reporter acking a superseded server incarnation can
	// never confirm commands it did not receive.
	CmdAckEpoch uint64
	CmdAckSeq   uint64
	// IntervalMs is the node's declared flush cadence in milliseconds.
	IntervalMs uint32
	// Beats are the coalesced per-runnable heartbeat counts.
	Beats []BeatRec
	// Flow is the ordered list of executed flow-monitored runnable
	// indices since the previous frame.
	Flow []uint32
}

// AppendFrame appends the encoded form of f to dst and returns the
// extended slice. It validates f against the protocol limits and returns
// dst unmodified on error.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if f.Epoch == 0 {
		return dst, fmt.Errorf("%w: epoch must be positive", ErrRange)
	}
	if f.IntervalMs == 0 {
		return dst, fmt.Errorf("%w: interval must be positive", ErrRange)
	}
	if f.CmdAckEpoch == 0 && f.CmdAckSeq != 0 {
		return dst, fmt.Errorf("%w: command ack seq without epoch", ErrRange)
	}
	if len(f.Beats) > 0xFFFF || len(f.Flow) > 0xFFFF {
		return dst, fmt.Errorf("%w: %d beat / %d flow records", ErrRange, len(f.Beats), len(f.Flow))
	}
	start := len(dst)
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = KindHeartbeat
	binary.LittleEndian.PutUint32(hdr[4:8], f.Node)
	binary.LittleEndian.PutUint64(hdr[8:16], f.Epoch)
	binary.LittleEndian.PutUint64(hdr[16:24], f.Seq)
	binary.LittleEndian.PutUint64(hdr[24:32], f.CmdAckEpoch)
	binary.LittleEndian.PutUint64(hdr[32:40], f.CmdAckSeq)
	binary.LittleEndian.PutUint32(hdr[40:44], f.IntervalMs)
	binary.LittleEndian.PutUint16(hdr[44:46], uint16(len(f.Beats)))
	binary.LittleEndian.PutUint16(hdr[46:48], uint16(len(f.Flow)))
	dst = append(dst, hdr[:]...)
	for i := range f.Beats {
		r := &f.Beats[i]
		if r.Runnable > MaxRunnableIndex {
			return dst[:start], fmt.Errorf("%w: beat record %d runnable %d", ErrRange, i, r.Runnable)
		}
		if r.Beats == 0 || r.Beats > MaxBeatsPerRecord {
			return dst[:start], fmt.Errorf("%w: beat record %d count %d", ErrRange, i, r.Beats)
		}
		dst = binary.AppendUvarint(dst, uint64(r.Runnable))
		dst = binary.AppendUvarint(dst, uint64(r.Beats))
	}
	for i, rid := range f.Flow {
		if rid > MaxRunnableIndex {
			return dst[:start], fmt.Errorf("%w: flow record %d runnable %d", ErrRange, i, rid)
		}
		dst = binary.AppendUvarint(dst, uint64(rid))
	}
	if len(dst)-start > MaxFrameSize {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrTooLarge, len(dst)-start)
	}
	return dst, nil
}

// PeekNode extracts the node ID from an encoded frame after validating
// only the fixed header prefix — the cheap step the ingestion read loop
// uses to pick a datagram's per-node lock stripe before it runs the
// full decode. It accepts both frame kinds; the
// full decoders enforce the kind.
func PeekNode(buf []byte) (uint32, error) {
	if len(buf) < CommandHeaderSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(buf))
	}
	if binary.LittleEndian.Uint16(buf[0:2]) != Magic {
		return 0, ErrMagic
	}
	if buf[2] != Version {
		return 0, fmt.Errorf("%w: %d", ErrVersion, buf[2])
	}
	return binary.LittleEndian.Uint32(buf[4:8]), nil
}

// DecodeFrame decodes one heartbeat frame from buf into f, reusing f's
// Beats and Flow slices. On error f's contents are unspecified but the
// call never panics, whatever buf holds; a per-source decode loop with a
// retained Frame performs zero allocations per frame in the steady
// state. A command frame is rejected with ErrKind — the ingestion
// server never accepts its own downstream frame kind.
func DecodeFrame(buf []byte, f *Frame) error {
	if len(buf) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(buf))
	}
	if len(buf) < HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(buf))
	}
	if binary.LittleEndian.Uint16(buf[0:2]) != Magic {
		return ErrMagic
	}
	if buf[2] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, buf[2])
	}
	if buf[3] != KindHeartbeat {
		return fmt.Errorf("%w: 0x%02x", ErrKind, buf[3])
	}
	f.Node = binary.LittleEndian.Uint32(buf[4:8])
	f.Epoch = binary.LittleEndian.Uint64(buf[8:16])
	f.Seq = binary.LittleEndian.Uint64(buf[16:24])
	f.CmdAckEpoch = binary.LittleEndian.Uint64(buf[24:32])
	f.CmdAckSeq = binary.LittleEndian.Uint64(buf[32:40])
	f.IntervalMs = binary.LittleEndian.Uint32(buf[40:44])
	if f.Epoch == 0 {
		return fmt.Errorf("%w: zero session epoch", ErrRange)
	}
	if f.Seq == 0 {
		return fmt.Errorf("%w: zero sequence number", ErrRange)
	}
	if f.CmdAckEpoch == 0 && f.CmdAckSeq != 0 {
		return fmt.Errorf("%w: command ack seq without epoch", ErrRange)
	}
	if f.IntervalMs == 0 {
		return fmt.Errorf("%w: zero interval", ErrRange)
	}
	nBeats := int(binary.LittleEndian.Uint16(buf[44:46]))
	nFlow := int(binary.LittleEndian.Uint16(buf[46:48]))
	f.Beats = f.Beats[:0]
	f.Flow = f.Flow[:0]
	p := buf[HeaderSize:]
	for i := 0; i < nBeats; i++ {
		rid, n, err := uvarint(p, "beat runnable")
		if err != nil {
			return err
		}
		p = p[n:]
		beats, n, err := uvarint(p, "beat count")
		if err != nil {
			return err
		}
		p = p[n:]
		if rid > MaxRunnableIndex {
			return fmt.Errorf("%w: beat record %d runnable %d", ErrRange, i, rid)
		}
		if beats == 0 || beats > MaxBeatsPerRecord {
			return fmt.Errorf("%w: beat record %d count %d", ErrRange, i, beats)
		}
		f.Beats = append(f.Beats, BeatRec{Runnable: uint32(rid), Beats: uint32(beats)})
	}
	for i := 0; i < nFlow; i++ {
		rid, n, err := uvarint(p, "flow runnable")
		if err != nil {
			return err
		}
		p = p[n:]
		if rid > MaxRunnableIndex {
			return fmt.Errorf("%w: flow record %d runnable %d", ErrRange, i, rid)
		}
		f.Flow = append(f.Flow, uint32(rid))
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(p))
	}
	return nil
}

// uvarint decodes one varint from p, classifying both failure modes
// (empty/short buffer and >64-bit overlong encodings) as protocol errors.
func uvarint(p []byte, what string) (uint64, int, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		if n == 0 {
			return 0, 0, fmt.Errorf("%w: %s", ErrTruncated, what)
		}
		return 0, 0, fmt.Errorf("%w: %s varint overflow", ErrRange, what)
	}
	return v, n, nil
}
