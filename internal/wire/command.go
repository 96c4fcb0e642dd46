// Command frames: the server→reporter half of wire version 3.
//
// When the treatment controller (internal/treat) decides to act on a
// node, the ingestion server encodes the decision as a command frame
// and sends it as one UDP datagram back to the address the node's
// heartbeats last arrived from. Commands carry the server's *command
// epoch* (chosen once per server incarnation) and a per-node monotonic
// sequence number, mirroring the heartbeat session discipline in the
// opposite direction: the reporter drops duplicated, re-ordered and
// stale-epoch command frames, and a server restart (larger epoch) resets
// the reporter's tracking. Delivery is confirmed out of band by the
// CmdAckEpoch/CmdAckSeq pair on the reporter's next heartbeat frame —
// the command channel itself needs no extra acknowledgement datagrams.
//
// Command frame (KindCommand):
//
//	offset size field
//	0      2    magic 0x5357 ("SW")
//	2      1    version (currently 3)
//	3      1    kind (1 = command)
//	4      4    target node ID
//	8      8    server command epoch (> 0; larger epoch = newer server)
//	16     8    per-node command sequence number (first command is 1)
//	24     2    command record count
//	26     ...  command records:
//	            { op uvarint, runnable uvarint
//	              [, aliveness uvarint, minBeats uvarint,
//	                 arrival uvarint, maxArrivals uvarint  — op 4 only] }
//
// A record's runnable is the node-local runnable index the op targets;
// the sentinel CmdNodeTarget addresses the whole node (every runnable),
// the form the quarantine/resume ops are normally sent in.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Command protocol constants.
const (
	// CommandHeaderSize is the fixed command frame header length.
	CommandHeaderSize = 26
	// CmdNodeTarget is the sentinel runnable index addressing the whole
	// node rather than one runnable.
	CmdNodeTarget uint32 = MaxRunnableIndex
)

// CmdOp is a treatment command opcode.
type CmdOp uint8

// Command opcodes. Zero is deliberately invalid so an all-zero record
// never decodes as a real command.
const (
	// CmdQuarantine tells the reporter its target is quarantined: the
	// server has stopped supervising it and the reporter should halt the
	// runnable's work (or at least expect no detection coverage).
	CmdQuarantine CmdOp = 1
	// CmdResume lifts a quarantine: supervision is active again.
	CmdResume CmdOp = 2
	// CmdRestart asks the reporter to restart the target runnable (or,
	// with CmdNodeTarget, its whole workload) — the paper's task/
	// application restart treatment delegated to the node that owns the
	// process.
	CmdRestart CmdOp = 3
	// CmdSetHypothesis replaces the target runnable's local monitoring
	// hypothesis with the attached parameters.
	CmdSetHypothesis CmdOp = 4

	cmdOpMax = uint64(CmdSetHypothesis)
)

// HypothesisParams carries the CmdSetHypothesis payload: the four
// core.Hypothesis fields in wire form.
type HypothesisParams struct {
	AlivenessCycles uint32
	MinHeartbeats   uint32
	ArrivalCycles   uint32
	MaxArrivals     uint32
}

// CmdRec is one decoded command record. Hyp is meaningful only when Op
// is CmdSetHypothesis; it encodes and decodes as zero otherwise.
type CmdRec struct {
	Op       CmdOp
	Runnable uint32
	Hyp      HypothesisParams
}

// Command is the decoded form of one command frame. Recs is reused
// across DecodeCommand calls on the same Command value.
type Command struct {
	// Node is the target node's wire ID.
	Node uint32
	// Epoch is the server's command epoch, chosen once per server
	// incarnation; larger epoch = newer server. Must be non-zero.
	Epoch uint64
	// Seq is the per-node monotonic command sequence number within the
	// epoch, starting at 1.
	Seq uint64
	// Recs are the command records, applied in order.
	Recs []CmdRec
}

// AppendCommand appends the encoded form of c to dst and returns the
// extended slice. It validates c against the protocol limits and
// returns dst unmodified on error.
func AppendCommand(dst []byte, c *Command) ([]byte, error) {
	if c.Epoch == 0 {
		return dst, fmt.Errorf("%w: command epoch must be positive", ErrRange)
	}
	if c.Seq == 0 {
		return dst, fmt.Errorf("%w: command seq must be positive", ErrRange)
	}
	if len(c.Recs) > 0xFFFF {
		return dst, fmt.Errorf("%w: %d command records", ErrRange, len(c.Recs))
	}
	start := len(dst)
	var hdr [CommandHeaderSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = KindCommand
	binary.LittleEndian.PutUint32(hdr[4:8], c.Node)
	binary.LittleEndian.PutUint64(hdr[8:16], c.Epoch)
	binary.LittleEndian.PutUint64(hdr[16:24], c.Seq)
	binary.LittleEndian.PutUint16(hdr[24:26], uint16(len(c.Recs)))
	dst = append(dst, hdr[:]...)
	for i := range c.Recs {
		r := &c.Recs[i]
		if r.Op == 0 || uint64(r.Op) > cmdOpMax {
			return dst[:start], fmt.Errorf("%w: command record %d op %d", ErrRange, i, r.Op)
		}
		if r.Runnable > CmdNodeTarget {
			return dst[:start], fmt.Errorf("%w: command record %d runnable %d", ErrRange, i, r.Runnable)
		}
		dst = binary.AppendUvarint(dst, uint64(r.Op))
		dst = binary.AppendUvarint(dst, uint64(r.Runnable))
		if r.Op == CmdSetHypothesis {
			dst = binary.AppendUvarint(dst, uint64(r.Hyp.AlivenessCycles))
			dst = binary.AppendUvarint(dst, uint64(r.Hyp.MinHeartbeats))
			dst = binary.AppendUvarint(dst, uint64(r.Hyp.ArrivalCycles))
			dst = binary.AppendUvarint(dst, uint64(r.Hyp.MaxArrivals))
		}
	}
	if len(dst)-start > MaxFrameSize {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrTooLarge, len(dst)-start)
	}
	return dst, nil
}

// DecodeCommand decodes one command frame from buf into c, reusing c's
// Recs slice. On error c's contents are unspecified but the call never
// panics, whatever buf holds; a reader loop with a retained Command
// performs zero allocations per frame in the steady state. A heartbeat
// frame is rejected with ErrKind.
func DecodeCommand(buf []byte, c *Command) error {
	if len(buf) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(buf))
	}
	if len(buf) < CommandHeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(buf))
	}
	if binary.LittleEndian.Uint16(buf[0:2]) != Magic {
		return ErrMagic
	}
	if buf[2] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, buf[2])
	}
	if buf[3] != KindCommand {
		return fmt.Errorf("%w: 0x%02x", ErrKind, buf[3])
	}
	c.Node = binary.LittleEndian.Uint32(buf[4:8])
	c.Epoch = binary.LittleEndian.Uint64(buf[8:16])
	c.Seq = binary.LittleEndian.Uint64(buf[16:24])
	if c.Epoch == 0 {
		return fmt.Errorf("%w: zero command epoch", ErrRange)
	}
	if c.Seq == 0 {
		return fmt.Errorf("%w: zero command sequence number", ErrRange)
	}
	nRecs := int(binary.LittleEndian.Uint16(buf[24:26]))
	c.Recs = c.Recs[:0]
	p := buf[CommandHeaderSize:]
	for i := 0; i < nRecs; i++ {
		op, n, err := uvarint(p, fieldCommandOp)
		if err != nil {
			return err
		}
		p = p[n:]
		if op == 0 || op > cmdOpMax {
			return fmt.Errorf("%w: command record %d op %d", ErrRange, i, op)
		}
		rid, n, err := uvarint(p, fieldCommandRunnable)
		if err != nil {
			return err
		}
		p = p[n:]
		if rid > uint64(CmdNodeTarget) {
			return fmt.Errorf("%w: command record %d runnable %d", ErrRange, i, rid)
		}
		rec := CmdRec{Op: CmdOp(op), Runnable: uint32(rid)}
		if rec.Op == CmdSetHypothesis {
			var fields [4]uint64
			for j := range fields {
				v, n, err := uvarint(p, fieldHypothesisParam)
				if err != nil {
					return err
				}
				p = p[n:]
				if v > 0xFFFFFFFF {
					return fmt.Errorf("%w: command record %d hypothesis param %d", ErrRange, i, v)
				}
				fields[j] = v
			}
			rec.Hyp = HypothesisParams{
				AlivenessCycles: uint32(fields[0]),
				MinHeartbeats:   uint32(fields[1]),
				ArrivalCycles:   uint32(fields[2]),
				MaxArrivals:     uint32(fields[3]),
			}
		}
		c.Recs = append(c.Recs, rec)
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(p))
	}
	return nil
}
