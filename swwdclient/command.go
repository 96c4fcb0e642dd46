package swwdclient

// The reporter side of the wire v3 command channel: a background reader
// on the (connected) UDP socket decodes server command frames, applies
// the epoch+seq discipline and forwards each record to the OnCommand
// callback. Acknowledgement is implicit — the highest applied pair is
// stamped on every outgoing heartbeat frame by the flusher.

import (
	"time"

	"swwd/internal/wire"
)

// CommandOp identifies a treatment command delivered to OnCommand.
type CommandOp uint8

const (
	// OpQuarantine announces that the server quarantined the target:
	// server-side supervision is suspended and the node should park the
	// affected workload.
	OpQuarantine CommandOp = CommandOp(wire.CmdQuarantine)
	// OpResume lifts a quarantine or scale-down; supervision is active
	// again and the workload should run.
	OpResume CommandOp = CommandOp(wire.CmdResume)
	// OpRestartRunnable asks the node to restart the target runnable
	// (or its whole workload for a node-target command) — the paper's
	// task/µC-reset escalation delegated to the node's own facilities.
	OpRestartRunnable CommandOp = CommandOp(wire.CmdRestart)
	// OpSetHypothesis replaces the target's local monitoring hypothesis
	// with Command.Hypothesis.
	OpSetHypothesis CommandOp = CommandOp(wire.CmdSetHypothesis)
)

// String names the opcode for logs.
func (op CommandOp) String() string {
	switch op {
	case OpQuarantine:
		return "quarantine"
	case OpResume:
		return "resume"
	case OpRestartRunnable:
		return "restart-runnable"
	case OpSetHypothesis:
		return "set-hypothesis"
	}
	return "unknown"
}

// NodeTarget is the Command.Runnable value addressing the whole node
// rather than one runnable.
const NodeTarget = -1

// Hypothesis carries the OpSetHypothesis payload: the aliveness and
// arrival-rate monitoring parameters in wire form.
type Hypothesis struct {
	AlivenessCycles uint32
	MinHeartbeats   uint32
	ArrivalCycles   uint32
	MaxArrivals     uint32
}

// Command is one treatment command record as delivered to OnCommand.
type Command struct {
	// Op is what to do.
	Op CommandOp
	// Runnable is the node-local runnable index the command targets, or
	// NodeTarget for the whole node.
	Runnable int
	// Hypothesis is meaningful only when Op is OpSetHypothesis.
	Hypothesis Hypothesis
}

// readLoop receives and applies server command frames until Close. It
// deliberately holds no lock while blocked in Read; after any read
// error it re-fetches the connection under flushMu, because the flusher
// replaces the socket on send failures and Close nils it out.
func (c *Client) readLoop() {
	defer close(c.readDone)
	buf := make([]byte, 2048)
	var cmd wire.Command
	for {
		c.flushMu.Lock()
		conn := c.conn
		closed := c.closed
		c.flushMu.Unlock()
		if closed {
			return
		}
		if conn == nil {
			// The flusher is backing off before a redial; wait it out.
			select {
			case <-c.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		n, err := conn.Read(buf)
		if err != nil {
			select {
			case <-c.stop:
				return
			default:
			}
			// The socket was replaced or produced a transient error
			// (connected UDP surfaces ICMP unreachable here). Pause so a
			// persistently erroring socket cannot spin this goroutine.
			select {
			case <-c.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		c.handleCommand(buf[:n], &cmd)
	}
}

// handleCommand decodes one datagram and applies the epoch+seq
// discipline of wire.Session: a command of an older server incarnation
// is stale and dropped; a newer incarnation resets the sequence
// tracking; within an incarnation each sequence number is applied at
// most once and only moving forward.
func (c *Client) handleCommand(buf []byte, cmd *wire.Command) {
	if err := wire.DecodeCommand(buf, cmd); err != nil {
		c.cmdErrs.Add(1)
		return
	}
	if cmd.Node != c.cfg.Node {
		c.cmdDropped.Add(1)
		return
	}
	c.ackMu.Lock()
	v, _ := c.cmdSession.Admit(cmd.Epoch, cmd.Seq)
	c.ackMu.Unlock()
	if v == wire.Duplicate || v == wire.Stale {
		c.cmdDropped.Add(1)
		return
	}
	for i := range cmd.Recs {
		r := &cmd.Recs[i]
		if c.cfg.OnCommand != nil {
			c.cfg.OnCommand(clientCommand(r))
		}
		c.cmdApplied.Add(1)
	}
}

// clientCommand converts a wire record to the client-facing form.
func clientCommand(r *wire.CmdRec) Command {
	out := Command{Op: CommandOp(r.Op), Runnable: int(r.Runnable)}
	if r.Runnable == wire.CmdNodeTarget {
		out.Runnable = NodeTarget
	}
	if r.Op == wire.CmdSetHypothesis {
		out.Hypothesis = Hypothesis{
			AlivenessCycles: r.Hyp.AlivenessCycles,
			MinHeartbeats:   r.Hyp.MinHeartbeats,
			ArrivalCycles:   r.Hyp.ArrivalCycles,
			MaxArrivals:     r.Hyp.MaxArrivals,
		}
	}
	return out
}
