// Package swwdclient is the reporter-side library of the networked
// Software Watchdog: applications on a remote node keep their in-process
// heartbeat call sites, and the client coalesces them locally and
// flushes one compact binary frame (internal/wire) per interval to the
// ingestion server (internal/ingest, cmd/swwdd).
//
// The hot path mirrors the in-process Monitor.Beat discipline: Beat is
// one uncontended atomic add on a per-runnable counter — no lock, no
// allocation, no syscall. The background flusher swaps the counters out
// every Interval, encodes them into a reused buffer and sends a single
// UDP datagram stamped with a monotonic sequence number and the
// client's session epoch (its start time in nanoseconds), so a server
// that already tracked an earlier incarnation of this node recognises
// the restart and resets its sequence tracking instead of discarding
// the new session's frames as duplicates.
//
// Delivery is deliberately fire-and-forget per frame — heartbeats are a
// rate signal, and the server's hypothesis windows absorb an isolated
// lost datagram — but the *channel* is supervised end to end: every
// frame the server accepts beats the node's link runnable, so a client
// that dies (or a network that eats its frames) raises an aliveness
// fault on the monitoring side within one window. On send errors the
// client folds the unsent counts back into the accumulators (beats are
// delayed, never silently dropped by the client itself) and re-dials
// with capped exponential backoff.
//
// The channel is bidirectional since wire protocol v3: the server's
// fault-treatment control plane sends command frames (quarantine,
// resume, restart, set-hypothesis) back over the same socket. A
// background reader decodes them, enforces the epoch+seq discipline
// (commands of a superseded server incarnation are dropped; within an
// incarnation each per-node sequence number is applied at most once)
// and hands each record to the OnCommand callback. The highest applied
// (epoch, seq) pair rides on every outgoing heartbeat frame as the
// acknowledgement the server's delivery accounting keys on.
package swwdclient

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"swwd/internal/wire"
)

// Limits and defaults.
const (
	// MaxRunnables bounds the per-node runnable table so one frame
	// always fits a UDP datagram.
	MaxRunnables = 4096
	// DefaultInterval is the flush cadence when Config.Interval is zero.
	DefaultInterval = 100 * time.Millisecond
	// DefaultMaxFlowBacklog bounds buffered flow events between flushes.
	DefaultMaxFlowBacklog = 1024
	// DefaultMinBackoff / DefaultMaxBackoff bound the reconnect backoff.
	DefaultMinBackoff = 50 * time.Millisecond
	DefaultMaxBackoff = 5 * time.Second
)

// ErrClosed is reported by methods called after Close.
var ErrClosed = errors.New("swwdclient: closed")

// Config assembles a Client.
type Config struct {
	// Addr is the ingestion server's host:port (UDP).
	Addr string
	// Node is this node's wire ID, as registered on the server.
	Node uint32
	// Runnables is the node-local runnable count; Beat/Exec indices are
	// 0..Runnables-1 and map to the server-side registration table.
	Runnables int
	// Interval is the flush cadence, also declared in every frame so the
	// server derives the link hypothesis from it. Zero means
	// DefaultInterval.
	Interval time.Duration
	// MaxFlowBacklog caps buffered flow events between flushes; beyond
	// it new events are dropped and counted. Zero means
	// DefaultMaxFlowBacklog.
	MaxFlowBacklog int
	// MinBackoff/MaxBackoff bound the reconnect backoff after send
	// failures. Zeros mean the defaults.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// OnCommand receives each treatment command record the server
	// addresses to this node, in order, on the background reader
	// goroutine. Nil still acknowledges commands (the ack is protocol
	// bookkeeping, not an application concern) but applies nothing.
	OnCommand func(Command)
	// Dialer opens the client's socket; nil means net.Dial("udp", addr).
	// Every (re-)dial goes through it, so a fault-injecting wrapper — the
	// chaos campaign engine interposes one between reporter and server —
	// sees the whole session, including sockets opened by the backoff
	// redial path. The returned conn must behave like a connected UDP
	// socket: datagram-oriented, Write to the server, Read for command
	// frames.
	Dialer func(addr string) (net.Conn, error)
}

// Stats is a point-in-time copy of the client's counters.
type Stats struct {
	// FramesSent counts successfully written datagrams; Seq is the
	// sequence number of the last one.
	FramesSent uint64
	Seq        uint64
	// SendErrors counts failed writes (the frame's beats were folded
	// back and travel with a later frame).
	SendErrors uint64
	// Reconnects counts successful re-dials after a send failure.
	Reconnects uint64
	// FlowDropped counts flow events the client lost: discarded at the
	// backlog cap, trimmed when folding an unsent frame back into a full
	// backlog, or dropped whole with an unencodable frame.
	FlowDropped uint64
	// EncodeErrors counts frames the encoder refused (config error:
	// runnable table or flow backlog beyond wire limits).
	EncodeErrors uint64
	// CommandsApplied counts command records delivered in order to this
	// session (and hence acknowledged on subsequent frames).
	CommandsApplied uint64
	// CommandsDropped counts command frames discarded by the epoch+seq
	// discipline: stale server incarnation, duplicate or reordered
	// sequence number, or a frame addressed to another node.
	CommandsDropped uint64
	// CommandErrors counts datagrams that failed command decoding.
	CommandErrors uint64
}

// Client coalesces heartbeats for one node and flushes them on a ticker.
// Beat/Exec/FlowEvent are safe for unrestricted concurrent use.
type Client struct {
	cfg    Config
	counts []atomic.Uint32

	flowMu  sync.Mutex
	flow    []uint32
	flowCap int

	// epoch is the session epoch stamped on every frame, fixed at Dial.
	epoch uint64

	// flushMu serializes the flusher goroutine, manual Flush and Close.
	flushMu  sync.Mutex
	closed   bool
	conn     net.Conn
	seq      uint64
	frame    wire.Frame
	buf      []byte
	backoff  time.Duration
	nextDial time.Time

	// ackMu guards the command session so the reader's updates and the
	// flusher's stamping never tear: a frame either carries the ack pair
	// from before a command or from after it, never a mix. The session's
	// (Epoch, Seq) is the highest applied command — the ack pair.
	ackMu      sync.Mutex
	cmdSession wire.Session

	framesSent  atomic.Uint64
	sendErrs    atomic.Uint64
	reconnects  atomic.Uint64
	flowDropped atomic.Uint64
	encodeErrs  atomic.Uint64
	cmdApplied  atomic.Uint64
	cmdDropped  atomic.Uint64
	cmdErrs     atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	readDone chan struct{}
}

// Dial validates the configuration, opens the (connected) UDP socket and
// starts the background flusher and command reader. A node whose server
// is temporarily unreachable still constructs successfully — UDP has no
// handshake — and simply keeps coalescing until frames get through.
func Dial(addr string, opts ...Option) (*Client, error) {
	cfg := Config{Addr: addr}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Addr = addr // the address is Dial's contract, not an option
	if cfg.Addr == "" {
		return nil, errors.New("swwdclient: Config.Addr is required")
	}
	if cfg.Runnables <= 0 || cfg.Runnables > MaxRunnables {
		return nil, fmt.Errorf("swwdclient: Runnables must be in 1..%d", MaxRunnables)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond // IntervalMs must encode as >= 1
	}
	if cfg.MaxFlowBacklog <= 0 {
		cfg.MaxFlowBacklog = DefaultMaxFlowBacklog
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = DefaultMinBackoff
	}
	if cfg.MaxBackoff < cfg.MinBackoff {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.Dialer == nil {
		cfg.Dialer = func(addr string) (net.Conn, error) { return net.Dial("udp", addr) }
	}
	conn, err := cfg.Dialer(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("swwdclient: %w", err)
	}
	// The session epoch distinguishes this client incarnation from any
	// earlier one the server may have tracked for the same node ID.
	c := &Client{
		cfg:      cfg,
		counts:   make([]atomic.Uint32, cfg.Runnables),
		flowCap:  cfg.MaxFlowBacklog,
		epoch:    wire.NewEpoch(),
		conn:     conn,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		readDone: make(chan struct{}),
	}
	go c.run()
	go c.readLoop()
	return c, nil
}

// Beat records one heartbeat of node-local runnable i: one atomic add.
// Out-of-range indices are ignored, matching Watchdog.Heartbeat's
// tolerance of glue code.
func (c *Client) Beat(i int) {
	if uint(i) < uint(len(c.counts)) {
		c.counts[i].Add(1)
	}
}

// BeatN records n coalesced heartbeats of runnable i.
func (c *Client) BeatN(i, n int) {
	if n > 0 && uint(i) < uint(len(c.counts)) {
		c.counts[i].Add(uint32(n))
	}
}

// FlowEvent records the ordered execution of flow-monitored runnable i
// for the server-side program-flow check. Order is preserved within and
// across frames; events beyond the backlog cap are dropped and counted.
func (c *Client) FlowEvent(i int) {
	if uint(i) >= uint(len(c.counts)) {
		return
	}
	c.flowMu.Lock()
	if len(c.flow) >= c.flowCap {
		c.flowMu.Unlock()
		c.flowDropped.Add(1)
		return
	}
	c.flow = append(c.flow, uint32(i))
	c.flowMu.Unlock()
}

// Exec records one execution of a flow-monitored runnable: a heartbeat
// plus a flow event, the remote equivalent of Heartbeat on a
// PFC-enrolled runnable.
func (c *Client) Exec(i int) {
	c.Beat(i)
	c.FlowEvent(i)
}

// Flush synchronously assembles and sends one frame now, in addition to
// the ticker cadence. Useful in tests and before orderly shutdown.
func (c *Client) Flush() {
	c.flushMu.Lock()
	c.flushLocked()
	c.flushMu.Unlock()
}

// Close stops the flusher, sends a final frame, closes the socket (which
// also unblocks the command reader) and waits for both goroutines. A
// second Close reports ErrClosed without touching the network.
func (c *Client) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.flushMu.Lock()
	if c.closed {
		c.flushMu.Unlock()
		<-c.readDone
		return ErrClosed
	}
	c.flushLocked()
	c.closed = true
	var err error
	if c.conn != nil {
		err = c.conn.Close()
		c.conn = nil
	}
	c.flushMu.Unlock()
	<-c.readDone
	return err
}

// Stats returns a copy of the client's counters.
func (c *Client) Stats() Stats {
	c.flushMu.Lock()
	seq := c.seq
	c.flushMu.Unlock()
	return Stats{
		FramesSent:      c.framesSent.Load(),
		Seq:             seq,
		SendErrors:      c.sendErrs.Load(),
		Reconnects:      c.reconnects.Load(),
		FlowDropped:     c.flowDropped.Load(),
		EncodeErrors:    c.encodeErrs.Load(),
		CommandsApplied: c.cmdApplied.Load(),
		CommandsDropped: c.cmdDropped.Load(),
		CommandErrors:   c.cmdErrs.Load(),
	}
}

// run is the background flusher loop.
func (c *Client) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.Flush()
		}
	}
}

// flushLocked assembles one frame from the swapped-out counters and the
// drained flow backlog and writes it. An idle node still sends the empty
// frame — it is the link runnable's heartbeat. Callers hold flushMu.
func (c *Client) flushLocked() {
	if c.closed {
		return
	}
	if c.conn == nil && !c.redialLocked() {
		return // still backing off; counters keep accumulating
	}
	c.frame.Node = c.cfg.Node
	c.frame.Epoch = c.epoch
	c.frame.Seq = c.seq + 1
	// Acknowledge the newest applied command. The pair is read under
	// ackMu so it is always internally consistent (a non-zero seq never
	// rides with a zero or older epoch).
	c.ackMu.Lock()
	c.frame.CmdAckEpoch = c.cmdSession.Epoch
	c.frame.CmdAckSeq = c.cmdSession.Seq
	c.ackMu.Unlock()
	c.frame.IntervalMs = uint32(c.cfg.Interval / time.Millisecond)
	if c.frame.IntervalMs == 0 {
		c.frame.IntervalMs = 1
	}
	c.frame.Beats = c.frame.Beats[:0]
	for i := range c.counts {
		n := c.counts[i].Swap(0)
		if n == 0 {
			continue
		}
		if n > wire.MaxBeatsPerRecord {
			// A count beyond the per-record wire cap (possible after a
			// long outage on a hot runnable) is clamped to the cap and
			// the remainder folded back to travel with later frames —
			// one oversized counter must never make the whole frame
			// unencodable and starve every other runnable (and the link
			// heartbeat) forever.
			c.counts[i].Add(n - wire.MaxBeatsPerRecord)
			n = wire.MaxBeatsPerRecord
		}
		c.frame.Beats = append(c.frame.Beats, wire.BeatRec{Runnable: uint32(i), Beats: n})
	}
	c.flowMu.Lock()
	c.frame.Flow = append(c.frame.Flow[:0], c.flow...)
	c.flow = c.flow[:0]
	c.flowMu.Unlock()

	buf, err := wire.AppendFrame(c.buf[:0], &c.frame)
	if err != nil {
		// Misconfiguration (frame beyond wire limits): count it, fold
		// the beats back, drop the flow events (they cannot shrink) and
		// account for them — Stats.FlowDropped is the total of lost
		// flow events, whatever dropped them.
		c.encodeErrs.Add(1)
		c.restoreBeatsLocked()
		if n := len(c.frame.Flow); n > 0 {
			c.flowDropped.Add(uint64(n))
		}
		return
	}
	c.buf = buf
	if _, err := c.conn.Write(buf); err != nil {
		c.sendErrs.Add(1)
		c.restoreBeatsLocked()
		c.restoreFlowLocked()
		_ = c.conn.Close()
		c.conn = nil
		c.bumpBackoffLocked()
		return
	}
	c.seq++
	c.framesSent.Add(1)
	c.backoff = 0 // healthy again: next failure starts from MinBackoff
}

// restoreBeatsLocked folds an unsent frame's beat counts back into the
// accumulators so they travel with a later frame.
func (c *Client) restoreBeatsLocked() {
	for i := range c.frame.Beats {
		r := &c.frame.Beats[i]
		c.counts[r.Runnable].Add(r.Beats)
	}
}

// restoreFlowLocked re-queues an unsent frame's flow events ahead of any
// recorded since, preserving global order up to the backlog cap.
func (c *Client) restoreFlowLocked() {
	if len(c.frame.Flow) == 0 {
		return
	}
	c.flowMu.Lock()
	merged := make([]uint32, 0, len(c.frame.Flow)+len(c.flow))
	merged = append(merged, c.frame.Flow...)
	merged = append(merged, c.flow...)
	if len(merged) > c.flowCap {
		c.flowDropped.Add(uint64(len(merged) - c.flowCap))
		merged = merged[:c.flowCap]
	}
	c.flow = merged
	c.flowMu.Unlock()
}

// bumpBackoffLocked doubles the reconnect backoff (capped) and schedules
// the next dial attempt.
func (c *Client) bumpBackoffLocked() {
	if c.backoff <= 0 {
		c.backoff = c.cfg.MinBackoff
	} else {
		c.backoff *= 2
		if c.backoff > c.cfg.MaxBackoff {
			c.backoff = c.cfg.MaxBackoff
		}
	}
	c.nextDial = time.Now().Add(c.backoff)
}

// redialLocked attempts to reopen the socket once the backoff window has
// passed. Reports whether a usable connection exists afterwards.
func (c *Client) redialLocked() bool {
	if time.Now().Before(c.nextDial) {
		return false
	}
	conn, err := c.cfg.Dialer(c.cfg.Addr)
	if err != nil {
		c.bumpBackoffLocked()
		return false
	}
	c.conn = conn
	c.reconnects.Add(1)
	return true
}
