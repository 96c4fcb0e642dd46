// Package ingest is the multi-node ingestion side of the networked
// Software Watchdog: a UDP-first server that receives batched heartbeat
// frames (internal/wire) from remote reporter nodes and replays them
// into a local core.Watchdog on the existing lock-free hot path.
//
// This moves the paper's single-ECU service into the role of a dedicated
// health-monitoring ECU: remote applications keep their in-process
// heartbeat call sites (the swwdclient library coalesces them), and the
// watchdog — hypotheses, detection, TSI derivation, journal, telemetry —
// runs unchanged on the aggregating node.
//
// # Architecture
//
//	UDP sockets ──► read loops ─────────────────────────────────► Monitor.BeatN
//	(SO_REUSEPORT)  (batched recv, PeekNode, stripe lock,         Watchdog.FlowEventN
//	                 decode + seq + replay)                       link Monitor.Beat
//
// The front end is N listener sockets bound to the same address via
// SO_REUSEPORT (Config.Listeners; one socket where the platform lacks
// it), each drained by its own read loop. A loop receives datagrams in
// batches (recvmmsg on linux/amd64 and linux/arm64, see batch.go)
// directly into the receive buffers it owns, and runs each datagram to
// completion: it peeks the node ID from the frame header, takes the
// node's stripe lock (node ID modulo Shards) and decodes, checks and
// replays the frame in place — never a copy, never a hand-off to
// another goroutine. The stripe lock serializes a node's frames no
// matter which socket they arrived on, so the per-node sequence
// bookkeeping is safe; the receive buffers and the decode frame are
// per-loop, so the steady-state ingest path performs zero allocations
// per frame (see BenchmarkIngestFrame; BenchmarkIngestMT measures the
// socket-to-replay aggregate). The kernel receive buffer is the only
// burst buffer: what overflows it is counted in Stats.DroppedPackets.
//
// # Link supervision
//
// Link loss is itself supervised, through the same machinery as any
// other aliveness fault: every registered node owns a synthetic "link
// runnable" in the model. Each accepted in-order frame beats it once,
// and its aliveness hypothesis is derived from the node's declared frame
// interval (one required beat per GraceFrames intervals). A node that
// goes silent — crashed client, unplugged network — stops producing link
// beats, and the ordinary Cycle sweep raises an aliveness error on the
// link runnable within one monitoring period, visible in the sink, the
// fault journal and the metrics endpoint exactly like a local fault.
// Duplicated or re-ordered datagrams are dropped without replay (a beat
// must never count twice); lost datagrams surface as sequence gaps in
// the server stats and, if the loss persists, as link aliveness faults.
//
// # Reporter restarts
//
// Sequence numbers are scoped to a reporter *session*: every frame
// carries a session epoch chosen at client start (larger epoch = newer
// session). Each node's (epoch, seq) stream is admitted by a
// wire.Session, the rule the reporter applies to command frames too.
// When a node's epoch advances, sequence tracking starts over and a
// restart is counted, so the restarted reporter's frames — whose
// sequence numbers begin again at 1 — replay immediately instead of
// being misread as duplicates of the old session. Stale frames still
// in flight from the previous session (smaller epoch) are dropped and
// counted separately. The registration-time Interval is authoritative
// for the link hypothesis; a frame declaring a different interval is
// still replayed but counted in Stats.IntervalMismatch as a
// configuration diagnostic.
package ingest

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"swwd/internal/core"
	"swwd/internal/runnable"
	"swwd/internal/wire"
)

// Defaults for Config zero values.
const (
	DefaultShards = 4
	// DefaultQueueLen is unused: the shard queues it sized are gone.
	// It stays only because the end-to-end benchmark (e2ebench) sizes
	// its in-flight cap from it; delete it with that use.
	DefaultQueueLen    = 512
	DefaultMaxPacket   = 9000
	DefaultGraceFrames = 3
	DefaultReadBuffer  = 4 << 20
	// DefaultListeners keeps the single-socket front end: multi-socket
	// ingestion is opt-in via Config.Listeners / WithListeners.
	DefaultListeners = 1
	// DefaultBatchSize is the per-receive datagram budget of one read
	// loop (the recvmmsg vector length on platforms that batch).
	DefaultBatchSize = 32
	// MaxListeners and MaxBatchSize cap the corresponding Config fields.
	MaxListeners = 32
	MaxBatchSize = 256
)

// ErrNodeExists is reported by RegisterNode for a duplicate node ID.
var ErrNodeExists = errors.New("ingest: node already registered")

// ErrClosed is reported by Listen after Close.
var ErrClosed = errors.New("ingest: server closed")

// ErrUnknownNode is reported by SendCommand for an unregistered node ID.
var ErrUnknownNode = errors.New("ingest: unknown node")

// ErrNoAddress is reported by SendCommand when the node has not yet
// delivered a frame, so the server has no return address to command.
var ErrNoAddress = errors.New("ingest: node has no known address")

// ErrNotListening is reported by SendCommand before Listen.
var ErrNotListening = errors.New("ingest: server not listening")

// NodeSpec describes one remote reporter node at registration time.
type NodeSpec struct {
	// Node is the wire node ID the reporter stamps on its frames.
	Node uint32
	// Interval is the node's declared frame flush cadence; the link
	// runnable's aliveness hypothesis is derived from it.
	Interval time.Duration
	// Runnables maps the node-local runnable index used on the wire
	// (position in this slice) to the model runnable ID.
	Runnables []runnable.ID
	// Link is the node's synthetic link runnable in the model. The
	// server installs its aliveness hypothesis and activates it.
	Link runnable.ID
}

// Config assembles a Server.
type Config struct {
	// Watchdog receives the replayed heartbeats. Required.
	Watchdog *core.Watchdog
	// Shards is the number of lock stripes frames are replayed under: a
	// read loop holds stripe node%Shards while it ingests a frame of
	// that node, so frames of one node never replay concurrently. Zero
	// means DefaultShards.
	Shards int
	// MaxPacket is the largest datagram accepted, and the size of each
	// read loop's receive buffers. Zero means DefaultMaxPacket; senders
	// must keep frames within it or they are counted as decode errors.
	MaxPacket int
	// GraceFrames is how many declared flush intervals a node may stay
	// silent before its link runnable accumulates an aliveness error:
	// the link hypothesis requires one beat per GraceFrames*Interval
	// window. Zero means DefaultGraceFrames (tolerates GraceFrames-1
	// consecutive lost datagrams without a false positive).
	GraceFrames int
	// ReadBuffer is the requested SO_RCVBUF of each UDP socket. Zero
	// means DefaultReadBuffer.
	ReadBuffer int
	// Listeners is the number of UDP sockets bound to the listen
	// address via SO_REUSEPORT, each drained by its own read loop (the
	// kernel spreads sources across them by flow hash). On platforms or
	// kernels without SO_REUSEPORT the server degrades to one socket
	// and Stats.Listeners reports the active count. Zero means
	// DefaultListeners; capped at MaxListeners.
	Listeners int
	// BatchSize is how many datagrams one receive call may return
	// (recvmmsg on linux/amd64 and linux/arm64; other platforms read
	// one datagram per call regardless). 1 disables batching. Zero
	// means DefaultBatchSize; capped at MaxBatchSize.
	BatchSize int
	// CommandEpoch is the server's command epoch, stamped on every
	// command frame (wire v3): larger epoch = newer server incarnation,
	// and reporters drop commands from superseded epochs. Zero means
	// wire.NewEpoch at construction, which is strictly larger across
	// restarts. Tests pin it for determinism.
	CommandEpoch uint64
	// FrameHook, when set, observes every accepted frame after replay:
	// the node ID and whether the frame advanced the node's session
	// epoch (reporter restart). The treatment controller subscribes
	// here. Called on the read loop under the node's stripe lock —
	// implementations must not block.
	FrameHook func(node uint32, restarted bool)
}

// Stats is a point-in-time copy of the server's ingestion counters.
type Stats struct {
	// Frames is the number of datagrams the read loops ingested; Bytes
	// their cumulative payload size.
	Frames uint64
	Bytes  uint64
	// Accepted counts frames that passed decode, registration and
	// sequence checks and were replayed into the watchdog.
	Accepted uint64
	// DecodeErrors counts malformed frames, including frames naming a
	// runnable index outside the node's registered table.
	DecodeErrors uint64
	// UnknownNode counts well-formed frames from unregistered node IDs.
	UnknownNode uint64
	// SeqGaps is the cumulative count of missing sequence numbers
	// (frames lost in flight, as observed from jumps in Seq).
	SeqGaps uint64
	// SeqGapEvents counts accepted frames whose Seq jumped.
	SeqGapEvents uint64
	// DuplicateDrops counts frames dropped because their Seq was not
	// beyond the node's last accepted frame within the same session
	// epoch (duplicate or re-ordered delivery) — dropped without replay
	// so no beat counts twice.
	DuplicateDrops uint64
	// NodeRestarts counts accepted frames whose session epoch advanced:
	// the reporter restarted, and the server reset its sequence tracking
	// for the node.
	NodeRestarts uint64
	// StaleEpochDrops counts frames dropped because their session epoch
	// was older than the node's current one (late datagrams from a
	// superseded reporter session).
	StaleEpochDrops uint64
	// IntervalMismatch counts accepted frames whose declared flush
	// interval differed from the node's registration-time interval. The
	// registered interval is authoritative for the link hypothesis; this
	// counter is the diagnostic for a client flushing on a different
	// cadence than the server expects.
	IntervalMismatch uint64
	// DroppedPackets counts datagrams the kernel discarded because a
	// listener socket's receive queue was full: the sum over listeners
	// of the socket's drop counter (SO_MEMINFO), sampled when Stats is
	// called. Only linux/amd64 and linux/arm64 expose it; elsewhere it
	// stays 0.
	DroppedPackets uint64
	// BuffersExhausted is always 0: the packet free list it counted is
	// gone. The field stays for the WAL record and /metrics
	// compatibility.
	BuffersExhausted uint64
	// ReadErrors counts transient socket read errors.
	ReadErrors uint64
	// CommandsSent counts command frames written to reporters;
	// CommandsAcked the commands confirmed by a heartbeat ack pair in
	// the current command epoch; CommandsDropped the commands that could
	// not be sent (unknown return address, socket error).
	CommandsSent    uint64
	CommandsAcked   uint64
	CommandsDropped uint64
	// CommandStaleAcks counts heartbeat ack pairs ignored because their
	// command epoch was not the server's current one (a reporter still
	// acking a superseded server incarnation).
	CommandStaleAcks uint64
	// Nodes is the number of registered nodes.
	Nodes int
	// Listeners is the number of active listener sockets: the
	// configured count when SO_REUSEPORT took, 1 on the single-socket
	// fallback, 0 before Listen.
	Listeners int
}

// Delta returns the field-wise counter difference s - prev: what
// happened between two Stats() reads. The WAL shipper persists these
// increments so replay can integrate the counter series back over any
// time window. The Nodes and Listeners gauges are copied from s, not
// differenced. Counters are monotonic, so with prev taken earlier every
// delta field is non-negative.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Frames:           s.Frames - prev.Frames,
		Bytes:            s.Bytes - prev.Bytes,
		Accepted:         s.Accepted - prev.Accepted,
		DecodeErrors:     s.DecodeErrors - prev.DecodeErrors,
		UnknownNode:      s.UnknownNode - prev.UnknownNode,
		SeqGaps:          s.SeqGaps - prev.SeqGaps,
		SeqGapEvents:     s.SeqGapEvents - prev.SeqGapEvents,
		DuplicateDrops:   s.DuplicateDrops - prev.DuplicateDrops,
		NodeRestarts:     s.NodeRestarts - prev.NodeRestarts,
		StaleEpochDrops:  s.StaleEpochDrops - prev.StaleEpochDrops,
		IntervalMismatch: s.IntervalMismatch - prev.IntervalMismatch,
		DroppedPackets:   s.DroppedPackets - prev.DroppedPackets,
		BuffersExhausted: s.BuffersExhausted - prev.BuffersExhausted,
		ReadErrors:       s.ReadErrors - prev.ReadErrors,
		CommandsSent:     s.CommandsSent - prev.CommandsSent,
		CommandsAcked:    s.CommandsAcked - prev.CommandsAcked,
		CommandsDropped:  s.CommandsDropped - prev.CommandsDropped,
		CommandStaleAcks: s.CommandStaleAcks - prev.CommandStaleAcks,
		Nodes:            s.Nodes,
		Listeners:        s.Listeners,
	}
}

// ListenerStat is the per-listener slice of the ingestion counters,
// reported by Server.ListenerStats in listener order.
type ListenerStat struct {
	// Packets is the number of datagrams the listener's read loop
	// received (including scratch reads that were dropped); Batches the
	// number of receive calls that returned at least one datagram.
	// Packets/Batches is the achieved amortization of the batched read
	// path — 1 means the socket never had more than one datagram queued.
	Packets uint64
	Batches uint64
	// MaxBatch is the largest single receive observed.
	MaxBatch uint64
}

// ShardStat described a shard worker's queue, which no longer exists;
// Server.ShardStats returns none. It stays only because the end-to-end
// benchmark (e2ebench) compiles against it; delete it with that use.
type ShardStat struct {
	Depth    int
	DepthHWM int
	Capacity int
}

// nodeState is the server-side state of one registered node. Everything
// except session is immutable after registration; session is touched
// only under the node's stripe lock.
type nodeState struct {
	spec NodeSpec
	// mons[i] is the Monitor handle of wire runnable index i.
	mons []*core.Monitor
	// link is the handle of the synthetic link runnable.
	link *core.Monitor
	// intervalMs is the registration-time interval in wire units, the
	// authoritative value frames' declared IntervalMs is checked against.
	intervalMs uint32

	// session admits the node's frames by (epoch, seq).
	session wire.Session

	// cmdAcked is the highest command sequence number the reporter has
	// confirmed in the current command epoch. Written only under the
	// node's stripe lock; read atomically by NodeCommandAcked (the
	// calibration controller polls per-node ack progress).
	cmdAcked atomic.Uint64

	// addr is the source address of the node's most recent accepted
	// frame — the return path for command frames. Updated under the
	// stripe lock (allocating only when the address actually changes),
	// read by SendCommand.
	addr atomic.Pointer[netip.AddrPort]
	// cmdSeq is the per-node command sequence counter, advanced under
	// the server's cmdMu and read atomically by ingestFrame to clamp
	// runaway acks.
	cmdSeq atomic.Uint64
}

// Server ingests heartbeat frames into a watchdog.
type Server struct {
	w   *core.Watchdog
	cfg Config

	// nodes is a copy-on-write map: readers load it with one atomic
	// pointer load; RegisterNode clones under regMu.
	nodes atomic.Pointer[map[uint32]*nodeState]
	regMu sync.Mutex

	// conn is the first listener's socket: the bound-address handle and
	// the write side of the command channel. listeners holds every
	// socket (len 1 on the single-socket fallback).
	conn      *net.UDPConn
	listeners []*listenerState
	stripes   []stripe
	// readerWG tracks the per-listener read loops.
	readerWG sync.WaitGroup
	started  bool
	closed   bool
	// dropMu serializes kernelDrops' sampling of the listeners.
	dropMu sync.Mutex

	// cmdEpoch is fixed at construction; cmdMu serializes command
	// sequence allocation and the reused encode buffer.
	cmdEpoch uint64
	cmdMu    sync.Mutex
	cmdBuf   []byte

	frames       atomic.Uint64
	bytes        atomic.Uint64
	accepted     atomic.Uint64
	decodeErrs   atomic.Uint64
	unknown      atomic.Uint64
	seqGaps      atomic.Uint64
	gapEvents    atomic.Uint64
	dupDrops     atomic.Uint64
	restarts     atomic.Uint64
	staleEpochs  atomic.Uint64
	intervalMism atomic.Uint64
	readErrs     atomic.Uint64
	cmdSent      atomic.Uint64
	cmdAcked     atomic.Uint64
	cmdDropped   atomic.Uint64
	cmdStale     atomic.Uint64
}

// New validates the options and builds an idle server ingesting into w;
// register nodes with RegisterNode, then bind it with Listen.
func New(w *core.Watchdog, opts ...Option) (*Server, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Watchdog = w // the watchdog is New's contract, not an option
	if cfg.Watchdog == nil {
		return nil, errors.New("ingest: Config.Watchdog is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards > 64 {
		cfg.Shards = 64
	}
	if cfg.MaxPacket <= 0 {
		cfg.MaxPacket = DefaultMaxPacket
	}
	if cfg.MaxPacket > wire.MaxFrameSize {
		cfg.MaxPacket = wire.MaxFrameSize
	}
	if cfg.GraceFrames <= 0 {
		cfg.GraceFrames = DefaultGraceFrames
	}
	if cfg.ReadBuffer <= 0 {
		cfg.ReadBuffer = DefaultReadBuffer
	}
	if cfg.Listeners <= 0 {
		cfg.Listeners = DefaultListeners
	}
	if cfg.Listeners > MaxListeners {
		cfg.Listeners = MaxListeners
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.BatchSize > MaxBatchSize {
		cfg.BatchSize = MaxBatchSize
	}
	if cfg.CommandEpoch == 0 {
		cfg.CommandEpoch = wire.NewEpoch()
	}
	s := &Server{w: cfg.Watchdog, cfg: cfg, cmdEpoch: cfg.CommandEpoch, stripes: make([]stripe, cfg.Shards)}
	empty := make(map[uint32]*nodeState)
	s.nodes.Store(&empty)
	return s, nil
}

// LinkHypothesis derives the aliveness hypothesis of a node's link
// runnable from its declared frame interval: one required beat (one
// accepted frame) per grace*interval window, expressed in watchdog
// cycles of the given period. Exported so operators can inspect what a
// registration will install.
func LinkHypothesis(interval, cyclePeriod time.Duration, graceFrames int) core.Hypothesis {
	if graceFrames <= 0 {
		graceFrames = DefaultGraceFrames
	}
	window := time.Duration(graceFrames) * interval
	cycles := int((window + cyclePeriod - 1) / cyclePeriod)
	if cycles < 2 {
		cycles = 2 // never race a frame against the very next sweep
	}
	return core.Hypothesis{AlivenessCycles: cycles, MinHeartbeats: 1}
}

// RegisterNode registers one remote node: resolves Monitor handles for
// its runnable table, installs the derived link hypothesis and activates
// the link runnable. Frames from unregistered nodes are counted and
// dropped, so registration must precede the node's first frame.
func (s *Server) RegisterNode(spec NodeSpec) error {
	return s.RegisterNodes([]NodeSpec{spec})
}

// RegisterNodes registers a batch of nodes with one copy-on-write step.
// Per-node RegisterNode clones the whole lock-free node table for every
// insert — O(fleet) per call, quadratic across a fleet build and the
// dominant cost of assembling 100k+ nodes. The batch form resolves
// every spec first and publishes them with a single clone, so building
// an N-node fleet is O(N) total. On any error nothing is published.
func (s *Server) RegisterNodes(specs []NodeSpec) error {
	states := make([]*nodeState, len(specs))
	for i := range specs {
		ns, err := s.resolveNode(&specs[i])
		if err != nil {
			return err
		}
		states[i] = ns
	}

	s.regMu.Lock()
	defer s.regMu.Unlock()
	old := *s.nodes.Load()
	next := make(map[uint32]*nodeState, len(old)+len(specs))
	for k, v := range old {
		next[k] = v
	}
	for i := range specs {
		if _, dup := next[specs[i].Node]; dup {
			return fmt.Errorf("%w: %d", ErrNodeExists, specs[i].Node)
		}
		next[specs[i].Node] = states[i]
	}
	s.nodes.Store(&next)
	return nil
}

// resolveNode turns a NodeSpec into runtime state: Monitor handles for
// the runnable table, the derived link hypothesis installed and the
// link runnable activated. It touches only the watchdog, never the
// node table.
func (s *Server) resolveNode(spec *NodeSpec) (*nodeState, error) {
	if spec.Interval <= 0 {
		return nil, fmt.Errorf("ingest: node %d: interval must be positive", spec.Node)
	}
	intervalMs := uint32(spec.Interval / time.Millisecond)
	if intervalMs == 0 {
		intervalMs = 1 // mirrors the client's floor: IntervalMs encodes as >= 1
	}
	ns := &nodeState{
		spec:       *spec,
		mons:       make([]*core.Monitor, len(spec.Runnables)),
		intervalMs: intervalMs,
	}
	for i, rid := range spec.Runnables {
		m, err := s.w.Register(rid)
		if err != nil {
			return nil, fmt.Errorf("ingest: node %d runnable %d: %w", spec.Node, i, err)
		}
		ns.mons[i] = m
	}
	link, err := s.w.Register(spec.Link)
	if err != nil {
		return nil, fmt.Errorf("ingest: node %d link: %w", spec.Node, err)
	}
	ns.link = link
	hyp := LinkHypothesis(spec.Interval, s.w.CyclePeriod(), s.cfg.GraceFrames)
	if err := s.w.SetHypothesis(spec.Link, hyp); err != nil {
		return nil, fmt.Errorf("ingest: node %d link hypothesis: %w", spec.Node, err)
	}
	if err := s.w.Activate(spec.Link); err != nil {
		return nil, fmt.Errorf("ingest: node %d link activate: %w", spec.Node, err)
	}
	return ns, nil
}

// Listen binds the UDP socket(s) and starts one read loop per socket.
// addr is a host:port as for net.ListenUDP (":0" picks an ephemeral
// port); the bound address is returned for clients to dial. With Config.Listeners > 1 the address is bound that many times
// via SO_REUSEPORT, falling back to a single socket where the platform
// or kernel lacks it.
func (s *Server) Listen(addr string) (net.Addr, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.started {
		return nil, errors.New("ingest: server already listening")
	}
	conns, err := listenConns(addr, s.cfg.Listeners)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	for _, c := range conns {
		_ = c.SetReadBuffer(s.cfg.ReadBuffer) // best effort; kernel may clamp
	}
	s.conn = conns[0]
	s.started = true
	s.listeners = make([]*listenerState, len(conns))
	for i, c := range conns {
		ls := &listenerState{conn: c}
		s.listeners[i] = ls
		s.readerWG.Add(1)
		go s.readLoop(ls)
	}
	return s.conn.LocalAddr(), nil
}

// Addr reports the bound address, nil before Listen.
func (s *Server) Addr() net.Addr {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.conn == nil {
		return nil
	}
	return s.conn.LocalAddr()
}

// Close stops the read loops and releases every socket. The watchdog
// is left running — link runnables of silent nodes will keep
// accumulating aliveness faults until the caller deactivates them.
func (s *Server) Close() error {
	s.regMu.Lock()
	if s.closed {
		s.regMu.Unlock()
		return nil
	}
	s.closed = true
	listeners := s.listeners
	s.regMu.Unlock()
	for _, ls := range listeners {
		_ = ls.conn.Close() // unblocks the read loop
	}
	s.readerWG.Wait()
	return nil
}

// ingestFrame is the per-frame ingest path: decode, validate against the
// node's registered runnable table, enforce the sequence discipline and
// replay. Frames of one node are processed by exactly one goroutine at a
// time (the read loop holding the node's stripe lock), which makes the
// node's session safe.
func (s *Server) ingestFrame(buf []byte, f *wire.Frame, src netip.AddrPort) {
	s.frames.Add(1)
	s.bytes.Add(uint64(len(buf)))
	if err := wire.DecodeFrame(buf, f); err != nil {
		s.decodeErrs.Add(1)
		return
	}
	ns := (*s.nodes.Load())[f.Node]
	if ns == nil {
		s.unknown.Add(1)
		return
	}
	// Validate every index before replaying anything: a frame naming an
	// unknown runnable is counted as a decode error and dropped whole,
	// never partially applied and never a panic.
	for i := range f.Beats {
		if int(f.Beats[i].Runnable) >= len(ns.mons) {
			s.decodeErrs.Add(1)
			return
		}
	}
	for _, idx := range f.Flow {
		if int(idx) >= len(ns.mons) {
			s.decodeErrs.Add(1)
			return
		}
	}
	// The registered interval is authoritative; a differing declared
	// interval is a configuration diagnostic, not a reason to drop.
	if f.IntervalMs != ns.intervalMs {
		s.intervalMism.Add(1)
	}
	// Sequence discipline, scoped to the session epoch (wire.Session).
	// Duplicates and re-ordered frames are dropped without replay (a
	// beat must never count twice); gaps are counted while the frame
	// itself replays. Dropping a whole stale frame also discards its
	// command ack pair: a superseded reporter session can never confirm
	// commands sent to its successor.
	v, gap := ns.session.Admit(f.Epoch, f.Seq)
	switch v {
	case wire.Stale:
		s.staleEpochs.Add(1)
		return
	case wire.Duplicate:
		s.dupDrops.Add(1)
		return
	case wire.Restart:
		s.restarts.Add(1)
	}
	if gap > 0 {
		s.seqGaps.Add(gap)
		s.gapEvents.Add(1)
	}

	// Remember the frame's source as the node's command return address.
	// The pointer swap allocates only when the address actually changes
	// (reporter re-dial from a new port), keeping the steady state
	// allocation free.
	if src.IsValid() {
		if cur := ns.addr.Load(); cur == nil || *cur != src {
			a := src
			ns.addr.Store(&a)
		}
	}
	// Command ack accounting: the ack pair confirms delivery only in the
	// server's current command epoch; acks for a superseded epoch are
	// counted as stale and otherwise ignored. The ack is clamped to the
	// highest sequence number actually issued, so a corrupt or lying
	// reporter can never inflate the acked counter.
	if f.CmdAckSeq != 0 {
		if f.CmdAckEpoch != s.cmdEpoch {
			s.cmdStale.Add(1)
		} else if prev := ns.cmdAcked.Load(); f.CmdAckSeq > prev {
			acked := f.CmdAckSeq
			if issued := ns.cmdSeq.Load(); acked > issued {
				acked = issued
			}
			if acked > prev {
				s.cmdAcked.Add(acked - prev)
				ns.cmdAcked.Store(acked)
			}
		}
	}

	for i := range f.Beats {
		ns.mons[f.Beats[i].Runnable].BeatN(int(f.Beats[i].Beats))
	}
	s.w.FlowEventN(ns.spec.Runnables, f.Flow)
	// The accepted frame is the link runnable's heartbeat: aliveness of
	// the *reporting channel*, supervised like any other runnable.
	ns.link.Beat()
	s.accepted.Add(1)
	if s.cfg.FrameHook != nil {
		s.cfg.FrameHook(f.Node, v == wire.Restart)
	}
}

// SendCommand encodes one command frame for node and sends it to the
// address the node's heartbeats last arrived from, returning the
// assigned per-node command sequence number. The frame carries the
// server's command epoch; delivery is confirmed when a later heartbeat
// acks (epoch, seq). Safe for concurrent use; commands to one node are
// sequence-ordered by the internal lock. A node that has never
// delivered a frame has no return address — ErrNoAddress — and an
// unsendable command counts as dropped.
func (s *Server) SendCommand(node uint32, recs ...wire.CmdRec) (uint64, error) {
	ns := (*s.nodes.Load())[node]
	if ns == nil {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, node)
	}
	s.regMu.Lock()
	conn := s.conn
	s.regMu.Unlock()
	if conn == nil {
		s.cmdDropped.Add(1)
		return 0, ErrNotListening
	}
	addr := ns.addr.Load()
	if addr == nil {
		s.cmdDropped.Add(1)
		return 0, fmt.Errorf("%w: %d", ErrNoAddress, node)
	}
	s.cmdMu.Lock()
	defer s.cmdMu.Unlock()
	seq := ns.cmdSeq.Add(1)
	cmd := wire.Command{Node: node, Epoch: s.cmdEpoch, Seq: seq, Recs: recs}
	buf, err := wire.AppendCommand(s.cmdBuf[:0], &cmd)
	if err != nil {
		s.cmdDropped.Add(1)
		return 0, err
	}
	s.cmdBuf = buf
	if _, err := conn.WriteToUDPAddrPort(buf, *addr); err != nil {
		s.cmdDropped.Add(1)
		return 0, fmt.Errorf("ingest: command send: %w", err)
	}
	s.cmdSent.Add(1)
	return seq, nil
}

// CommandEpoch reports the server's command epoch.
func (s *Server) CommandEpoch() uint64 { return s.cmdEpoch }

// NodeCommandAcked reports the highest command sequence number node has
// acknowledged in the server's command epoch (zero for an unknown node
// or one that has acked nothing).
func (s *Server) NodeCommandAcked(node uint32) uint64 {
	ns := (*s.nodes.Load())[node]
	if ns == nil {
		return 0
	}
	return ns.cmdAcked.Load()
}

// Stats returns a copy of the ingestion counters.
func (s *Server) Stats() Stats {
	return Stats{
		Frames:           s.frames.Load(),
		Bytes:            s.bytes.Load(),
		Accepted:         s.accepted.Load(),
		DecodeErrors:     s.decodeErrs.Load(),
		UnknownNode:      s.unknown.Load(),
		SeqGaps:          s.seqGaps.Load(),
		SeqGapEvents:     s.gapEvents.Load(),
		DuplicateDrops:   s.dupDrops.Load(),
		NodeRestarts:     s.restarts.Load(),
		StaleEpochDrops:  s.staleEpochs.Load(),
		IntervalMismatch: s.intervalMism.Load(),
		DroppedPackets:   s.kernelDrops(),
		ReadErrors:       s.readErrs.Load(),
		CommandsSent:     s.cmdSent.Load(),
		CommandsAcked:    s.cmdAcked.Load(),
		CommandsDropped:  s.cmdDropped.Load(),
		CommandStaleAcks: s.cmdStale.Load(),
		Nodes:            len(*s.nodes.Load()),
		Listeners:        len(s.snapshotListeners()),
	}
}

// ListenerStats returns the per-listener receive counters in listener
// order; empty before Listen.
func (s *Server) ListenerStats() []ListenerStat {
	listeners := s.snapshotListeners()
	out := make([]ListenerStat, len(listeners))
	for i, ls := range listeners {
		out[i] = ListenerStat{
			Packets:  ls.packets.Load(),
			Batches:  ls.batches.Load(),
			MaxBatch: ls.maxBatch.Load(),
		}
	}
	return out
}

// ShardStats returns nil: there are no shard queues to report. It
// stays only because the end-to-end benchmark (e2ebench) calls it;
// delete it with that use.
func (s *Server) ShardStats() []ShardStat { return nil }

// snapshotListeners reads the listener slice under the registration
// lock (it is assigned once, by Listen).
func (s *Server) snapshotListeners() []*listenerState {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.listeners
}

// isClosed reports whether err marks the socket shut by Close.
func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
