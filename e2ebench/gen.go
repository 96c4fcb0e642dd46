package main

import (
	"errors"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swwd/internal/ingest"
	"swwd/internal/treat"
	"swwd/internal/wire"
)

// ringSlots is the depth of each node's send-time ring: the frame with
// sequence number s of node n was stamped into slot n*ringSlots +
// s%ringSlots. A power of two, and far more frames than one node ever
// has in flight.
const ringSlots = 64

// latShards spreads the frame-latency buffers so shard workers rarely
// share a cache line.
const latShards = 8

// latBuf is one shard of the window's latency samples, each packed as
// node<<48 | part<<44 | latency in ns, where part is the part of the
// window the frame was sent in.
type latBuf struct {
	n atomic.Int64
	v []atomic.Uint64
	_ [56]byte
}

// frameBook is the benchmark's side of the ingest FrameHook: it matches
// each accepted frame to its send time and records the latency of
// frames whose send time falls in the current measurement window.
//
// The hook gets the node and the session-restart flag, not the
// sequence number, so the book counts accepted frames per node session:
// without loss the k-th accepted frame of a session is the frame with
// Seq k. A lost frame shifts the count for the rest of the session, so
// a window drops the samples of every node that lost a frame in it,
// and the generator realigns the counts between windows.
type frameBook struct {
	nodes int // generator nodes; node IDs at or above are the probe
	send  []atomic.Int64
	count []atomic.Uint64
	// lastAcc is the accept time of each generator node's latest frame.
	lastAcc []atomic.Int64
	seen    []atomic.Bool
	nSeen   atomic.Int64
	nAcc    atomic.Int64 // generator nodes' accepted frames
	// The window is on send time: [winLo, winHi); winLo 0 disables it.
	winLo, winHi atomic.Int64
	sentN        []atomic.Uint32 // per node: frames sent in the window
	accN         []atomic.Uint32 // per node: of those, frames accepted
	lat          [latShards]latBuf
	ctrl         atomic.Pointer[treat.Controller]
	tr           *tracer
	// recovering marks nodes whose new session has not yet delivered
	// the frame that completes the treatment's recovery streak;
	// recovered logs when each such frame was accepted.
	recovering []atomic.Bool
	recMu      sync.Mutex
	recovered  []acceptLog
}

// acceptLog is the accept time of one of a node's frames.
type acceptLog struct {
	node uint32
	at   int64
}

// traceEvery samples frame spans: one node in traceEvery is traced, so
// a traced node's frames form complete (node, seq) threads.
const traceEvery = 16

// newFrameBook sizes the sample buffers for windows of up to
// maxFrames frames.
func newFrameBook(nodes, maxFrames int, tr *tracer) *frameBook {
	b := &frameBook{
		nodes:      nodes,
		send:       make([]atomic.Int64, nodes*ringSlots),
		count:      make([]atomic.Uint64, nodes),
		lastAcc:    make([]atomic.Int64, nodes),
		recovering: make([]atomic.Bool, nodes),
		seen:       make([]atomic.Bool, nodes+1),
		sentN:      make([]atomic.Uint32, nodes),
		accN:       make([]atomic.Uint32, nodes),
		tr:         tr,
	}
	for i := range b.lat {
		b.lat[i].v = make([]atomic.Uint64, maxFrames/latShards+maxFrames/32)
	}
	return b
}

// hook is installed as the ingest server's FrameHook. Like the hook
// ingest.BuildFleet installs, it forwards every frame to the treatment
// controller.
func (b *frameBook) hook(node uint32, restarted bool) {
	t := now()
	if int(node) < len(b.seen) && !b.seen[node].Load() && b.seen[node].CompareAndSwap(false, true) {
		b.nSeen.Add(1)
	}
	if c := b.ctrl.Load(); c != nil {
		c.OnFrame(node, restarted)
	}
	if int(node) >= b.nodes {
		return
	}
	b.nAcc.Add(1)
	b.lastAcc[node].Store(t)
	if restarted {
		b.count[node].Store(0)
		b.recovering[node].Store(true)
	}
	seq := b.count[node].Add(1)
	if seq == treat.DefaultRecoveryFrames && b.recovering[node].Load() {
		b.recovering[node].Store(false)
		b.recMu.Lock()
		b.recovered = append(b.recovered, acceptLog{node, t})
		b.recMu.Unlock()
	}
	sent := b.send[int(node)*ringSlots+int(seq%ringSlots)].Load()
	if lo := b.winLo.Load(); lo == 0 || sent < lo || sent >= b.winHi.Load() {
		return
	}
	b.accN[node].Add(1)
	lo, hi := b.winLo.Load(), b.winHi.Load()
	part := uint64((sent - lo) * windowParts / max(1, hi-lo))
	lb := &b.lat[node%latShards]
	if i := lb.n.Add(1) - 1; i < int64(len(lb.v)) {
		lb.v[i].Store(uint64(node)<<48 | part<<44 | uint64(min(t-sent, 1<<44-1)))
	}
	if node%traceEvery == 0 {
		b.tr.add("ingest.accept", sent, t, int64(node), int64(seq))
	}
}

// openWindow starts counting frames sent in [lo, hi).
func (b *frameBook) openWindow(lo, hi int64) {
	for i := range b.sentN {
		b.sentN[i].Store(0)
		b.accN[i].Store(0)
	}
	for i := range b.lat {
		b.lat[i].n.Store(0)
	}
	b.winHi.Store(hi)
	b.winLo.Store(lo)
}

// pending returns how many frames sent in the open window are not yet
// accepted.
func (b *frameBook) pending() uint64 {
	var n uint64
	for i := range b.sentN {
		if s, a := b.sentN[i].Load(), b.accN[i].Load(); a < s {
			n += uint64(s - a)
		}
	}
	return n
}

// windowParts is how many equal parts of a window the latency
// samples are also split into.
const windowParts = 4

// windowStats is what a closed window yields.
type windowStats struct {
	sent, accepted uint64
	lossyNodes     int
	lat            []float64 // ns, ascending, nodes without loss only
	// partP99 is the p99 latency of the frames sent in each part of
	// the window.
	partP99 [windowParts]float64
}

// closeWindow stops counting and returns the window's frames. Call it
// once the frames sent in the window had time to arrive.
func (b *frameBook) closeWindow() windowStats {
	b.winLo.Store(0)
	var ws windowStats
	lossy := make([]bool, b.nodes)
	for n := range b.sentN {
		s, a := b.sentN[n].Load(), b.accN[n].Load()
		ws.sent += uint64(s)
		ws.accepted += uint64(a)
		if a < s {
			lossy[n] = true
			ws.lossyNodes++
		}
	}
	var parts [windowParts][]float64
	for i := range b.lat {
		lb := &b.lat[i]
		n := min(lb.n.Load(), int64(len(lb.v)))
		for j := int64(0); j < n; j++ {
			v := lb.v[j].Load()
			if lossy[v>>48] {
				continue
			}
			ns := float64(v & (1<<44 - 1))
			ws.lat = append(ws.lat, ns)
			if p := (v >> 44) & 0xf; p < windowParts {
				parts[p] = append(parts[p], ns)
			}
		}
	}
	sort.Float64s(ws.lat)
	for p := range parts {
		ws.partP99[p] = quantile(parts[p], 0.99)
	}
	return ws
}

// incidentLog is the generator's record of one executed kill.
type incidentLog struct {
	kill       int // index into plan.Kills
	node       uint32
	lastSendNs int64 // the node's last frame before it died: sent
	lastAccNs  int64 // and accepted, read when the node restarts
	restartNs  int64 // first frame of the new session; 0 until sent
}

// cmdLog is one command frame received on the generator socket.
type cmdLog struct {
	at   int64
	node uint32
	seq  uint64
	op   uint8
}

// generator is the load source: one goroutine that paces every
// generator node's frames, encodes them with wire.AppendFrame and sends
// them in sendmmsg batches on one connected UDP socket, plus a reader
// goroutine on the same socket that records command frames and acks
// them for live nodes on their next frame.
type generator struct {
	p    *plan
	conn *net.UDPConn
	bw   *batchWriter
	book *frameBook
	tr   *tracer

	order    []uint32 // generator nodes by phase
	epochs   []uint64 // generator goroutine only
	seqs     []uint64
	lastSend []int64
	restart  []int32        // incident awaiting its first new-session frame, or -1
	incOf    []atomic.Int32 // each node's latest incident, or -1
	alive    []atomic.Bool
	ackSeq   []atomic.Uint64
	cmdEpoch atomic.Uint64

	rateBits    atomic.Uint64 // requested rate, float64 frames/s
	rateApplied atomic.Int64  // last round boundary, where a requested rate is applied
	killBase    atomic.Int64  // time zero of the kill schedule; 0 = not armed

	// Counters the orchestrator reads and resets per phase or step.
	late       hist // per frame: send time minus due time
	lateMax    atomic.Int64
	sendNs     atomic.Int64
	sendFrames atomic.Uint64
	sendErrs   atomic.Uint64
	cmdErrs    atomic.Uint64
	// capped holds the paced loop to maxInFlight frames awaiting
	// acceptance; holds counts the wakeups at which it held frames back.
	capped  atomic.Bool
	holds   atomic.Uint64
	sentAll int64 // frames sent; generator goroutine only

	mu        sync.Mutex
	incidents []incidentLog
	cmds      []cmdLog

	resync chan chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
}

// resyncPause is how long the generator holds its frames before it
// realigns the frame book: long enough for every frame in flight at
// the reference rate to be accepted, short enough that no node's gap
// exceeds half its link window.
const resyncPause = 30 * time.Millisecond

// sendBatch is the sendmmsg vector length.
const sendBatch = 64

// catchUp bounds the rate at which the generator works off a backlog,
// as a multiple of the offered rate; catchUpBurst bounds one wakeup's
// share of it.
const (
	catchUp      = 2
	catchUpBurst = 2 * time.Millisecond
)

// maxInFlight bounds how many sent frames may await acceptance: in the
// set-up burst, and in the paced loop while the generator is capped.
// It is one shard's queue depth, so even a stall of a single shard
// worker cannot overflow its queue, and the frames fill a small share
// of the clamped 4 MiB socket buffer: a stall of the server's
// goroutines holds the generator back rather than losing frames.
const maxInFlight = ingest.DefaultQueueLen

// minSleep is the generator's pacing quantum: it never sleeps less, so
// one wakeup sends every frame that fell due meanwhile as one batch.
const minSleep = 200 * time.Microsecond

func newGenerator(p *plan, addr *net.UDPAddr, book *frameBook, tr *tracer, incOf []atomic.Int32, rate float64) (*generator, error) {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, err
	}
	if err := enableRxStamps(conn); err != nil {
		conn.Close()
		return nil, err
	}
	bw, err := newBatchWriter(conn, sendBatch)
	if err != nil {
		conn.Close()
		return nil, err
	}
	n := p.W.nodes
	g := &generator{
		p: p, conn: conn, bw: bw, book: book, tr: tr,
		order:    make([]uint32, n),
		epochs:   make([]uint64, n),
		seqs:     make([]uint64, n),
		lastSend: make([]int64, n),
		restart:  make([]int32, n),
		incOf:    incOf,
		alive:    make([]atomic.Bool, n),
		ackSeq:   make([]atomic.Uint64, n),
		resync:   make(chan chan struct{}),
		stop:     make(chan struct{}),
	}
	epoch := uint64(time.Now().UnixNano())
	for i := range g.order {
		g.order[i] = uint32(i)
		g.epochs[i] = epoch
		g.restart[i] = -1
		g.alive[i].Store(true)
	}
	sort.Slice(g.order, func(i, j int) bool { return p.Phase[g.order[i]] < p.Phase[g.order[j]] })
	g.rateBits.Store(math.Float64bits(rate))
	g.capped.Store(true)
	g.wg.Add(2)
	go g.run(rate)
	go g.readCommands()
	return g, nil
}

// setRate asks for a new offered rate; it takes effect at the next
// round boundary, so no node's gap between frames exceeds the longer of
// the old and new intervals. It returns once the rate is in effect.
func (g *generator) setRate(fps float64) {
	asked := now()
	g.rateBits.Store(math.Float64bits(fps))
	for g.rateApplied.Load() < asked {
		time.Sleep(time.Millisecond)
	}
}

// realign pauses the generator until every frame in flight has been
// accepted or lost, then resets the frame book's per-node counts to
// the sequence numbers sent. Frames lost in an overloaded step would
// otherwise shift the book's frame-to-send-time matching for the rest
// of the run.
func (g *generator) realign() {
	done := make(chan struct{})
	g.resync <- done
	<-done
}

func (g *generator) close() {
	close(g.stop)
	g.conn.Close()
	g.wg.Wait()
}

func intervalNs(nodes int, fps float64) int64 { return int64(float64(nodes) / fps * 1e9) }

func (g *generator) run(rate float64) {
	defer g.wg.Done()
	p := g.p
	frames := make([][]byte, sendBatch)
	for i := range frames {
		frames[i] = make([]byte, 0, 4096)
	}
	nodes := make([]uint32, sendBatch)
	seqs := make([]uint64, sendBatch)
	dues := make([]int64, sendBatch)
	var f wire.Frame
	restarts := make([]int, len(p.Kills))
	for i := range restarts {
		restarts[i] = i
	}
	sort.Slice(restarts, func(i, j int) bool { return p.Kills[restarts[i]].Restart < p.Kills[restarts[j]].Restart })
	nextKill, nextRestart := 0, 0

	flush := func(k int) {
		if k == 0 {
			return
		}
		t := now()
		for i := 0; i < k; i++ {
			g.late.record(t - dues[i])
			maxInt64(&g.lateMax, t-dues[i])
			n := nodes[i]
			g.book.send[int(n)*ringSlots+int(seqs[i]%ringSlots)].Store(t)
			g.lastSend[n] = t
			if r := g.restart[n]; r >= 0 {
				g.mu.Lock()
				g.incidents[r].restartNs = t
				g.mu.Unlock()
				g.restart[n] = -1
			}
		}
		m, err := g.bw.write(frames[:k])
		t2 := now()
		g.sentAll += int64(m)
		g.sendNs.Add(t2 - t)
		g.sendFrames.Add(uint64(m))
		if err != nil {
			g.sendErrs.Add(uint64(k - m))
		}
		if lo := g.book.winLo.Load(); lo != 0 && t >= lo && t < g.book.winHi.Load() {
			for i := 0; i < m; i++ {
				g.book.sentN[nodes[i]].Add(1)
			}
		}
		if g.tr.on.Load() {
			for i := 0; i < m; i++ {
				if nodes[i]%traceEvery == 0 {
					g.tr.add("gen.send", t, t2, int64(nodes[i]), int64(seqs[i]))
				}
			}
		}
	}

	// queue encodes node n's next frame into the batch and sends the
	// batch when it is full.
	k := 0
	queue := func(n uint32, due int64) {
		g.seqs[n]++
		f.Node = n
		f.Epoch = g.epochs[n]
		f.Seq = g.seqs[n]
		f.CmdAckEpoch, f.CmdAckSeq = 0, 0
		if a := g.ackSeq[n].Load(); a > 0 {
			f.CmdAckEpoch, f.CmdAckSeq = g.cmdEpoch.Load(), a
		}
		f.IntervalMs = uint32(frameInterval / time.Millisecond)
		f.Beats = p.Beats[n]
		f.Flow = p.Flow
		buf, err := wire.AppendFrame(frames[k][:0], &f)
		if err != nil {
			panic(err) // the plan builds only encodable frames
		}
		frames[k], nodes[k], seqs[k], dues[k] = buf, n, f.Seq, due
		k++
		if k == sendBatch {
			flush(k)
			k = 0
		}
	}

	// Set-up: every node's first frame goes out unpaced, as fast as
	// the server accepts them, at most maxInFlight frames ahead of it so
	// that none is lost to a full socket or shard queue.
	for i, n := range g.order {
		for int64(i)-g.book.nSeen.Load() > maxInFlight {
			select {
			case <-g.stop:
				return
			default:
			}
			time.Sleep(minSleep)
		}
		queue(n, now())
	}
	flush(k)

	interval := intervalNs(p.W.nodes, rate)
	roundStart := now()
	j := 0
	lastWake, tokens := roundStart, 0.0
	for {
		select {
		case <-g.stop:
			return
		case done := <-g.resync:
			time.Sleep(resyncPause)
			for n, seq := range g.seqs {
				g.book.count[n].Store(seq)
			}
			close(done)
		default:
		}
		t := now()
		// After a stall the backlog goes out at catchUp times the
		// offered rate, never as one burst: independent reporters would
		// not have stalled together. A token bucket filled at that rate,
		// holding at most catchUpBurst of it, paces the backlog.
		fill := rate * catchUp * 1e-9
		tokens = min(tokens+float64(t-lastWake)*fill, max(sendBatch, float64(catchUpBurst)*fill))
		lastWake = t
		if kb := g.killBase.Load(); kb > 0 {
			for nextKill < len(p.Kills) && kb+int64(p.Kills[nextKill].At) <= t {
				n := p.Kills[nextKill].Node
				g.alive[n].Store(false)
				g.mu.Lock()
				g.incidents = append(g.incidents, incidentLog{kill: nextKill, node: n, lastSendNs: g.lastSend[n]})
				g.restart[n] = int32(len(g.incidents) - 1) // armed, fires on the first frame after restart
				g.mu.Unlock()
				g.incOf[n].Store(g.restart[n])
				nextKill++
			}
			for nextRestart < len(restarts) && kb+int64(p.Kills[restarts[nextRestart]].Restart) <= t {
				n := p.Kills[restarts[nextRestart]].Node
				if r := g.restart[n]; r >= 0 {
					g.mu.Lock()
					g.incidents[r].lastAccNs = g.book.lastAcc[n].Load()
					g.mu.Unlock()
				}
				// A new reporter process: new session epoch, sequence
				// from 1, nothing applied yet so nothing to ack.
				g.epochs[n]++
				g.seqs[n] = 0
				g.ackSeq[n].Store(0)
				g.alive[n].Store(true)
				nextRestart++
			}
		}

		k = 0
		behind := false
		acc, capped := g.book.nAcc.Load(), g.capped.Load()
		for {
			n := g.order[j]
			due := roundStart + int64(p.Phase[n]*float64(interval))
			if due > t {
				break
			}
			if tokens < 1 && due < t-int64(minSleep) {
				behind = true
				break
			}
			if capped && g.sentAll+int64(k)-acc >= maxInFlight {
				g.holds.Add(1)
				behind = true
				break
			}
			tokens--
			if g.alive[n].Load() {
				queue(n, due)
			}
			j++
			if j == len(g.order) {
				j = 0
				roundStart += interval
				if r := math.Float64frombits(g.rateBits.Load()); r != rate {
					rate = r
					interval = intervalNs(p.W.nodes, rate)
				}
				g.rateApplied.Store(now())
			}
		}
		flush(k)
		next := roundStart + int64(p.Phase[g.order[j]]*float64(interval))
		d := time.Duration(next - now())
		if d < minSleep || behind {
			d = minSleep
		}
		time.Sleep(d)
	}
}

// readCommands receives command frames until the socket closes. A
// command's arrival time is the kernel's receive stamp, so the reader's
// own wake-up is not counted.
func (g *generator) readCommands() {
	defer g.wg.Done()
	buf := make([]byte, 2048)
	oob := make([]byte, 128)
	var cmd wire.Command
	for {
		n, oobn, _, _, err := g.conn.ReadMsgUDP(buf, oob)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-g.stop:
				return
			case <-time.After(time.Millisecond):
			}
			continue
		}
		rt := time.Now()
		t, ok := rxStamp(oob[:oobn], rt)
		if !ok {
			t = int64(rt.Sub(base))
		}
		if err := wire.DecodeCommand(buf[:n], &cmd); err != nil {
			g.cmdErrs.Add(1)
			continue
		}
		var op uint8
		if len(cmd.Recs) > 0 {
			op = uint8(cmd.Recs[0].Op)
		}
		g.mu.Lock()
		g.cmds = append(g.cmds, cmdLog{at: t, node: cmd.Node, seq: cmd.Seq, op: op})
		g.mu.Unlock()
		g.cmdEpoch.Store(cmd.Epoch)
		if int(cmd.Node) < len(g.alive) && g.alive[cmd.Node].Load() && cmd.Seq > g.ackSeq[cmd.Node].Load() {
			g.ackSeq[cmd.Node].Store(cmd.Seq)
		}
		g.tr.add("cmd.recv", t, t, int64(cmd.Node), int64(cmd.Seq))
	}
}

// logs returns copies of the incident and command logs.
func (g *generator) logs() ([]incidentLog, []cmdLog) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]incidentLog(nil), g.incidents...), append([]cmdLog(nil), g.cmds...)
}
