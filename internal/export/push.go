package export

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the push half of the export layer: a Pusher
// periodically renders a payload via a caller-supplied collect function
// and delivers it to an HTTP endpoint as Prometheus text. Collection
// and delivery are decoupled by a bounded backlog so a slow or dead
// collector endpoint never blocks the process being observed: when the
// backlog is full the oldest payload is dropped and counted, matching
// the WAL's drop-don't-block discipline. Delivery retries transient
// failures with exponential backoff before declaring the payload lost.

// contentType is the Prometheus text exposition media type the pull
// endpoints serve and the Pusher posts.
const contentType = "text/plain; version=0.0.4; charset=utf-8"

// Push defaults, chosen so an unconfigured Pusher is gentle: one
// payload per interval, a short backlog, and well under a second of
// retrying before giving a payload up.
const (
	DefaultPushInterval = 5 * time.Second
	DefaultPushTimeout  = 2 * time.Second
	DefaultPushBacklog  = 8
	DefaultPushRetries  = 3
	DefaultPushBackoff  = 100 * time.Millisecond
)

// PushConfig configures a Pusher.
type PushConfig struct {
	// URL is the endpoint POSTed to. Required.
	URL string
	// Collect renders one payload into buf. Required. It is called from
	// the Pusher's collector goroutine once per interval.
	Collect func(buf *bytes.Buffer)
	// Interval is the collection cadence (default DefaultPushInterval).
	Interval time.Duration
	// Timeout bounds one delivery attempt (default DefaultPushTimeout).
	Timeout time.Duration
	// Backlog is the number of collected payloads buffered while the
	// sender retries (default DefaultPushBacklog). When full, the oldest
	// payload is dropped so the backlog always holds the freshest data.
	Backlog int
	// Retries is the number of re-attempts after a failed delivery
	// before the payload is dropped. Zero means DefaultPushRetries;
	// negative disables retrying entirely.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default DefaultPushBackoff).
	Backoff time.Duration
	// Client overrides the HTTP client (its Timeout wins over Timeout).
	Client *http.Client
}

// PushStats is a point-in-time copy of a Pusher's counters.
type PushStats struct {
	// Collected counts payloads rendered; Delivered the payloads
	// accepted by the endpoint with a 2xx status.
	Collected uint64
	Delivered uint64
	// Retries counts re-attempts after a failed delivery; Errors the
	// individual failed attempts (network error or non-2xx status).
	Retries uint64
	Errors  uint64
	// Dropped counts payloads lost — evicted from a full backlog or
	// abandoned after the retry budget.
	Dropped uint64
	// Backlog is the number of payloads currently queued; LastPushNs the
	// wall clock of the last successful delivery (Unix ns, 0 = never).
	Backlog    int
	LastPushNs int64
}

// Pusher periodically collects a payload and POSTs it, decoupled by a
// bounded backlog. Create with NewPusher, then Start; Stop flushes
// nothing (pending payloads are abandoned) and returns once both
// goroutines exited.
type Pusher struct {
	cfg    PushConfig
	client *http.Client
	queue  chan []byte
	stop   chan struct{}
	wg     sync.WaitGroup

	collected atomic.Uint64
	delivered atomic.Uint64
	retries   atomic.Uint64
	errors    atomic.Uint64
	dropped   atomic.Uint64
	lastPush  atomic.Int64
}

// NewPusher builds a Pusher from cfg, applying defaults. It does not
// start goroutines; call Start.
func NewPusher(cfg PushConfig) (*Pusher, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("export: push URL required")
	}
	if cfg.Collect == nil {
		return nil, fmt.Errorf("export: push Collect required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultPushInterval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultPushTimeout
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = DefaultPushBacklog
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultPushRetries
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultPushBackoff
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	return &Pusher{
		cfg:    cfg,
		client: client,
		queue:  make(chan []byte, cfg.Backlog),
		stop:   make(chan struct{}),
	}, nil
}

// Start launches the collector and sender goroutines.
func (p *Pusher) Start() {
	p.wg.Add(2)
	go p.collector()
	go p.sender()
}

// Stop terminates both goroutines and waits for them. Queued payloads
// are abandoned (the process is exiting; the next run re-collects).
func (p *Pusher) Stop() {
	close(p.stop)
	p.wg.Wait()
}

// Stats returns a point-in-time copy of the counters.
func (p *Pusher) Stats() PushStats {
	return PushStats{
		Collected:  p.collected.Load(),
		Delivered:  p.delivered.Load(),
		Retries:    p.retries.Load(),
		Errors:     p.errors.Load(),
		Dropped:    p.dropped.Load(),
		Backlog:    len(p.queue),
		LastPushNs: p.lastPush.Load(),
	}
}

// Healthy reports whether the sink keeps up: a delivery succeeded
// within four push intervals (or none was due yet) and the backlog is
// not full.
func (p *Pusher) Healthy() bool {
	if len(p.queue) == cap(p.queue) {
		return false
	}
	last := p.lastPush.Load()
	if last == 0 {
		// Nothing delivered yet: healthy until the first delivery is
		// overdue, judged by whether anything has been dropped.
		return p.dropped.Load() == 0
	}
	return time.Now().UnixNano()-last < int64(4*p.cfg.Interval)
}

// collector renders one payload per interval and enqueues it, evicting
// the oldest queued payload when the backlog is full.
func (p *Pusher) collector() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	var buf bytes.Buffer
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		buf.Reset()
		p.cfg.Collect(&buf)
		payload := append([]byte(nil), buf.Bytes()...)
		p.collected.Add(1)
		for {
			select {
			case p.queue <- payload:
			default:
				// Full: evict the oldest so the queue trends fresh.
				select {
				case <-p.queue:
					p.dropped.Add(1)
				default:
				}
				continue
			}
			break
		}
	}
}

// sender delivers queued payloads, retrying with exponential backoff.
func (p *Pusher) sender() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case payload := <-p.queue:
			p.deliver(payload)
		}
	}
}

// deliver attempts one payload up to 1+Retries times.
func (p *Pusher) deliver(payload []byte) {
	backoff := p.cfg.Backoff
	for attempt := 0; ; attempt++ {
		if p.post(payload) {
			p.delivered.Add(1)
			p.lastPush.Store(time.Now().UnixNano())
			return
		}
		p.errors.Add(1)
		if attempt >= p.cfg.Retries {
			p.dropped.Add(1)
			return
		}
		select {
		case <-p.stop:
			p.dropped.Add(1)
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		p.retries.Add(1)
	}
}

// post performs one HTTP delivery attempt.
func (p *Pusher) post(payload []byte) bool {
	req, err := http.NewRequest(http.MethodPost, p.cfg.URL, bytes.NewReader(payload))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}
