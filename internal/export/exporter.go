package export

import (
	"bytes"
	"net/http"
	"sync"
	"time"

	"swwd/internal/core"
)

// Exporter renders one exposition for both the pull endpoint
// (ServeHTTP) and a push sink (Render). Each render refills a retained
// snapshot, writes the snapshot and journal-sequence families, then
// every extra writer's families, into one reused buffer behind a mutex,
// so a scrape allocates only the HTTP plumbing and never touches the
// heartbeat hot path.
type Exporter struct {
	snapshot func(*core.Snapshot)
	names    []string

	mu      sync.Mutex // guards writers, snap and buf across renders
	writers []func(*bytes.Buffer)
	snap    core.Snapshot
	buf     bytes.Buffer
}

// NewExporter returns an exporter of the snapshot that snapshot fills
// (Service.SnapshotInto or Watchdog.SnapshotInto), its runnables
// labelled by names, followed by the writers' families in order.
func NewExporter(snapshot func(*core.Snapshot), names []string, writers ...func(*bytes.Buffer)) *Exporter {
	return &Exporter{snapshot: snapshot, names: names, writers: writers}
}

// StartPush starts a Pusher that delivers the exposition to url every
// interval (0 selects DefaultPushInterval) and appends the pusher's own
// accounting to the exposition. The caller stops the pusher.
func (e *Exporter) StartPush(url string, interval time.Duration) (*Pusher, error) {
	p, err := NewPusher(PushConfig{URL: url, Interval: interval, Collect: e.Render})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.writers = append(e.writers, func(b *bytes.Buffer) { WritePush(b, p.Stats()) })
	e.mu.Unlock()
	p.Start()
	return p, nil
}

// Render appends the full exposition to out.
func (e *Exporter) Render(out *bytes.Buffer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out.Write(e.renderLocked())
}

// ServeHTTP serves the exposition as Prometheus text format 0.0.4.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	e.mu.Lock()
	defer e.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(e.renderLocked())
}

func (e *Exporter) renderLocked() []byte {
	e.snapshot(&e.snap)
	e.buf.Reset()
	WriteSnapshot(&e.buf, &e.snap, e.names)
	WriteJournalSeq(&e.buf, e.snap.Journal)
	for _, w := range e.writers {
		w(&e.buf)
	}
	return e.buf.Bytes()
}
