package export

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubCollector is a test collect function producing numbered payloads.
func stubCollector() (func(*bytes.Buffer), *atomic.Uint64) {
	var n atomic.Uint64
	return func(b *bytes.Buffer) {
		b.WriteString("swwd_test_payload ")
		b.WriteString(time.Duration(n.Add(1)).String()) // deterministic, distinct
		b.WriteString("\n")
	}, &n
}

func TestPushDelivers(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	var contentTypes []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(body))
		contentTypes = append(contentTypes, r.Header.Get("Content-Type"))
		mu.Unlock()
	}))
	defer srv.Close()

	collect, _ := stubCollector()
	p, err := NewPusher(PushConfig{
		URL: srv.URL, Collect: collect, Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Delivered < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	p.Stop()

	st := p.Stats()
	if st.Delivered < 3 {
		t.Fatalf("delivered %d payloads, want >= 3 (stats %+v)", st.Delivered, st)
	}
	if st.Errors != 0 || st.Dropped != 0 {
		t.Fatalf("unexpected errors/drops: %+v", st)
	}
	if !p.Healthy() {
		t.Fatal("healthy sink reports unhealthy")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, body := range bodies {
		if !strings.HasPrefix(body, "swwd_test_payload ") {
			t.Fatalf("payload %d malformed: %q", i, body)
		}
		if contentTypes[i] != contentType {
			t.Fatalf("payload %d content type %q", i, contentTypes[i])
		}
	}
}

func TestPushRetriesThenDelivers(t *testing.T) {
	var calls atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "not yet", http.StatusServiceUnavailable)
			return
		}
	}))
	defer srv.Close()

	collect, _ := stubCollector()
	p, err := NewPusher(PushConfig{
		URL: srv.URL, Collect: collect,
		Interval: time.Hour, // collector will not fire; we inject directly
		Retries:  5, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.wg.Add(1)
	go p.sender()
	p.queue <- []byte("swwd_test_payload 1\n")
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Delivered == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(p.stop)
	p.wg.Wait()

	st := p.Stats()
	if st.Delivered != 1 {
		t.Fatalf("delivered %d, want 1 (stats %+v)", st.Delivered, st)
	}
	if st.Errors != 2 || st.Retries != 2 {
		t.Fatalf("want 2 errors and 2 retries before success, got %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
}

func TestPushDropsAfterRetryBudget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	defer srv.Close()

	collect, _ := stubCollector()
	p, err := NewPusher(PushConfig{
		URL: srv.URL, Collect: collect,
		Interval: time.Hour, Retries: 2, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.wg.Add(1)
	go p.sender()
	p.queue <- []byte("doomed\n")
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Dropped == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(p.stop)
	p.wg.Wait()

	st := p.Stats()
	if st.Dropped != 1 {
		t.Fatalf("dropped %d, want 1 (stats %+v)", st.Dropped, st)
	}
	if st.Errors != 3 { // initial attempt + 2 retries
		t.Fatalf("errors %d, want 3 (stats %+v)", st.Errors, st)
	}
	if st.Delivered != 0 {
		t.Fatalf("unexpected delivery: %+v", st)
	}
}

func TestPushBacklogEvictsOldest(t *testing.T) {
	collect, _ := stubCollector()
	p, err := NewPusher(PushConfig{
		URL: "http://127.0.0.1:0/unreachable", Collect: collect,
		Interval: time.Hour, Backlog: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No sender goroutine: the queue only fills. Replicate the
	// collector's evict-oldest enqueue and verify eviction accounting
	// and freshest-wins order.
	for _, s := range []string{"a", "b", "c", "d"} {
		buf := []byte(s)
		for {
			select {
			case p.queue <- buf:
			default:
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
	if got := p.Stats().Dropped; got != 2 {
		t.Fatalf("dropped %d, want 2", got)
	}
	if got := string(<-p.queue); got != "c" {
		t.Fatalf("oldest surviving payload %q, want %q", got, "c")
	}
	if got := string(<-p.queue); got != "d" {
		t.Fatalf("next payload %q, want %q", got, "d")
	}
	if p.Healthy() && p.Stats().Dropped > 0 {
		t.Fatal("sink that dropped before first delivery reports healthy")
	}
}

// TestPushHealthyDefaultInterval pins the probe's staleness to the
// pusher's own effective cadence: built with Interval 0 (the default
// cadence), a fresh delivery is healthy and one older than four default
// intervals is not.
func TestPushHealthyDefaultInterval(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	collect, _ := stubCollector()
	p, err := NewPusher(PushConfig{URL: srv.URL, Collect: collect, Interval: 0})
	if err != nil {
		t.Fatal(err)
	}
	p.deliver([]byte("swwd_test_payload 1\n"))
	if st := p.Stats(); st.Delivered != 1 || !p.Healthy() {
		t.Fatalf("after one delivery: Healthy() = %v, stats %+v; want healthy", p.Healthy(), st)
	}
	p.lastPush.Store(time.Now().Add(-4*DefaultPushInterval - time.Second).UnixNano())
	if p.Healthy() {
		t.Fatal("delivery older than four default intervals reports healthy")
	}
}

func TestPushConfigValidation(t *testing.T) {
	collect, _ := stubCollector()
	if _, err := NewPusher(PushConfig{Collect: collect}); err == nil {
		t.Fatal("missing URL accepted")
	}
	if _, err := NewPusher(PushConfig{URL: "http://x"}); err == nil {
		t.Fatal("missing Collect accepted")
	}
}
