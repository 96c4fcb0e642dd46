package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"swwd/internal/core"
	"swwd/internal/export"
	"swwd/internal/ingest"
	"swwd/internal/runnable"
	"swwd/internal/sim"
	"swwd/internal/wal"
)

// TestHistoryWindow drives /history over a real (empty) WAL: a valid
// window replays, while an inverted window or a negative duration is
// refused with 400 — the validation query mode applies to -since and
// -until — instead of answering with an empty window or the whole log.
func TestHistoryWindow(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	w.AppendDelta(wal.Delta{Frames: 1})
	if err := w.Close(); err != nil {
		t.Fatalf("wal.Close: %v", err)
	}
	srv := httptest.NewServer(historyHandler(dir))
	defer srv.Close()
	for _, tc := range []struct {
		query string
		code  int
		body  string
	}{
		{"", http.StatusOK, `"records": 1`},
		{"?since=1h", http.StatusOK, `"records": 1`},
		{"?since=1h&until=1m", http.StatusOK, `"records": 0`},
		{"?since=5m&until=10m", http.StatusBadRequest, "must not be earlier than since"},
		{"?until=5m", http.StatusBadRequest, "must not be earlier than since"},
		{"?since=-5m", http.StatusBadRequest, "must not be negative"},
		{"?since=1h&until=-1m", http.StatusBadRequest, "must not be negative"},
		{"?since=soon", http.StatusBadRequest, "bad since"},
	} {
		resp, err := http.Get(srv.URL + tc.query)
		if err != nil {
			t.Fatalf("GET %q: %v", tc.query, err)
		}
		var b strings.Builder
		_, _ = io.Copy(&b, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(b.String(), tc.body) {
			t.Errorf("GET /history%s = %d %q, want %d containing %q", tc.query, resp.StatusCode, b.String(), tc.code, tc.body)
		}
	}
}

// smokeSpec is the one-runnable system the CI spec-mode smoke step runs.
const smokeSpec = `{
  "apps": [{"name": "Smoke", "criticality": "safety-critical", "tasks": [{
    "name": "SmokeTask", "priority": 10,
    "runnables": [{"name": "Sensor", "exec_time": "100us",
      "hypothesis": {"aliveness_cycles": 10, "min_heartbeats": 1,
                     "arrival_cycles": 10, "max_arrivals": 100}}]
  }]}],
  "watchdog": {"cycle_period": "10ms"}
}`

// TestSpecMode drives spec mode end to end without a real stdin or
// socket: runnable names arrive through a pipe, the HTTP surface is
// served by httptest, and the run ends at the pipe's EOF. The cycle
// probe must stay healthy while the Service runs and turn unhealthy
// once it has stopped.
func TestSpecMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "system.json")
	if err := os.WriteFile(path, []byte(smokeSpec), 0o644); err != nil {
		t.Fatal(err)
	}

	err := run(context.Background(), []string{"-spec", path, "-wal-dir", t.TempDir()},
		strings.NewReader(""), io.Discard, http.NewServeMux())
	if err == nil || !strings.Contains(err.Error(), "-wal-dir") {
		t.Fatalf("-spec with -wal-dir: err = %v, want an error naming -wal-dir", err)
	}

	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	stdin, beats := io.Pipe()
	var out bytes.Buffer // read only after run returns
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), []string{"-spec", path, "-quiet"}, stdin, &out, mux) }()
	for i := 0; i < 50; i++ {
		if _, err := io.WriteString(beats, "Sensor\n"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	code, body := get("/healthz")
	for code == http.StatusNotFound && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		code, body = get("/healthz")
	}
	time.Sleep(50 * time.Millisecond) // five cycle periods
	if code, body = get("/healthz"); code != http.StatusOK {
		t.Fatalf("running /healthz = %d %s, want 200", code, body)
	}

	beats.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	_, metrics := get("/metrics")
	var n uint64
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, `swwd_runnable_beats_total{runnable="Sensor"} `); ok {
			n, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	if n == 0 {
		t.Fatalf("no Sensor beats on /metrics:\n%s", metrics)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "swwdd: detections aliveness=") {
		t.Fatalf("output does not end with the detection summary:\n%s", out.String())
	}

	// The Service has stopped: probes five milliseconds apart keep
	// seeing the same cycle, and once two of them are two cycle periods
	// apart the cycle check fails.
	for i := 0; i < 12; i++ {
		get("/healthz")
		time.Sleep(5 * time.Millisecond)
	}
	code, body = get("/healthz")
	var rep struct{ Checks []export.Check }
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	if code != http.StatusServiceUnavailable || len(rep.Checks) != 1 || rep.Checks[0].Name != "cycle" || rep.Checks[0].Healthy {
		t.Fatalf("stopped /healthz = %d %s, want 503 with the cycle check unhealthy", code, body)
	}
}

// TestShipDeltasFinalInterval stops the delta shipper before its first
// tick and requires the WAL's replayed ingest totals to equal the
// server's final counters: the last partial interval is shipped on
// stop, not dropped.
func TestShipDeltasFinalInterval(t *testing.T) {
	m := runnable.NewModel()
	if err := m.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	w, err := core.New(core.Config{Model: m, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	srv, err := ingest.New(w)
	if err != nil {
		t.Fatalf("ingest.New: %v", err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	dir := t.TempDir()
	hist, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	stop := shipDeltas(srv, hist, time.Hour)

	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	const sent = 5
	for i := 0; i < sent; i++ {
		if _, err := conn.Write([]byte("not a frame")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Frames < sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d of %d datagrams", srv.Stats().Frames, sent)
		}
	}
	stop()
	if err := hist.Close(); err != nil {
		t.Fatalf("wal.Close: %v", err)
	}
	h, err := wal.Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got, want := h.View().Ingest, srv.Stats().Counters; got != want {
		t.Fatalf("replayed ingest totals %+v, want the final counters %+v", got, want)
	}
}
