package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
