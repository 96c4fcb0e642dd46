package export

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swwd/internal/core"
)

// TestExporterComposes checks that the exporter serves the snapshot
// families, the journal sequence head and then each writer's families,
// the same bytes on the pull and the push path.
func TestExporterComposes(t *testing.T) {
	names := []string{"speed-sensor", "", "brake-ctrl"}
	snap := goldenSnapshot()
	fills := 0
	exp := NewExporter(func(s *core.Snapshot) { fills++; *s = snap }, names,
		func(b *bytes.Buffer) { WriteIngest(b, goldenIngest()) })

	var want bytes.Buffer
	WriteSnapshot(&want, &snap, names)
	WriteJournalSeq(&want, snap.Journal)
	WriteIngest(&want, goldenIngest())

	rec := httptest.NewRecorder()
	exp.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("served exposition differs:\n%s\nwant:\n%s", rec.Body.Bytes(), want.Bytes())
	}
	out := bytes.NewBufferString("prefix\n")
	exp.Render(out)
	if got := strings.TrimPrefix(out.String(), "prefix\n"); got != want.String() {
		t.Fatalf("Render did not append the exposition:\n%s", out.Bytes())
	}
	if fills != 2 {
		t.Fatalf("snapshot refilled %d times for 2 renders", fills)
	}
}

// TestExporterStartPush checks that the push sink delivers the
// exposition and that its own accounting joins the exposition.
func TestExporterStartPush(t *testing.T) {
	bodies := make(chan string, 16)
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		select {
		case bodies <- string(body):
		default:
		}
	}))
	defer srv.Close()

	exp := NewExporter(func(s *core.Snapshot) { s.Cycle = 7 }, nil)
	p, err := exp.StartPush(srv.URL, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	select {
	case body := <-bodies:
		if !strings.Contains(body, "\nswwd_cycles_total 7\n") || !strings.Contains(body, "\nswwd_push_collected_total ") {
			t.Fatalf("pushed payload lacks the snapshot or push families:\n%s", body)
		}
		if err := checkExposition(body); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no payload pushed")
	}
	if _, err := exp.StartPush("", 0); err == nil {
		t.Fatal("StartPush accepted an empty URL")
	}
	var b bytes.Buffer
	exp.Render(&b)
	if n := strings.Count(b.String(), "# TYPE swwd_push_collected_total "); n != 1 {
		t.Fatalf("push families rendered %d times, want once", n)
	}
}
