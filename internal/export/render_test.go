package export

import (
	"bytes"
	"strconv"
	"testing"

	"swwd/internal/core"
)

// fleetSnapshot is a snapshot of n runnables with every family
// non-zero. Every seventh name is empty, so the renderer's
// runnable-<id> fallback is on the measured path.
func fleetSnapshot(n int) (*core.Snapshot, []string) {
	s := goldenSnapshot()
	s.Runnables = make([]core.RunnableStats, n)
	names := make([]string, n)
	for i := range s.Runnables {
		s.Runnables[i] = core.RunnableStats{
			Active: i%3 != 0, Beats: uint64(i) * 1000,
			ErrAliveness: uint64(i % 5), ErrArrivalRate: uint64(i % 2), ErrProgramFlow: uint64(i % 3),
		}
		if i%7 != 0 {
			names[i] = "node" + strconv.Itoa(i/5) + "/r" + strconv.Itoa(i%5)
		}
	}
	return &s, names
}

// TestWriteSnapshotZeroAlloc pins the scrape cost: once the buffer has
// grown to the exposition's size, rendering a snapshot allocates
// nothing, name fallbacks included.
func TestWriteSnapshotZeroAlloc(t *testing.T) {
	s, names := fleetSnapshot(1000)
	var b bytes.Buffer
	WriteSnapshot(&b, s, names)
	allocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		WriteSnapshot(&b, s, names)
	})
	if allocs != 0 {
		t.Fatalf("WriteSnapshot on a warm buffer: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkWriteSnapshot renders the snapshot of a 25,005-runnable
// fleet (5,001 nodes × 4 runnables plus one link runnable each).
func BenchmarkWriteSnapshot(b *testing.B) {
	s, names := fleetSnapshot(25005)
	var buf bytes.Buffer
	WriteSnapshot(&buf, s, names)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		WriteSnapshot(&buf, s, names)
	}
}

// TestRenderBufferStaysNearSize pins the growth policy: a buffer that
// must grow for a slightly longer exposition grows by append's factor,
// not by doubling, so a scraper's retained buffer stays near the size
// of one exposition.
func TestRenderBufferStaysNearSize(t *testing.T) {
	s, names := fleetSnapshot(1000)
	var b bytes.Buffer
	WriteSnapshot(&b, s, names)
	for i := range s.Runnables {
		s.Runnables[i].Beats = s.Runnables[i].Beats*100 + 1
	}
	b.Reset()
	WriteSnapshot(&b, s, names)
	if b.Cap() > b.Len()*3/2 {
		t.Fatalf("buffer grew to %d bytes for a %d-byte exposition", b.Cap(), b.Len())
	}
}
