package core

import (
	"testing"
	"unsafe"

	"swwd/internal/sim"
)

// Compile-time layout assertions: the hot-path structs are sized to exactly
// one cache line so adjacent array elements never share a line. hotState
// holds the beat path's words and the aliveness sweep state; the arrival
// and shadow sweep state lives in the parallel coldSched slice, which only
// lock holders touch. A zero-length array with a negative length is a
// compile error, so each pair of declarations pins the size from both
// sides — growing or shrinking either struct breaks the build here, next
// to the explanation, instead of silently reintroducing false sharing or
// a second line per due window.
var (
	_ [unsafe.Sizeof(hotState{}) - cacheLineSize]byte
	_ [cacheLineSize - unsafe.Sizeof(hotState{})]byte

	_ [unsafe.Sizeof(predReg{}) - cacheLineSize]byte
	_ [cacheLineSize - unsafe.Sizeof(predReg{})]byte
)

// TestHotLayout reports the sizes so a failing compile-time assertion is
// easy to diagnose with `go test -run TestHotLayout -v`.
func TestHotLayout(t *testing.T) {
	if got := unsafe.Sizeof(hotState{}); got != cacheLineSize {
		t.Errorf("sizeof(hotState) = %d, want %d", got, cacheLineSize)
	}
	if got := unsafe.Sizeof(predReg{}); got != cacheLineSize {
		t.Errorf("sizeof(predReg) = %d, want %d", got, cacheLineSize)
	}
	// Every field the beat path or an aliveness close reads or writes
	// lies on hotState's one cache line, so a beat and a due aliveness
	// window each cost one line.
	var h hotState
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"beats", unsafe.Offsetof(h.beats), unsafe.Sizeof(h.beats)},
		{"active", unsafe.Offsetof(h.active), unsafe.Sizeof(h.active)},
		{"tid", unsafe.Offsetof(h.tid), unsafe.Sizeof(h.tid)},
		{"eagerAt", unsafe.Offsetof(h.eagerAt), unsafe.Sizeof(h.eagerAt)},
		{"hyp", unsafe.Offsetof(h.hyp), unsafe.Sizeof(h.hyp)},
		{"aliveBase", unsafe.Offsetof(h.aliveBase), unsafe.Sizeof(h.aliveBase)},
		{"aliveAnchor", unsafe.Offsetof(h.aliveAnchor), unsafe.Sizeof(h.aliveAnchor)},
		{"aliveDue", unsafe.Offsetof(h.aliveDue), unsafe.Sizeof(h.aliveDue)},
		{"aliveLoc", unsafe.Offsetof(h.aliveLoc), unsafe.Sizeof(h.aliveLoc)},
	} {
		if f.off+f.size > cacheLineSize {
			t.Errorf("hotState.%s spans bytes [%d, %d), want within the first %d", f.name, f.off, f.off+f.size, cacheLineSize)
		}
	}
}

// TestRunnableFootprint pins core's per-runnable memory at fleet scale
// (5001 tasks × 5 runnables): the structural size of the slices New
// allocates per runnable — the hot lines, the cold sweep records, the
// task index and the error-indication vectors — stays within 128 bytes
// per runnable.
func TestRunnableFootprint(t *testing.T) {
	m, _ := fleetModel(t, 5001)
	w, err := New(Config{Model: m, Clock: sim.NewManualClock()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := m.NumRunnables()
	got := uintptr(cap(w.hot))*unsafe.Sizeof(hotState{}) +
		uintptr(cap(w.cold))*unsafe.Sizeof(coldSched{}) +
		uintptr(cap(w.taskOf))*unsafe.Sizeof(w.taskOf[0]) +
		uintptr(cap(w.errv))*unsafe.Sizeof(w.errv[0])
	if got > 128*uintptr(n) {
		t.Fatalf("per-runnable slices hold %d bytes at %d runnables (%.1f per runnable), want at most 128 per runnable", got, n, float64(got)/float64(n))
	}
	t.Logf("%d runnables: %d bytes, %.1f per runnable", n, got, float64(got)/float64(n))
}

// loadAC returns the live Aliveness Counter. Requires w.mu.
func (h *hotState) loadAC() uint32 { return uint32(h.beats.Load() - h.aliveBase) }
