package core

import (
	"testing"
	"unsafe"
)

// Compile-time layout assertions: the hot-path structs are sized to exact
// cache-line multiples so adjacent array elements never share a line
// (hotState spans two lines to also defeat adjacent-line prefetching;
// predReg spans one). A zero-length array with a negative
// length is a compile error, so each pair of declarations pins the size
// from both sides — growing or shrinking any struct breaks the build
// here, next to the explanation, instead of silently reintroducing false
// sharing.
var (
	_ [unsafe.Sizeof(hotState{}) - 2*cacheLineSize]byte
	_ [2*cacheLineSize - unsafe.Sizeof(hotState{})]byte

	_ [unsafe.Sizeof(predReg{}) - cacheLineSize]byte
	_ [cacheLineSize - unsafe.Sizeof(predReg{})]byte
)

// TestHotLayout reports the sizes so a failing compile-time assertion is
// easy to diagnose with `go test -run TestHotLayout -v`.
func TestHotLayout(t *testing.T) {
	if got := unsafe.Sizeof(hotState{}); got != 2*cacheLineSize {
		t.Errorf("sizeof(hotState) = %d, want %d", got, 2*cacheLineSize)
	}
	if got := unsafe.Sizeof(predReg{}); got != cacheLineSize {
		t.Errorf("sizeof(predReg) = %d, want %d", got, cacheLineSize)
	}
	// Every field an aliveness close reads or writes lies on hotState's
	// first cache line, so a due window costs the sweep one line.
	var h hotState
	for _, f := range []struct {
		name string
		off  uintptr
	}{
		{"beats", unsafe.Offsetof(h.beats)},
		{"active", unsafe.Offsetof(h.active)},
		{"hyp", unsafe.Offsetof(h.hyp)},
		{"aliveBase", unsafe.Offsetof(h.aliveBase)},
		{"aliveAnchor", unsafe.Offsetof(h.aliveAnchor)},
		{"aliveDue", unsafe.Offsetof(h.aliveDue)},
		{"aliveLoc", unsafe.Offsetof(h.aliveLoc)},
	} {
		if f.off >= cacheLineSize {
			t.Errorf("offset of hotState.%s = %d, want < %d", f.name, f.off, cacheLineSize)
		}
	}
}

// loadAC returns the live Aliveness Counter. Requires w.mu.
func (h *hotState) loadAC() uint32 { return uint32(h.beats.Load() - h.aliveBase) }
