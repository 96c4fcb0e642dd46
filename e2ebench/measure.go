package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// base is the origin of every timestamp the benchmark takes: now()
// reads the monotonic clock as nanoseconds since process start.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// cpuNs is the process's user+system CPU time in nanoseconds.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hist is a log-linear histogram with lock-free recording:
// 64 sub-buckets per power of two, about 1.1% relative resolution.
// Quantiles interpolate linearly inside the bucket they fall in.
type hist struct {
	counts [64 * 64]atomic.Uint64
}

const histSub = 64

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 7 // v >> exp lands in [64, 128)
	return (exp+1)*histSub + int(uint64(v)>>exp) - histSub
}

// histBounds returns the value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < 2*histSub {
		return float64(i), float64(i + 1)
	}
	exp := i/histSub - 1
	m := i%histSub + histSub
	return float64(uint64(m) << exp), float64(uint64(m+1) << exp)
}

func (h *hist) record(v int64) { h.counts[histIndex(v)].Add(1) }

func (h *hist) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
}

// quantile returns the q-quantile of the recorded values, or NaN when
// none were recorded.
func (h *hist) quantile(q float64) float64 {
	var counts [len(h.counts)]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, hi := histBounds(len(counts) - 1)
	return (lo + hi) / 2
}

// samples is a mutex-guarded list of rare-event measurements (cycles,
// faults, actions, scrapes): a few thousand per run at most.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	s.v = append(s.v, v)
	s.mu.Unlock()
}

func (s *samples) take() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile returns the q-quantile of v with linear interpolation
// between order statistics, or NaN for an empty slice.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile for an ascending slice.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// maxInt64 raises m to v if v is larger.
func maxInt64(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// span is one traced interval at a layer boundary. Spans of one frame
// share (node, key=seq). Fault, treatment action and command receipt
// spans are keyed by (node, incident): node is the node the span is
// about, key the index of the incident — the kill — that caused it, or
// -1. Cycle spans are keyed by the cycle number, scrape spans by their
// count, WAL spans by the WAL sequence number.
type span struct {
	name       string
	start, end int64
	node       int64
	key        int64
}

// tracer keeps spans in memory while on and writes them at exit.
// Recording is a bounded append; spans past the cap are counted.
type tracer struct {
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	dropped uint64
}

const maxSpans = 1 << 19

func (t *tracer) add(name string, start, end, node, key int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name, start, end, node, key})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// rekey replaces the key of every span called name with f(node, key).
func (t *tracer) rekey(name string, f func(node, key int64) int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if sp := &t.spans[i]; sp.name == name {
			sp.key = f(sp.node, sp.key)
		}
	}
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as tab-separated lines: name, start_ns,
// end_ns, node, key, ordered by start.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].start < t.spans[j].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# name\tstart_ns\tend_ns\tnode\tkey\n")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.node, s.key)
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "# dropped %d spans past the cap\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
