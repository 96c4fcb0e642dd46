// Package export is the telemetry-export layer: it renders watchdog
// telemetry as Prometheus text exposition format 0.0.4 with no client
// library. Every family is one row of a descriptor table (families.go),
// and one renderer appends the rows into the caller's bytes.Buffer with
// strconv.Append*, so a warm buffer renders with no allocation. The
// golden files in testdata pin the output byte for byte; the README
// metric reference is generated from the same tables. Exporter serves
// the exposition on /metrics for both modes of cmd/swwdd and
// feeds the push client (Pusher), which retries with backoff and counts
// what it drops.
package export

import (
	"bytes"
	"strconv"

	"swwd/internal/core"
)

// family is one row of a descriptor table: a metric family rendered
// from a source of type S, a stats struct or a view that bundles one
// with runnable names.
type family[S any] struct {
	name, typ, help string
	// fan, when set, repeats the family's samples once per item.
	fan *fanout[S]
	// kinds are fixed label pairs such as kind="aliveness", one sample
	// each (per item under fan) after the fan-out label.
	kinds []string
	// val returns the sample of item i and kind j. Integer stats are
	// counts, depths or enums, never negative.
	val func(s S, i, j int) uint64
	// float, when set, replaces val: one sample rendered like %g.
	float func(S) float64
	// hist, when set, replaces val: a cumulative histogram in seconds.
	hist func(S) *core.HistogramSnapshot
}

// fanout repeats a family's samples over the items of a source, each
// labelled key="label".
type fanout[S any] struct {
	key   string
	n     func(S) int
	label func(b []byte, s S, i int) []byte // appends the escaped value
	skip  func(s S, i int) bool             // optional: item i has no samples
}

func counter[S any](name, help string, get func(S) uint64) family[S] {
	return family[S]{name: name, typ: "counter", help: help, val: func(s S, _, _ int) uint64 { return get(s) }}
}

func gauge[S any](name, help string, get func(S) uint64) family[S] {
	return family[S]{name: name, typ: "gauge", help: help, val: func(s S, _, _ int) uint64 { return get(s) }}
}

// render appends the families of table t for source s to b. It appends
// to b's own bytes and hands the result back to b, so a buffer that has
// held the exposition before renders it again without allocating, and
// one that must grow does so by append's factor in place of
// bytes.Buffer's doubling: a scraper's buffer stays near the size of
// one exposition.
func render[S any](b *bytes.Buffer, t []family[S], s S) {
	out := b.Bytes()
	for i := range t {
		out = t[i].append(out, s)
	}
	*b = *bytes.NewBuffer(out)
}

func (f *family[S]) append(b []byte, s S) []byte {
	b = append(append(append(append(b, "# HELP "...), f.name...), ' '), f.help...)
	b = append(append(append(append(b, "\n# TYPE "...), f.name...), ' '), f.typ...)
	b = append(b, '\n')
	switch {
	case f.hist != nil:
		return appendHist(b, f.name, f.hist(s))
	case f.float != nil:
		return appendFloat(append(b, f.name...), f.float(s))
	}
	n := 1
	if f.fan != nil {
		n = f.fan.n(s)
	}
	for i := 0; i < n; i++ {
		if f.fan != nil && f.fan.skip != nil && f.fan.skip(s, i) {
			continue
		}
		for j := 0; j < max(len(f.kinds), 1); j++ {
			b = append(b, f.name...)
			sep := byte('{')
			if f.fan != nil {
				b = f.fan.label(append(append(append(b, sep), f.fan.key...), '=', '"'), s, i)
				b, sep = append(b, '"'), ','
			}
			if f.kinds != nil {
				b, sep = append(append(b, sep), f.kinds[j]...), ','
			}
			if sep == ',' {
				b = append(b, '}')
			}
			b = appendUint(b, f.val(s, i, j))
		}
	}
	return b
}

// appendHist renders h in cumulative Prometheus form. Buckets below the
// first observation and the saturated tail above the last one are
// elided; the +Inf bucket completes the series, so the exposition stays
// a handful of lines around the observed range.
func appendHist(b []byte, name string, h *core.HistogramSnapshot) []byte {
	var cum uint64
	for i := 0; i < core.HistBuckets; i++ {
		if cum += h.Buckets[i]; cum == 0 {
			continue
		}
		b = append(append(b, name...), `_bucket{le="`...)
		b = strconv.AppendFloat(b, float64(core.HistBucketBound(i))/1e9, 'g', -1, 64)
		if b = appendUint(append(b, `"}`...), cum); cum == h.Count {
			break
		}
	}
	b = appendUint(append(append(b, name...), `_bucket{le="+Inf"}`...), h.Count)
	b = appendFloat(append(append(b, name...), "_sum"...), float64(h.SumNs)/1e9)
	return appendUint(append(append(b, name...), "_count"...), h.Count)
}

// appendUint and appendFloat finish a sample line with its value; the
// float form matches fmt's %g.
func appendUint(b []byte, v uint64) []byte {
	return append(strconv.AppendUint(append(b, ' '), v, 10), '\n')
}

func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(append(b, ' '), v, 'g', -1, 64), '\n')
}

// appendName appends the label value of runnable id: its escaped name,
// or runnable-<id> when the name table has none.
func appendName(b []byte, names []string, id int) []byte {
	if id < len(names) && names[id] != "" {
		return appendLabelValue(b, names[id])
	}
	return strconv.AppendInt(append(b, "runnable-"...), int64(id), 10)
}

// appendIndex labels item i with its decimal index.
func appendIndex[S any](b []byte, _ S, i int) []byte { return strconv.AppendInt(b, int64(i), 10) }

// appendLabelValue appends v escaped as a label value. Text format
// 0.0.4 defines exactly three escapes, \\, \" and \n; every other byte
// goes out as it is.
func appendLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
