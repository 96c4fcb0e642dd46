// Command benchdiff is the benchmark-regression gate: it compares fresh
// benchjson documents against the committed BENCH_baseline.json and
// fails when the hot paths got slower or started allocating.
//
// Gate mode (the default) loads the baseline, merges the given current
// documents, matches results by name (with the testing.B `-NCPU` suffix
// stripped, so a baseline recorded on an 8-core box still matches a
// 2-core CI runner) and renders a markdown delta table:
//
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json bench/BENCH_*.json
//
// The gate fails (exit 1) when
//
//   - a matched benchmark's ns/op regressed beyond -threshold (default
//     0.30, i.e. +30%) — improvements and modest noise never fail;
//   - a result whose name matches -zero-alloc reports a non-zero
//     allocs/op, or was run without -benchmem — the lock-free hot paths
//     (MonitorBeat, Snapshot, WireDecode, IngestFrame) must stay at
//     exactly zero allocations at any threshold;
//   - no current result matches -zero-alloc at all, so a typo'd bench
//     regexp cannot silently disarm the alloc gate.
//
// Baseline-only benchmarks are reported as "missing" and new ones as
// "new"; neither fails the gate, keeping baseline refreshes and bench
// additions decoupled. The table opens with the host blocks of the
// baseline and of the current documents (cmd/benchjson records one) and
// flags a mismatch as "cross-host": the ns/op deltas then compare two
// machines as well as two trees. A document without a block reads
// "unknown". The host check informs; it never fails the gate. With -summary the table is appended to the given
// file (pass "$GITHUB_STEP_SUMMARY" in CI for a job-summary panel).
//
// Merge mode assembles the committed baseline from per-suite documents:
//
//	go run ./cmd/benchdiff -merge -o BENCH_baseline.json \
//	    bench/BENCH_cycle.json bench/BENCH_stats.json bench/BENCH_wire.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// Result mirrors the benchjson record (cmd/benchjson).
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Doc mirrors the benchjson document.
type Doc struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Host    *Host    `json:"host,omitempty"`
	Results []Result `json:"results"`
}

// Host mirrors the benchjson host block.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	CPUModel   string `json:"cpu_model"`
}

// String renders the block on one line; a missing block reads "unknown".
func (h *Host) String() string {
	if h == nil {
		return "unknown"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s goos=%s cpu_model=%q", h.NProc, h.GOMAXPROCS, h.Go, h.GOOS, h.CPUModel)
}

// hostMatch compares two host blocks: "same host", "cross-host", or
// "unknown" when either document has none.
func hostMatch(base, cur *Host) string {
	switch {
	case base == nil || cur == nil:
		return "unknown"
	case *base == *cur:
		return "same host"
	default:
		return "cross-host"
	}
}

// DefaultZeroAlloc names the benchmarks whose allocs/op must be zero:
// the heartbeat hot path, the reused-buffer snapshot path (reuse=false
// legitimately allocates the caller's buffer once), the wire/ingest
// frame paths, the reporter-side command decode (runs on every
// received command with a reused record buffer), the WAL producer
// paths (ring hand-off and append, which run inside the journal and
// treatment sinks) and the /metrics render of a retained snapshot.
const DefaultZeroAlloc = `MonitorBeat|Snapshot/.*reuse=true|WireDecode|IngestFrame|CommandDecode|WALHandoff|WALAppend|WriteSnapshot`

// cpuSuffix is testing.B's GOMAXPROCS name suffix (`BenchmarkFoo-8`).
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// normalize strips the -NCPU suffix so results match across machines.
func normalize(name string) string {
	return cpuSuffix.ReplaceAllString(name, "")
}

// Row is one line of the delta table.
type Row struct {
	Name             string
	BaseNs, CurNs    float64
	Delta            float64 // (cur-base)/base; meaningful when both sides exist
	CurAllocs        *float64
	Status           string // "ok" | "faster" | "REGRESSION" | "ALLOCS" | "new" | "missing"
	Fail             bool
	ZeroAllocChecked bool
}

// compare matches current results against the baseline and applies the
// threshold and zero-alloc policies. It returns the table rows (sorted
// by name) and the list of failure messages; an empty list means the
// gate passes.
func compare(baseline, current []Result, threshold float64, zeroAlloc *regexp.Regexp) ([]Row, []string) {
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		base[normalize(r.Name)] = r
	}
	var rows []Row
	var failures []string
	seen := make(map[string]bool, len(current))
	zeroMatched := false
	for _, cur := range current {
		name := normalize(cur.Name)
		if seen[name] {
			continue // first result wins when -count>1 streams repeat
		}
		seen[name] = true
		row := Row{Name: name, CurNs: cur.NsPerOp, CurAllocs: cur.AllocsPerOp, Status: "ok"}

		if zeroAlloc != nil && zeroAlloc.MatchString(name) {
			zeroMatched = true
			row.ZeroAllocChecked = true
			switch {
			case cur.AllocsPerOp == nil:
				row.Status, row.Fail = "ALLOCS", true
				failures = append(failures, fmt.Sprintf("%s: no allocs/op reported (run with -benchmem); zero-alloc gate cannot pass", name))
			case *cur.AllocsPerOp != 0:
				row.Status, row.Fail = "ALLOCS", true
				failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op, hot path must stay at 0", name, *cur.AllocsPerOp))
			}
		}

		if b, ok := base[name]; ok && b.NsPerOp > 0 {
			row.BaseNs = b.NsPerOp
			row.Delta = (cur.NsPerOp - b.NsPerOp) / b.NsPerOp
			if !row.Fail {
				switch {
				case row.Delta > threshold:
					row.Status, row.Fail = "REGRESSION", true
					failures = append(failures, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (%+.1f%% > +%.0f%%)",
						name, cur.NsPerOp, b.NsPerOp, 100*row.Delta, 100*threshold))
				case row.Delta < -threshold:
					row.Status = "faster"
				}
			}
		} else if !row.Fail {
			row.Status = "new"
		}
		rows = append(rows, row)
	}
	for name, b := range base {
		if !seen[name] {
			rows = append(rows, Row{Name: name, BaseNs: b.NsPerOp, Status: "missing"})
		}
	}
	if zeroAlloc != nil && !zeroMatched {
		failures = append(failures, fmt.Sprintf("no current benchmark matches the zero-alloc gate %q — bench regexp drift?", zeroAlloc))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, failures
}

// markdown renders the host blocks and the delta table.
func markdown(rows []Row, threshold float64, baseHost, curHost *Host) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Benchmark gate (threshold ±%.0f%%)\n\n", 100*threshold)
	fmt.Fprintf(&b, "- baseline host: %s\n- current host: %s\n- hosts: %s\n\n", baseHost, curHost, hostMatch(baseHost, curHost))
	b.WriteString("| benchmark | baseline ns/op | current ns/op | delta | allocs/op | status |\n")
	b.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		base, cur, delta, allocs := "—", "—", "—", "—"
		if r.BaseNs > 0 {
			base = fmt.Sprintf("%.1f", r.BaseNs)
		}
		if r.Status != "missing" {
			cur = fmt.Sprintf("%.1f", r.CurNs)
			if r.BaseNs > 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*r.Delta)
			}
			if r.CurAllocs != nil {
				allocs = fmt.Sprintf("%.0f", *r.CurAllocs)
			}
		}
		status := r.Status
		if r.ZeroAllocChecked && !r.Fail {
			status += " (0-alloc gated)"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n", r.Name, base, cur, delta, allocs, status)
	}
	return b.String()
}

func main() {
	baseline := flag.String("baseline", "", "baseline benchjson document to gate against")
	threshold := flag.Float64("threshold", 0.30, "relative ns/op regression that fails the gate")
	zeroAlloc := flag.String("zero-alloc", DefaultZeroAlloc, "regexp of benchmarks whose allocs/op must be 0 (empty disables)")
	summary := flag.String("summary", "", "append the markdown table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	merge := flag.Bool("merge", false, "merge mode: concatenate the input documents into -o")
	out := flag.String("o", "", "merge mode: output file (default stdout)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff -baseline BENCH_baseline.json current.json...\n"+
			"       benchdiff -merge -o BENCH_baseline.json part.json...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *merge {
		if err := mergeDocs(*out, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	if *baseline == "" {
		fatal(fmt.Errorf("-baseline is required (or use -merge)"))
	}
	baseDoc, err := loadDoc(*baseline)
	if err != nil {
		fatal(err)
	}
	var current []Result
	var curHost *Host
	for _, name := range flag.Args() {
		doc, err := loadDoc(name)
		if err != nil {
			fatal(err)
		}
		current = append(current, doc.Results...)
		if curHost == nil {
			curHost = doc.Host
		}
	}
	var zre *regexp.Regexp
	if *zeroAlloc != "" {
		zre, err = regexp.Compile(*zeroAlloc)
		if err != nil {
			fatal(fmt.Errorf("-zero-alloc: %w", err))
		}
	}

	rows, failures := compare(baseDoc.Results, current, *threshold, zre)
	table := markdown(rows, *threshold, baseDoc.Host, curHost)
	fmt.Print(table)
	if *summary != "" {
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		_, werr := f.WriteString(table + "\n")
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: gate FAILED:\n")
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  - %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: gate passed (%d benchmarks compared, hosts: %s)\n", len(rows), hostMatch(baseDoc.Host, curHost))
}

// mergeDocs concatenates input documents, keeping the first document's
// environment header and deduplicating by normalized name (first wins).
func mergeDocs(out string, names []string) error {
	var merged Doc
	seen := make(map[string]bool)
	for i, name := range names {
		doc, err := loadDoc(name)
		if err != nil {
			return err
		}
		if i == 0 {
			merged.GOOS, merged.GOARCH, merged.Pkg, merged.CPU, merged.Host = doc.GOOS, doc.GOARCH, doc.Pkg, doc.CPU, doc.Host
		}
		for _, r := range doc.Results {
			if n := normalize(r.Name); !seen[n] {
				seen[n] = true
				merged.Results = append(merged.Results, r)
			}
		}
	}
	if len(merged.Results) == 0 {
		return fmt.Errorf("merge produced no results")
	}
	enc, err := json.MarshalIndent(&merged, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
		return nil
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchdiff: merged %d results into %s\n", len(merged.Results), out)
	return nil
}

func loadDoc(name string) (*Doc, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &doc, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(1)
}
