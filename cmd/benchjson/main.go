// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document (the `make bench-json` backend that
// produces BENCH_cycle.json). It reads benchmark lines from stdin or from
// the files given as arguments, parses the standard testing.B output
// format, and writes a JSON object carrying the environment header
// (goos/goarch/pkg/cpu), a host block describing the machine it runs
// on, plus one record per benchmark result:
//
//	go test -run xxx -bench CycleSweep -benchmem . | benchjson -o BENCH_cycle.json
//
// Exits non-zero when no benchmark lines were found, so CI fails loudly
// on a typo'd -bench regexp instead of uploading an empty artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -cpu suffix (e.g. "BenchmarkCycleSweep/n=1000/impl=wheel-8").
	Name string `json:"name"`
	// Iterations is b.N of the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op figure.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are present when -benchmem was set.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Extra holds any additional unit pairs (e.g. MB/s, custom
	// b.ReportMetric units), keyed by unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Doc is the output document.
type Doc struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Host describes the machine benchjson ran on; `make bench-json`
	// converts each suite right after running it, on the same host.
	Host    *Host    `json:"host,omitempty"`
	Results []Result `json:"results"`
}

// Host is the host block, in the shape of the e2ebench run metadata, so
// a reader (and cmd/benchdiff) can tell whether two documents were
// measured on the same machine.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	CPUModel   string `json:"cpu_model"`
}

// hostInfo describes the running host. The CPU model comes from
// /proc/cpuinfo, else from the benchmark output's cpu: line, else it
// reads "unknown".
func hostInfo(benchCPU string) *Host {
	model := cpuModel()
	if model == "" {
		model = benchCPU
	}
	if model == "" {
		model = "unknown"
	}
	return &Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   model,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchjson [-o out.json] [file...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var doc Doc
	if flag.NArg() == 0 {
		if err := parse(&doc, os.Stdin); err != nil {
			fatal(err)
		}
	} else {
		for _, name := range flag.Args() {
			f, err := os.Open(name)
			if err != nil {
				fatal(err)
			}
			err = parse(&doc, f)
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
		}
	}
	if len(doc.Results) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	doc.Host = hostInfo(doc.CPU)

	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(doc.Results), *out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// parse consumes one `go test -bench` text stream.
func parse(doc *Doc, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseLine(line); ok {
				doc.Results = append(doc.Results, res)
			}
		}
	}
	return sc.Err()
}

// parseLine parses one benchmark result line of the form
//
//	BenchmarkName-8  1000000  1234 ns/op  56 B/op  7 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters}
	seenNs := false
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
			seenNs = true
		case "B/op":
			b := v
			res.BytesPerOp = &b
		case "allocs/op":
			a := v
			res.AllocsPerOp = &a
		default:
			if res.Extra == nil {
				res.Extra = make(map[string]float64)
			}
			res.Extra[unit] = v
		}
	}
	return res, seenNs
}
