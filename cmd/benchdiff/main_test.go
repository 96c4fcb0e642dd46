package main

import (
	"regexp"
	"strings"
	"testing"
)

func res(name string, ns float64, allocs ...float64) Result {
	r := Result{Name: name, Iterations: 1000, NsPerOp: ns}
	if len(allocs) > 0 {
		a := allocs[0]
		r.AllocsPerOp = &a
	}
	return r
}

func failTexts(failures []string) string { return strings.Join(failures, "\n") }

// TestGateFailsOnPerturbedBaseline is the acceptance proof for the CI
// gate: the same measurements compared against a baseline perturbed
// beyond the threshold must fail, and within it must pass.
func TestGateFailsOnPerturbedBaseline(t *testing.T) {
	zre := regexp.MustCompile(DefaultZeroAlloc)
	current := []Result{
		res("BenchmarkMonitorBeat-2", 8.0, 0),
		res("BenchmarkWireDecode-2", 128.0, 0),
		res("BenchmarkIngestFrame-2", 222.0, 0),
		res("BenchmarkCycleSweep/n=1000-2", 5000.0, 3),
	}

	// Identical baseline (recorded on a different core count): clean pass.
	baseline := []Result{
		res("BenchmarkMonitorBeat-8", 8.0, 0),
		res("BenchmarkWireDecode-8", 128.0, 0),
		res("BenchmarkIngestFrame-8", 222.0, 0),
		res("BenchmarkCycleSweep/n=1000-8", 5000.0, 3),
	}
	if _, failures := compare(baseline, current, 0.30, zre); len(failures) != 0 {
		t.Fatalf("identical results failed the gate: %s", failTexts(failures))
	}

	// Baseline perturbed so current looks >30% slower: gate must fail.
	perturbed := []Result{
		res("BenchmarkMonitorBeat-8", 8.0/1.5, 0), // current is +50%
		res("BenchmarkWireDecode-8", 128.0, 0),
		res("BenchmarkIngestFrame-8", 222.0, 0),
		res("BenchmarkCycleSweep/n=1000-8", 5000.0, 3),
	}
	rows, failures := compare(perturbed, current, 0.30, zre)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkMonitorBeat") {
		t.Fatalf("perturbed baseline: failures = %q, want one MonitorBeat regression", failures)
	}
	var found bool
	for _, r := range rows {
		if r.Name == "BenchmarkMonitorBeat" && r.Status == "REGRESSION" && r.Fail {
			found = true
		}
	}
	if !found {
		t.Fatalf("no REGRESSION row for MonitorBeat: %+v", rows)
	}

	// Perturbation inside the threshold (+25%): still passes.
	mild := []Result{
		res("BenchmarkMonitorBeat-8", 8.0/1.25, 0),
		res("BenchmarkWireDecode-8", 128.0, 0),
		res("BenchmarkIngestFrame-8", 222.0, 0),
		res("BenchmarkCycleSweep/n=1000-8", 5000.0, 3),
	}
	if _, failures := compare(mild, current, 0.30, zre); len(failures) != 0 {
		t.Fatalf("+25%% drift failed the ±30%% gate: %s", failTexts(failures))
	}
}

func TestZeroAllocGate(t *testing.T) {
	zre := regexp.MustCompile(DefaultZeroAlloc)
	baseline := []Result{res("BenchmarkWireDecode-8", 128.0, 0)}

	// Any allocation on a gated benchmark fails, even if ns/op improved.
	_, failures := compare(baseline, []Result{res("BenchmarkWireDecode-2", 100.0, 1)}, 0.30, zre)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Fatalf("1 alloc/op on gated bench: failures = %q", failures)
	}

	// Missing -benchmem data on a gated benchmark fails too.
	_, failures = compare(baseline, []Result{res("BenchmarkWireDecode-2", 128.0)}, 0.30, zre)
	if len(failures) != 1 || !strings.Contains(failures[0], "-benchmem") {
		t.Fatalf("missing benchmem: failures = %q", failures)
	}

	// A bench run that matches nothing gated must not silently pass.
	_, failures = compare(nil, []Result{res("BenchmarkUnrelated-2", 1.0, 0)}, 0.30, zre)
	if len(failures) != 1 || !strings.Contains(failures[0], "zero-alloc gate") {
		t.Fatalf("regexp drift: failures = %q", failures)
	}

	// Ungated benchmarks may allocate freely.
	_, failures = compare(nil, []Result{
		res("BenchmarkWireDecode-2", 128.0, 0),
		res("BenchmarkJournalDrain-2", 900.0, 12),
	}, 0.30, zre)
	if len(failures) != 0 {
		t.Fatalf("ungated allocs failed the gate: %s", failTexts(failures))
	}

	// The snapshot gate covers only the reused-buffer variant: the
	// reuse=false path allocates the caller's buffer by design.
	_, failures = compare(nil, []Result{
		res("BenchmarkWireDecode-2", 128.0, 0),
		res("BenchmarkSnapshot/n=64/reuse=true-2", 1600.0, 0),
		res("BenchmarkSnapshot/n=64/reuse=false-2", 2700.0, 1),
	}, 0.30, zre)
	if len(failures) != 0 {
		t.Fatalf("reuse=false alloc tripped the gate: %s", failTexts(failures))
	}
	_, failures = compare(nil, []Result{
		res("BenchmarkSnapshot/n=64/reuse=true-2", 1600.0, 1),
	}, 0.30, zre)
	if len(failures) != 1 {
		t.Fatalf("reuse=true alloc escaped the gate: %q", failures)
	}
}

func TestCompareStatuses(t *testing.T) {
	baseline := []Result{
		res("BenchmarkA-8", 100.0),
		res("BenchmarkGone-8", 50.0),
	}
	current := []Result{
		res("BenchmarkA-2", 60.0),  // -40%: faster, never a failure
		res("BenchmarkNew-2", 7.0), // no baseline
	}
	rows, failures := compare(baseline, current, 0.30, nil)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %s", failTexts(failures))
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Name] = r.Status
	}
	want := map[string]string{"BenchmarkA": "faster", "BenchmarkNew": "new", "BenchmarkGone": "missing"}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("status[%s] = %q, want %q (all: %v)", k, got[k], v, got)
		}
	}
	table := markdown(rows, 0.30, nil, nil)
	for _, needle := range []string{"| BenchmarkA |", "faster", "missing", "benchmark gate", "±30%"} {
		if !strings.Contains(strings.ToLower(table), strings.ToLower(needle)) {
			t.Fatalf("markdown table lacks %q:\n%s", needle, table)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"BenchmarkMonitorBeat-8":          "BenchmarkMonitorBeat",
		"BenchmarkCycleSweep/n=1000-16":   "BenchmarkCycleSweep/n=1000",
		"BenchmarkNoSuffix":               "BenchmarkNoSuffix",
		"BenchmarkSub/case=a-b-2":         "BenchmarkSub/case=a-b",
		"BenchmarkCycleSweep/shards=4-64": "BenchmarkCycleSweep/shards=4",
	}
	for in, want := range cases {
		if got := normalize(in); got != want {
			t.Fatalf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHostBlocks pins the host check: the table prints both blocks, a
// document without one reads "unknown", and a mismatch is flagged as
// cross-host without failing the gate.
func TestHostBlocks(t *testing.T) {
	dev := &Host{NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", GOOS: "linux/amd64", CPUModel: "Intel(R) Xeon(R) Processor @ 2.10GHz"}
	same := *dev
	other := *dev
	other.NProc, other.GOMAXPROCS = 8, 8
	cases := []struct {
		name       string
		base, cur  *Host
		want       string
		wantInText []string
	}{
		{"same", dev, &same, "same host", []string{"baseline host: nproc=2 gomaxprocs=2 go=go1.24.0 goos=linux/amd64", "hosts: same host"}},
		{"cross", dev, &other, "cross-host", []string{"current host: nproc=8 gomaxprocs=8", "hosts: cross-host"}},
		{"no block", nil, dev, "unknown", []string{"baseline host: unknown", "hosts: unknown"}},
	}
	rows, failures := compare([]Result{res("BenchmarkA-8", 100.0)}, []Result{res("BenchmarkA-2", 100.0)}, 0.30, nil)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %s", failTexts(failures))
	}
	for _, tc := range cases {
		if got := hostMatch(tc.base, tc.cur); got != tc.want {
			t.Fatalf("%s: hostMatch = %q, want %q", tc.name, got, tc.want)
		}
		table := markdown(rows, 0.30, tc.base, tc.cur)
		for _, needle := range tc.wantInText {
			if !strings.Contains(table, needle) {
				t.Fatalf("%s: table lacks %q:\n%s", tc.name, needle, table)
			}
		}
	}
}
