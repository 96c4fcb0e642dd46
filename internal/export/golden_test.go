package export

// Golden-file tests pinning the Prometheus text output byte-for-byte.
// The exposition format is an external contract — dashboards, alerts
// and the CI smoke test all key on these exact series — so any change
// to a descriptor table must show up as a reviewed testdata diff. The
// README metric reference is checked against the same tables. Both are
// regenerated with:
//
//	go test ./internal/export -run TestGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swwd/internal/calib"
	"swwd/internal/core"
	"swwd/internal/fleet"
	"swwd/internal/ingest"
	"swwd/internal/treat"
	"swwd/internal/wal"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot is a fully populated deterministic core.Snapshot:
// every family WriteSnapshot renders has a non-zero value, including a
// sweep histogram with elided leading buckets and a saturated tail.
func goldenSnapshot() core.Snapshot {
	s := core.Snapshot{
		Cycle:    4242,
		Results:  core.Results{Aliveness: 7, ArrivalRate: 3, ProgramFlow: 2},
		ECUState: core.StateFaulty,
		Journal:  core.JournalStats{Len: 12, Cap: 256, Written: 268, Dropped: 12},
		Driver:   core.DriverStats{Ticks: 4240, MissedCycles: 2, Overruns: 1, MaxLateNs: 1_500_000},
		Runnables: []core.RunnableStats{
			{ID: 0, Active: true, Beats: 123456, AC: 3, ARC: 3, CCA: 9, CCAR: 9},
			{ID: 1, Active: false, Beats: 777, AC: 0, ARC: 0, CCA: 1, CCAR: 2,
				ErrAliveness: 5, ErrArrivalRate: 1},
			{ID: 2, Active: true, Beats: 31, ErrProgramFlow: 2, ErrAliveness: 2,
				ErrArrivalRate: 2},
		},
	}
	s.Sweep.Count = 100
	s.Sweep.SumNs = 5_000_000
	s.Sweep.MaxNs = 262_144
	s.Sweep.Buckets[14] = 60 // (8192, 16384] ns
	s.Sweep.Buckets[15] = 39
	s.Sweep.Buckets[18] = 1 // the max
	return s
}

func goldenIngest() ingest.Stats {
	return ingest.Stats{
		Counters: ingest.Counters{
			Frames: 100000, Bytes: 3200000, Accepted: 99000, DecodeErrors: 3,
			UnknownNode: 2, SeqGaps: 40, SeqGapEvents: 11, DuplicateDrops: 5,
			NodeRestarts: 1, StaleEpochDrops: 4, IntervalMismatch: 6,
			DroppedPackets: 7, BuffersExhausted: 1, ReadErrors: 2,
			CommandsSent: 50, CommandsAcked: 48, CommandsDropped: 2,
			CommandStaleAcks: 1,
		},
		Nodes: 4, Listeners: 2,
	}
}

func goldenTreat() treat.Stats {
	return treat.Stats{
		Events: 60, EventsDropped: 1, Quarantines: 9, Resumes: 7,
		ScaleDowns: 5, ScaleUps: 4, NotifyQuarantine: 9, RestartRunnables: 2,
		ActiveQuarantines: 2, ActiveScaledDown: 1, ExecErrors: 1,
	}
}

func goldenCalib() fleet.CalibStatus {
	return fleet.CalibStatus{
		Stage: calib.StageShadow, Rounds: 3, Rollbacks: 1, Rejected: 2,
		CanaryNodes: 1, PendingAcks: 2,
		Candidates: []fleet.CalibCandidate{
			{Runnable: 0, Node: 0,
				Hyp:       core.Hypothesis{AlivenessCycles: 20, MinHeartbeats: 3, ArrivalCycles: 20, MaxArrivals: 7},
				Shadow:    core.ShadowStats{Windows: 9, WouldAliveness: 1, WouldArrival: 0, CleanStreak: 4},
				HasShadow: true},
			{Runnable: 2, Node: 1,
				Hyp:     core.Hypothesis{AlivenessCycles: 20, MinHeartbeats: 2, ArrivalCycles: 20, MaxArrivals: 5},
				Applied: true},
		},
	}
}

func goldenWAL() wal.Stats {
	return wal.Stats{
		Appended: 5000, Dropped: 3, Written: 4990, Synced: 4980,
		SyncedSeq: 4980, Syncs: 120, BytesWritten: 620000, WriteErrors: 0,
		Rotations: 2, SegmentsRemoved: 1, Segments: 2, RingDepth: 7,
	}
}

func goldenPush() PushStats {
	return PushStats{
		Collected: 200, Delivered: 190, Retries: 12, Errors: 14,
		Dropped: 10, Backlog: 1,
	}
}

// checkGolden compares got against testdata/<name>, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file.\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenSnapshot(t *testing.T) {
	var b bytes.Buffer
	s := goldenSnapshot()
	WriteSnapshot(&b, &s, []string{"speed-sensor", "", "brake-ctrl"})
	checkGolden(t, "snapshot.prom", b.Bytes())
}

func TestGoldenIngest(t *testing.T) {
	var b bytes.Buffer
	WriteIngest(&b, goldenIngest())
	checkGolden(t, "ingest.prom", b.Bytes())
}

func TestGoldenIngestDetail(t *testing.T) {
	var b bytes.Buffer
	WriteIngestDetail(&b,
		[]ingest.ListenerStat{
			{Packets: 60000, Batches: 2000, MaxBatch: 32},
			{Packets: 40000, Batches: 1800, MaxBatch: 31},
		}, nil)
	checkGolden(t, "ingest_detail.prom", b.Bytes())
}

func TestGoldenTreat(t *testing.T) {
	var b bytes.Buffer
	WriteTreat(&b, goldenTreat())
	checkGolden(t, "treat.prom", b.Bytes())
}

func TestGoldenJournalSeq(t *testing.T) {
	var b bytes.Buffer
	WriteJournalSeq(&b, core.JournalStats{Len: 12, Cap: 256, Written: 268, Dropped: 12})
	checkGolden(t, "journal_seq.prom", b.Bytes())
}

func TestGoldenCalib(t *testing.T) {
	var b bytes.Buffer
	WriteCalib(&b, goldenCalib(), []string{"speed-sensor", "", "brake-ctrl"})
	checkGolden(t, "calib.prom", b.Bytes())
}

func TestGoldenWAL(t *testing.T) {
	var b bytes.Buffer
	WriteWAL(&b, goldenWAL())
	checkGolden(t, "wal.prom", b.Bytes())
}

func TestGoldenPush(t *testing.T) {
	var b bytes.Buffer
	WritePush(&b, goldenPush())
	checkGolden(t, "push.prom", b.Bytes())
}

// TestGoldenComposed pins the full composed exposition the swwdd
// exporter serves: snapshot + journal seq + ingest + detail + treat +
// WAL + push, in that order. Guards against a writer gaining output
// that only shows when families are concatenated.
func TestGoldenComposed(t *testing.T) {
	var b bytes.Buffer
	s := goldenSnapshot()
	WriteSnapshot(&b, &s, []string{"speed-sensor", "", "brake-ctrl"})
	WriteJournalSeq(&b, s.Journal)
	WriteIngest(&b, goldenIngest())
	WriteIngestDetail(&b,
		[]ingest.ListenerStat{{Packets: 60000, Batches: 2000, MaxBatch: 32}}, nil)
	WriteTreat(&b, goldenTreat())
	WriteWAL(&b, goldenWAL())
	WritePush(&b, goldenPush())
	checkGolden(t, "composed.prom", b.Bytes())
}

// TestLabelEscaping pins the label-value escaping of runnable names.
// Text format 0.0.4 defines only \\, \" and \n; every other byte,
// tab and non-ASCII included, goes out as it is (a Go-quoted \t or
// \u00a0 would make the whole scrape unparseable).
func TestLabelEscaping(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"quo\"te\\back\nline", "swwd_runnable_active{runnable=\"quo\\\"te\\\\back\\nline\"} 1\n"},
		{"tab\there", "swwd_runnable_active{runnable=\"tab\there\"} 1\n"},
		{"café", "swwd_runnable_active{runnable=\"café\"} 1\n"},
		{"nb\u00a0sp", "swwd_runnable_active{runnable=\"nb\u00a0sp\"} 1\n"},
	} {
		var b bytes.Buffer
		s := core.Snapshot{Runnables: []core.RunnableStats{{ID: 0, Active: true}}}
		WriteSnapshot(&b, &s, []string{tc.name})
		if !bytes.Contains(b.Bytes(), []byte(tc.want)) {
			t.Errorf("%q: escaped label line %q missing:\n%s", tc.name, tc.want, b.Bytes())
		}
	}
}

// metricReference renders the README's metric reference from the
// descriptor tables, in the order swwdd serves them.
func metricReference() string {
	var b strings.Builder
	b.WriteString("| family | type | labels | help |\n|---|---|---|---|\n")
	referenceRows(&b, snapshotFamilies)
	referenceRows(&b, journalSeqFamilies)
	referenceRows(&b, ingestFamilies)
	referenceRows(&b, ingestDetailFamilies)
	referenceRows(&b, treatFamilies)
	referenceRows(&b, calibFamilies)
	referenceRows(&b, candidateFamilies)
	referenceRows(&b, walFamilies)
	referenceRows(&b, pushFamilies)
	return b.String()
}

func referenceRows[S any](b *strings.Builder, t []family[S]) {
	for _, f := range t {
		var labels []string
		if f.fan != nil {
			labels = append(labels, f.fan.key)
		}
		if f.kinds != nil {
			key, _, _ := strings.Cut(f.kinds[0], "=")
			labels = append(labels, key)
		}
		if f.hist != nil {
			labels = append(labels, "le")
		}
		fmt.Fprintf(b, "| `%s` | %s | %s | %s |\n", f.name, f.typ, strings.Join(labels, ", "), strings.ReplaceAll(f.help, "|", `\|`))
	}
}

// TestGoldenReadmeReference fails when the README metric reference
// drifts from the descriptor tables; -update rewrites the section.
func TestGoldenReadmeReference(t *testing.T) {
	const path, begin, end = "../../README.md", "<!-- metric-reference:begin -->\n", "<!-- metric-reference:end -->"
	readme, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok1 := strings.Cut(string(readme), begin)
	section, tail, ok2 := strings.Cut(rest, end)
	if !ok1 || !ok2 {
		t.Fatalf("%s lacks the %q … %q anchors", path, begin, end)
	}
	want := metricReference()
	if *update {
		if err := os.WriteFile(path, []byte(head+begin+want+end+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if section != want {
		t.Fatalf("README metric reference drifted from the descriptor tables (regenerate with -update).\n got:\n%s\nwant:\n%s", section, want)
	}
}

// TestFamilyNamesUnique checks that no family is declared twice across
// the tables and that every name is a legal metric name.
func TestFamilyNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(metricReference()), "\n")[2:] {
		name := strings.Trim(strings.Fields(line)[1], "`")
		if seen[name] || !validName(name, true) || !strings.HasPrefix(name, "swwd_") {
			t.Errorf("family %q is duplicated or not a legal swwd_ name", name)
		}
		seen[name] = true
	}
}
