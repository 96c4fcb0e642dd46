// Campaign-level tests: the named library against fixed seeds, the
// broken-oracle canary proving oracles are not vacuous, and the
// randomized nightly-style gate.
//
// Environment knobs (all optional):
//
//	SWWD_CHAOS_SEEDS  comma-separated seeds for the named campaigns
//	                  (default one fixed seed; CI smoke passes its own)
//	SWWD_CHAOS=1      enables the randomized gate (TestChaosRandomized)
//	SWWD_CHAOS_RUNS   randomized campaign count (default 10)
//	SWWD_CHAOS_SEED   root seed for the randomized gate — set it to the
//	                  seed a failing run printed to reproduce that run
//	SWWD_CHAOS_OUT    directory for per-campaign JSON result artifacts
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// chaosSeeds returns the fixed seeds the named campaigns run under.
func chaosSeeds(t *testing.T) []uint64 {
	t.Helper()
	raw := os.Getenv("SWWD_CHAOS_SEEDS")
	if raw == "" {
		raw = os.Getenv("SWWD_CHAOS_SEED")
	}
	if raw == "" {
		return []uint64{0xC0FFEE}
	}
	var seeds []uint64
	for _, part := range strings.Split(raw, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(part), 0, 64)
		if err != nil {
			t.Fatalf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// runScenario executes one scenario, failing the test on any oracle
// violation, and re-derives the plan to prove it is a pure function of
// the seed.
func runScenario(t *testing.T, sc *Scenario, rebuild func() *Scenario) *Result {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("campaign %s (seed %#x): %v", sc.Name, sc.Seed, err)
	}
	if len(res.Violations) > 0 {
		t.Logf("plan:\n%s", res.Plan)
		t.Logf("delta: %+v", res.Delta)
		for _, v := range res.Violations {
			t.Errorf("oracle violation: %s", v)
		}
		t.Fatalf("campaign %s failed under seed %#x — reproduce with SWWD_CHAOS_SEED=%#x", sc.Name, sc.Seed, sc.Seed)
	}
	if rebuild != nil {
		if again := rebuild(); again.Plan() != res.Plan {
			t.Fatalf("plan is not a pure function of the seed:\n--- first\n%s--- second\n%s", res.Plan, again.Plan())
		}
	}
	writeArtifact(t, res)
	return res
}

// writeArtifact dumps the run's Result as JSON when SWWD_CHAOS_OUT is
// set — the nightly workflow uploads the directory on failure.
func writeArtifact(t *testing.T, res *Result) {
	t.Helper()
	dir := os.Getenv("SWWD_CHAOS_OUT")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("SWWD_CHAOS_OUT: %v", err)
	}
	name := strings.NewReplacer("/", "_", "#", "_").Replace(res.Name)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%x.json", name, res.Seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write artifact: %v", err)
	}
}

// TestChaosCampaigns runs every named campaign under each configured
// seed. Deterministic: same seeds, same plans, same verdicts.
func TestChaosCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns skipped in -short mode")
	}
	for _, seed := range chaosSeeds(t) {
		for i, b := range Named() {
			i, b := i, b
			campaignSeed := Derive(seed, uint64(i))
			t.Run(fmt.Sprintf("%s/seed=%#x", b.Name, seed), func(t *testing.T) {
				runScenario(t, b.Build(campaignSeed), func() *Scenario { return b.Build(campaignSeed) })
			})
		}
	}
}

// TestChaosBrokenOracle proves the oracles are not vacuous: a healthy
// baseline run checked against a deliberately wrong oracle — expecting
// a fault on a healthy node and movement on an untouched counter —
// must produce violations.
func TestChaosBrokenOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaigns skipped in -short mode")
	}
	sc, err := Build("baseline-quiet", 0xBAD0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sc.Oracle.MustFaultLink = []uint32{0}
	sc.Oracle.NonZero = append(sc.Oracle.NonZero, "duplicate_drops")
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var wrongFault, wrongCounter bool
	for _, v := range res.Violations {
		if strings.Contains(v, "node 0 link raised no aliveness fault") {
			wrongFault = true
		}
		if strings.Contains(v, "duplicate_drops = 0") {
			wrongCounter = true
		}
	}
	if !wrongFault || !wrongCounter {
		t.Fatalf("broken oracle was not caught: violations = %v", res.Violations)
	}
}

// TestOracleTreatmentGauges pins the gauge oracle every treatment
// campaign runs: the controller's active gauges must equal the
// quarantined and scaled-down counts of the engine replayed over its
// trace, and a gauge that drifted from the engine is a violation.
func TestOracleTreatmentGauges(t *testing.T) {
	res := &Result{HasTreatment: true, ReplayQuarantined: 1, ReplayScaledDown: 2}
	res.TreatStats.ActiveQuarantines, res.TreatStats.ActiveScaledDown = 1, 2
	var o Oracle
	if v := o.Check(res); len(v) != 0 {
		t.Fatalf("matching gauges: violations = %v", v)
	}
	res.TreatStats.ActiveScaledDown = 3
	v := o.Check(res)
	if len(v) != 1 || !strings.Contains(v[0], "treatment gauges read 1 quarantined / 3 scaled down") {
		t.Fatalf("drifted gauge: violations = %v", v)
	}
}

// TestChaosRandomized is the nightly-style gate: SWWD_CHAOS_RUNS
// generated campaigns from one root seed, every decision derived from
// it, the seed printed so one env var reproduces a failure.
func TestChaosRandomized(t *testing.T) {
	if os.Getenv("SWWD_CHAOS") == "" {
		t.Skip("randomized chaos gate disabled; set SWWD_CHAOS=1")
	}
	runs := 10
	if raw := os.Getenv("SWWD_CHAOS_RUNS"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			t.Fatalf("bad SWWD_CHAOS_RUNS %q", raw)
		}
		runs = n
	}
	root := uint64(time.Now().UnixNano())
	if raw := os.Getenv("SWWD_CHAOS_SEED"); raw != "" {
		s, err := strconv.ParseUint(raw, 0, 64)
		if err != nil {
			t.Fatalf("bad SWWD_CHAOS_SEED %q: %v", raw, err)
		}
		root = s
	}
	t.Logf("chaos root seed %#x — reproduce with: SWWD_CHAOS=1 SWWD_CHAOS_RUNS=%d SWWD_CHAOS_SEED=%#x go test -run TestChaosRandomized ./internal/chaos", root, runs, root)
	for i := 0; i < runs; i++ {
		seed := Derive(root, uint64(i))
		sc := RandomScenario(seed)
		t.Run(fmt.Sprintf("%03d-%s", i, sc.Name), func(t *testing.T) {
			runScenario(t, sc, func() *Scenario { return RandomScenario(seed) })
		})
	}
}
