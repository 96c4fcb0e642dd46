GO ?= go

.PHONY: all build vet test test-short race bench bench-hotpath bench-json bench-suite bench-baseline bench-gate soak soak-scale wal-soak chaos chaos-smoke cover experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector run, including the Beat/Cycle/Activate stress tests.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The lock-free hot-path benchmarks and the 25k-runnable cycle sweep, the
# two users of core's per-runnable hotState layout (README §Performance).
bench-hotpath:
	$(GO) test -run xxx -bench 'Heartbeat|MonitorBeat|ConcurrentCycle|WatchdogCycle' -benchmem -count=3 .
	$(GO) test -run xxx -bench 'CycleSweep/n=25000' -benchmem -count=3 ./internal/core

# Machine-readable benchmark suites under ./bench/ (gitignored): the
# cycle-sweep + hot-path suite, the telemetry suite, the wire/ingest
# suite (heartbeat + command codecs), the treatment suite (policy
# engine and live controller), the multi-socket ingest + fleet set-up
# suite (BenchmarkFleetBuild reports ns/node at 10k and 100k nodes), the
# WAL suite (append hand-off + replay throughput) and the calibration
# suite (estimator sampling, Suggest derivation, beat-path parity). Each suite is one row below:
# <suite>_BENCH is its -bench pattern, <suite>_PKGS its packages, and
# it lands in bench/BENCH_<suite>.json.
SUITES := cycle stats wire treat ingest_mt wal calib
cycle_BENCH     := CycleSweep|Heartbeat|MonitorBeat|ConcurrentCycle|WatchdogCycle|AddFlowSequence|LockWait
cycle_PKGS      := . ./internal/core
stats_BENCH     := Snapshot|BeatWithStats|Journal
stats_PKGS      := . ./internal/export
wire_BENCH      := WireDecode|WireEncode|CommandEncode|CommandDecode|IngestFrame
wire_PKGS       := ./internal/wire ./internal/ingest
treat_BENCH     := TreatDecide|TreatController
treat_PKGS      := ./internal/treat
ingest_mt_BENCH := IngestMT|FleetBuild
ingest_mt_PKGS  := ./internal/ingest ./internal/fleet
wal_BENCH       := WALHandoff|WALAppend|WALEncodeRecord|WALReplay
wal_PKGS        := ./internal/wal
calib_BENCH     := CalibEstimatorSample|CalibSuggest|MonitorBeatCalib
calib_PKGS      := .
SUITE_JSON := $(SUITES:%=bench/BENCH_%.json)

# bench-run runs suite $(1) into bench/$(1).txt and converts it to
# bench/BENCH_$(1).json.
define bench-run
$(GO) test -run xxx -bench '$($(1)_BENCH)' -benchmem -benchtime $(BENCHTIME) $($(1)_PKGS) | tee bench/$(1).txt
$(GO) run ./cmd/benchjson -o bench/BENCH_$(1).json bench/$(1).txt

endef

# Override BENCHTIME for a quick smoke run: make bench-json BENCHTIME=1x
BENCHTIME ?= 1s
bench-json:
	mkdir -p bench
	$(foreach s,$(SUITES),$(call bench-run,$(s)))

# Regenerate one benchmark suite instead of all seven: pick SUITE from
# $(SUITES). Refreshes only that suite's bench/BENCH_<suite>.json; copy
# it over the repo-root baseline by hand if the change is intentional.
# Example: make bench-suite SUITE=wal BENCHTIME=1x
SUITE ?= wal
bench-suite:
	@$(if $(filter $(SUITE),$(SUITES)),true,echo "unknown SUITE '$(SUITE)' (want one of: $(SUITES))"; exit 2)
	mkdir -p bench
	$(call bench-run,$(SUITE))

# Refresh the committed baselines from a fresh full-length run: the
# per-suite documents at the repo root plus the merged gate baseline.
bench-baseline: bench-json
	for s in $(SUITES); do cp bench/BENCH_$$s.json BENCH_$$s.json; done
	$(GO) run ./cmd/benchdiff -merge -o BENCH_baseline.json $(SUITE_JSON)

# Benchmark-regression gate: fresh results vs the committed baseline.
# Fails on >30% ns/op regressions or any allocation on the gated
# zero-alloc hot paths (see cmd/benchdiff).
bench-gate: bench-json
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json $(SUITE_JSON)

# Smoke-tier loopback soak: 1000 swwdclient nodes x 10 runnables over
# real UDP, with a mid-run client kill (see internal/ingest/soak_test.go),
# plus the treatment soak: kill + quarantine + scale-down + recovery over
# the wire v3 command channel (see internal/fleet/treat_soak_test.go).
soak:
	$(GO) test -run 'TestIngestSoak|TestIngestTreatSoak' -count=1 -v ./internal/ingest ./internal/fleet

# WAL crash soak: repeated kill -9 mid-group-commit + recovery rounds
# verifying every acknowledged record survives bit-identically (see
# internal/wal/crash_test.go).
wal-soak:
	SWWD_WAL_SOAK=1 $(GO) test -run TestWALCrashSoak -count=1 -v -timeout 10m ./internal/wal

# Scaled soak: 100k synthetic nodes through the SO_REUSEPORT +
# recvmmsg read path (see internal/ingest/soak_mt_test.go). Un-raced by
# design — the fleet does not fit the race runtime.
soak-scale:
	SWWD_SOAK_SCALE=1 $(GO) test -run TestIngestScaledSoak -count=1 -v -timeout 15m ./internal/ingest

# Deterministic chaos smoke: every named campaign under fixed seeds
# (see internal/chaos/campaigns.go). Override the seed set with
# SWWD_CHAOS_SEEDS (comma-separated) or a single SWWD_CHAOS_SEED; add
# -race via GOFLAGS, e.g. make chaos-smoke GOFLAGS=-race
SWWD_CHAOS_SEEDS ?= 1,2,3
chaos-smoke:
	SWWD_CHAOS_SEEDS=$(SWWD_CHAOS_SEEDS) \
		$(GO) test -run 'TestChaosCampaigns|TestChaosBrokenOracle' -count=1 -v -timeout 20m ./internal/chaos

# Randomized nightly-style chaos gate: CHAOS_RUNS generated campaigns
# from one root seed. The run prints the root seed; re-running with
# SWWD_CHAOS_SEED=<that seed> reproduces the identical plans and
# verdicts. SWWD_CHAOS_OUT collects per-campaign JSON artifacts.
CHAOS_RUNS ?= 10
chaos:
	SWWD_CHAOS=1 SWWD_CHAOS_RUNS=$(CHAOS_RUNS) \
		$(GO) test -run TestChaosRandomized -count=1 -v -timeout 30m ./internal/chaos

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments

# Run all example programs (each terminates on its own).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/safespeed
	$(GO) run ./examples/safelane
	$(GO) run ./examples/gateway
	$(GO) run ./examples/specfile
	$(GO) run ./examples/calibrate

clean:
	rm -f cover.out test_output.txt
	rm -rf bench
