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

# Just the lock-free hot-path benchmarks (README §Performance).
bench-hotpath:
	$(GO) test -run xxx -bench 'Heartbeat|MonitorBeat|ConcurrentCycle|WatchdogCycle' -benchmem -count=3 .

# Machine-readable benchmark suites under ./bench/ (gitignored): the
# cycle-sweep + hot-path suite, the telemetry suite, the wire/ingest
# suite (heartbeat + command codecs), the treatment-engine suite, the
# WAL suite (append hand-off + replay throughput) and the calibration
# suite (estimator sampling, Suggest derivation, beat-path parity).
# Override BENCHTIME for a quick smoke run: make bench-json BENCHTIME=1x
BENCHTIME ?= 1s
bench-json:
	mkdir -p bench
	$(GO) test -run xxx -bench 'CycleSweep|Heartbeat|MonitorBeat|ConcurrentCycle|WatchdogCycle' \
		-benchmem -benchtime $(BENCHTIME) . ./internal/core | tee bench/cycle.txt
	$(GO) run ./cmd/benchjson -o bench/BENCH_cycle.json bench/cycle.txt
	$(GO) test -run xxx -bench 'Snapshot|BeatWithStats|Journal' \
		-benchmem -benchtime $(BENCHTIME) . | tee bench/stats.txt
	$(GO) run ./cmd/benchjson -o bench/BENCH_stats.json bench/stats.txt
	$(GO) test -run xxx -bench 'WireDecode|WireEncode|CommandEncode|CommandDecode|IngestFrame' \
		-benchmem -benchtime $(BENCHTIME) ./internal/wire ./internal/ingest | tee bench/wire.txt
	$(GO) run ./cmd/benchjson -o bench/BENCH_wire.json bench/wire.txt
	$(GO) test -run xxx -bench 'TreatDecide' \
		-benchmem -benchtime $(BENCHTIME) ./internal/treat | tee bench/treat.txt
	$(GO) run ./cmd/benchjson -o bench/BENCH_treat.json bench/treat.txt
	$(GO) test -run xxx -bench 'IngestMT' \
		-benchmem -benchtime $(BENCHTIME) ./internal/ingest | tee bench/ingest_mt.txt
	$(GO) run ./cmd/benchjson -o bench/BENCH_ingest_mt.json bench/ingest_mt.txt
	$(GO) test -run xxx -bench 'WALHandoff|WALAppend|WALEncodeRecord|WALReplay' \
		-benchmem -benchtime $(BENCHTIME) ./internal/wal | tee bench/wal.txt
	$(GO) run ./cmd/benchjson -o bench/BENCH_wal.json bench/wal.txt
	$(GO) test -run xxx -bench 'CalibEstimatorSample|CalibSuggest|MonitorBeatCalib' \
		-benchmem -benchtime $(BENCHTIME) . | tee bench/calib.txt
	$(GO) run ./cmd/benchjson -o bench/BENCH_calib.json bench/calib.txt

# Regenerate one benchmark suite instead of all seven: pick SUITE from
# cycle, stats, wire, treat, ingest_mt, wal or calib. Refreshes only that
# suite's bench/BENCH_<suite>.json; copy it over the repo-root baseline
# by hand if the change is intentional.
# Example: make bench-suite SUITE=wal BENCHTIME=1x
SUITE ?= wal
bench-suite:
	mkdir -p bench
	@case "$(SUITE)" in \
	cycle)     pat='CycleSweep|Heartbeat|MonitorBeat|ConcurrentCycle|WatchdogCycle'; pkgs='. ./internal/core' ;; \
	stats)     pat='Snapshot|BeatWithStats|Journal'; pkgs='.' ;; \
	wire)      pat='WireDecode|WireEncode|CommandEncode|CommandDecode|IngestFrame'; pkgs='./internal/wire ./internal/ingest' ;; \
	treat)     pat='TreatDecide'; pkgs='./internal/treat' ;; \
	ingest_mt) pat='IngestMT'; pkgs='./internal/ingest' ;; \
	wal)       pat='WALHandoff|WALAppend|WALEncodeRecord|WALReplay'; pkgs='./internal/wal' ;; \
	calib)     pat='CalibEstimatorSample|CalibSuggest|MonitorBeatCalib'; pkgs='.' ;; \
	*) echo "unknown SUITE '$(SUITE)' (want cycle, stats, wire, treat, ingest_mt, wal or calib)"; exit 2 ;; \
	esac; \
	set -x; \
	$(GO) test -run xxx -bench "$$pat" -benchmem -benchtime $(BENCHTIME) $$pkgs | tee bench/$(SUITE).txt && \
	$(GO) run ./cmd/benchjson -o bench/BENCH_$(SUITE).json bench/$(SUITE).txt

# Refresh the committed baselines from a fresh full-length run: the
# per-suite documents at the repo root plus the merged gate baseline.
bench-baseline: bench-json
	cp bench/BENCH_cycle.json BENCH_cycle.json
	cp bench/BENCH_stats.json BENCH_stats.json
	cp bench/BENCH_wire.json BENCH_wire.json
	cp bench/BENCH_treat.json BENCH_treat.json
	cp bench/BENCH_ingest_mt.json BENCH_ingest_mt.json
	cp bench/BENCH_wal.json BENCH_wal.json
	cp bench/BENCH_calib.json BENCH_calib.json
	$(GO) run ./cmd/benchdiff -merge -o BENCH_baseline.json \
		bench/BENCH_cycle.json bench/BENCH_stats.json bench/BENCH_wire.json \
		bench/BENCH_treat.json bench/BENCH_ingest_mt.json bench/BENCH_wal.json \
		bench/BENCH_calib.json

# Benchmark-regression gate: fresh results vs the committed baseline.
# Fails on >30% ns/op regressions or any allocation on the gated
# zero-alloc hot paths (see cmd/benchdiff).
bench-gate: bench-json
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json \
		bench/BENCH_cycle.json bench/BENCH_stats.json bench/BENCH_wire.json \
		bench/BENCH_treat.json bench/BENCH_ingest_mt.json bench/BENCH_wal.json \
		bench/BENCH_calib.json

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
