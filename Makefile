# Convenience targets for the Phoenix reproduction.

GO ?= go

.PHONY: all build test race vet ci bench bench-hotpath docs-check smoke nightly nightly-report results-check experiments figures clean

all: build test

# Everything CI runs, in the same order (see .github/workflows/ci.yml).
ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/...
	$(MAKE) bench-hotpath
	$(MAKE) smoke
	$(MAKE) docs-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Full benchmark harness: one bench per paper table/figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path microbenchmarks, one iteration each: a cheap CI smoke that the
# match cache, streaming counts, candidate lookup, central placement,
# probe sampling and the heartbeat's CRV reads (each beside its in-run
# reference) still compile, run, and report their allocation profiles.
bench-hotpath:
	$(GO) test -run '^$$' -bench 'MatchCache|Satisfying|CandidateWorkers|CentralPlacement|SampleWorkers|HeartbeatCRV' -benchtime=1x -benchmem ./internal/cluster/ ./internal/sched/ .

# Godoc coverage gate: fail on any exported identifier without a doc
# comment in the gated packages (docs-check's defaultDirs is the single
# source of truth for the list).
docs-check:
	$(GO) run ./cmd/docs-check

# CLI smoke: each run drives a CLI surface end to end and must complete
# (every phoenix-sim run with the invariant checker clean). The Go
# batteries behind these features — fault campaigns, service/soak,
# shard-1 identity, policy pass-through, admission stability, the jobs=1
# vs jobs=8 runner identity — run in the `go test -race ./internal/...`
# step, and the TestInvisibility table and golden digest corpus in
# `go test ./...`, so none is repeated here. In order: the -jobs worker
# pool, an open-loop service run, a 4-shard run, a gang-flavored policy
# stack, and the admission controller under the supply-loss campaign.
smoke:
	$(GO) run ./cmd/experiments -run ext-designspace -scale 0.05 -seeds 2 -jobs 8 -digest
	$(GO) run ./cmd/phoenix-sim -service -scale 0.05 -duration 60 -window 10 -validate -digest
	$(GO) run ./cmd/phoenix-sim -scheduler phoenix -shards 4 -profile google -scale 0.05 -seed 7 -validate -digest
	$(GO) run ./cmd/phoenix-sim -scheduler phoenix -policies gang,backfill -gang-fraction 0.3 -priority-fraction 0.2 -profile google -scale 0.05 -seed 7 -validate -digest
	$(GO) run ./cmd/phoenix-sim -scheduler phoenix -admission controller -faults scenarios/supply-loss.json -profile google -scale 0.05 -seed 7 -validate -digest

# Nightly regression gate (see .github/workflows/nightly.yml): diff the
# golden digest corpus at scale 0.05, re-run the scale-1.0 reference and
# diff its digest against results/digest-scale1.golden, then run the
# engine + service benchmarks and gate ns/op against the committed
# BENCH_*.json baselines via cmd/benchgate (>15% regression fails).
NIGHTLY_BENCH ?= /tmp/nightly-bench.txt
nightly:
	$(GO) test -count=1 -run 'TestGoldenDigestCorpus' ./internal/experiments/
	$(GO) run ./cmd/phoenix-sim -scheduler phoenix -profile google -scale 1.0 -seed 7 -digest | tee /tmp/nightly-scale1.txt
	grep -q "$$(awk '!/^#/ {print $$2}' results/digest-scale1.golden)" /tmp/nightly-scale1.txt
	$(GO) test -run '^$$' -bench 'BenchmarkEngineQueue' -benchmem -benchtime=2s ./internal/simulation/ > $(NIGHTLY_BENCH)
	$(GO) test -run '^$$' -bench 'BenchmarkServiceWindow' -benchmem -benchtime=2s ./internal/telemetry/ >> $(NIGHTLY_BENCH)
	$(GO) test -run '^$$' -bench 'BenchmarkScaleOne' -benchmem -benchtime=3x . >> $(NIGHTLY_BENCH)
	$(GO) test -run '^$$' -bench 'BenchmarkSharded' -benchmem -benchtime=3x . >> $(NIGHTLY_BENCH)
	$(GO) test -run '^$$' -bench 'BenchmarkGang$$' -benchmem -benchtime=3x . >> $(NIGHTLY_BENCH)
	$(GO) test -run '^$$' -bench 'BenchmarkAdmission$$' -benchmem -benchtime=2s ./internal/admission/ >> $(NIGHTLY_BENCH)
	$(GO) run ./cmd/benchgate -threshold 0.15 -input $(NIGHTLY_BENCH) results/BENCH_engine.json results/BENCH_service.json results/BENCH_sharded.json results/BENCH_gang.json results/BENCH_admission.json

# Nightly run-report artifact (see .github/workflows/nightly.yml): re-run
# the scale-1.0 phoenix/google reference with telemetry attached and write
# the Markdown run report plus its per-interval time series into
# NIGHTLY_REPORT_DIR, which the workflow uploads as a build artifact.
NIGHTLY_REPORT_DIR ?= /tmp/nightly-report
nightly-report:
	mkdir -p $(NIGHTLY_REPORT_DIR)
	$(GO) run ./cmd/phoenix-sim -scheduler phoenix -profile google -scale 1.0 -seed 7 \
		-report $(NIGHTLY_REPORT_DIR)/report-google-phoenix.md \
		-timeseries $(NIGHTLY_REPORT_DIR)/report-google-phoenix.csv

# Committed-output check (run nightly, see .github/workflows/nightly.yml):
# regenerate every experiment CSV and SVG figure and the three reference
# report runs with the results/README.md commands into RESULTS_CHECK_DIR,
# then diff them against results/. ext-sharded is left out: its committed
# CSV is a 10x-scale run with wall-clock timing (results/README.md).
RESULTS_CHECK_DIR ?= /tmp/results-check
results-check:
	rm -rf $(RESULTS_CHECK_DIR)
	mkdir -p $(RESULTS_CHECK_DIR)/figures
	$(GO) run ./cmd/experiments -run all -csv $(RESULTS_CHECK_DIR) -svg $(RESULTS_CHECK_DIR)/figures > /dev/null
	$(GO) run ./cmd/experiments -report $(RESULTS_CHECK_DIR)/report-google-phoenix.md \
		-timeseries $(RESULTS_CHECK_DIR)/report-google-phoenix.csv > /dev/null
	$(GO) run ./cmd/phoenix-sim -scheduler phoenix -profile google -scale 0.1 \
		-seed 7 -faults scenarios/rack-outage.json -validate \
		-report $(RESULTS_CHECK_DIR)/report-google-phoenix-rack-outage.md \
		-timeseries $(RESULTS_CHECK_DIR)/report-google-phoenix-rack-outage.csv > /dev/null
	$(GO) run ./cmd/phoenix-sim -service -scheduler phoenix -profile google \
		-scale 0.1 -seed 7 -duration 600 -window 30 -validate -digest \
		-windows $(RESULTS_CHECK_DIR)/report-service-poisson.csv \
		-report $(RESULTS_CHECK_DIR)/report-service-poisson.md > /dev/null
	diff -r -x 'ext-sharded.*' -x 'BENCH_*.json' -x '*.golden' -x README.md results $(RESULTS_CHECK_DIR)

# Regenerate every paper table/figure (tables to stdout, CSVs + SVGs to
# results/). JOBS bounds concurrent work units; 0 means GOMAXPROCS.
JOBS ?= 0
experiments:
	$(GO) run ./cmd/experiments -run all -jobs $(JOBS) -csv results -svg results/figures

figures: experiments

clean:
	$(GO) clean ./...
