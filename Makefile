GO ?= go

.PHONY: build test vet race flake fuzz bench bench-record verify

# build also compiles and vets the benchmark/ module against this checkout:
# it has its own go.mod, so `go build ./...` alone never sees a facade or
# core rename that breaks the judge. The arm64 build keeps the portable fit
# kernel compiling, and vetting internal/ml checks the lane kernel's
# assembly frames (asmdecl).
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
# arm64 fuses x*y+z into one rounding where amd64 rounds twice, so a fused product in internal/ml, internal/sim or internal/stats would move its bits by GOARCH: write float64(x*y).
	@for pkg in ./internal/ml ./internal/sim ./internal/stats; do \
		asm=$$(GOARCH=arm64 $(GO) test -c -o /dev/null -gcflags=-S $$pkg 2>&1) || { echo "$$asm" >&2; exit 1; }; \
		! echo "$$asm" | grep -E '\bFN?M(ADD|SUB)D\b' || exit 1; \
	done
	$(GO) vet ./internal/ml
	cd benchmark && GOWORK=off GOFLAGS=-mod=mod $(GO) build -o /dev/null ./... && GOWORK=off GOFLAGS=-mod=mod $(GO) vet ./...

# test also holds the portable fit kernel (purego: no assembly) to the fit,
# influence and report bit goldens, which the lane kernel runs on amd64.
test: build
	$(GO) test ./...
	$(GO) test -tags purego ./internal/ml .

vet:
	$(GO) vet ./...

# race exercises the concurrency-sensitive packages — the hot-team region
# dispatch, the lock-free construct ring, the wait-policy barrier and lock
# park/wake paths, the observer hooks and the trace rings each team hands its
# threads, cold nested teams included (also end to end on real kernels,
# through cmd/omprun's tests), the metrics registry, the
# parallel sweep worker pool, the stateless measured backend those workers
# share, the per-machine configuration tables (built on first use, then read
# by every sweep plan, calibration and sampling search), the CSV column
# table, the variable table it and every search probe read, the forests the surrogate fits, the model's shared placement cache, the
# sweep-to-analysis path of cmd/ompanalyze's tests (full sweeps, budgeted
# searches, Sobol indices) and the served campaigns of cmd/ompsweep's and
# cmd/ompsearch's tests (measured workers, the ledger and HTTP scrapes at
# once) — under the race detector. Keep this green before touching openmp,
# internal/obs, internal/core or internal/measure.
race:
	$(GO) vet ./... && $(GO) test -race -count=1 ./openmp/... ./cmd/omprun ./cmd/ompanalyze ./cmd/ompsweep ./cmd/ompsearch ./cmd/ompreport ./internal/core ./internal/obs ./internal/sim ./internal/measure ./internal/dataset ./internal/env ./internal/ml ./internal/report

# flake runs the runtime's tests twenty times at GOMAXPROCS 1, 2 and 4 beside
# a CPU hog (one busy shell loop: on a 2-vCPU box the second vCPU is gone for
# the whole run), the load under which tier-1 must stay green. Every wait in
# openmp/ goes through one spin loop and one parker; a lost wakeup shows here
# as a hang or a Sleeps != Wakeups failure. The ./openmp binary takes close
# to go test's default 10-minute timeout on a 2-vCPU box, hence -timeout.
flake:
	@( while :; do :; done ) & hog=$$!; trap 'kill $$hog' EXIT; \
	$(GO) test -timeout 20m -count=20 -cpu=1,2,4 ./openmp/...

# fuzz runs every Fuzz* target of the packages that parse outside input — the
# runtime's environment, the study's variables (with the differential between
# the two), the CSV format, the search telemetry that ompanalyze -searchreport
# reads — and of internal/ml, whose CART split kernel is held node-for-node to
# a frozen reference grower and whose two logistic fit kernels are held to
# each other's bits, for 5 s each, seed corpora first.
fuzz:
	@for pkg in ./openmp ./internal/env ./internal/dataset ./internal/core ./internal/ml; do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 5s $$pkg || exit 1; \
		done; \
	done

# bench runs the runtime overhead microbenchmarks with settings pinned for
# benchstat: save a baseline with `make bench > before.txt`, make changes,
# `make bench > after.txt`, then `benchstat before.txt after.txt`. These are
# diagnostics; the benchmark a change is judged on is benchmark/ (see
# benchmark/README.md).
# BENCH selects the benchmarks (regexp); default covers the EPCC-style
# overhead suite plus the whole-operation benchmarks it complements. The
# campaign side rides along: the model sweep's throughput and the
# configuration-key cost behind it, each search strategy on one problem per
# machine (300 evaluations, us/eval), one-shot sim.Evaluate calls and
# Bound.Series on a bound problem (the model's cost without and with the
# problem bound once), one logistic fit of the influence
# heatmaps (50,000 x 10, 300 epochs) on each of its two kernels (simd,
# portable), one fit of the surrogate search's regression forest (300 x 7,
# 12 trees), one write and one read of a 20,000-row dataset CSV and one
# report pass over the facade's 24,497-sample dataset, with their
# allocation counts.
BENCH ?= .
bench:
	$(GO) test ./openmp -run '^$$' -bench '$(BENCH)' -benchtime=300ms -count=5 -benchmem
	$(GO) test . ./internal/core ./internal/sim ./internal/ml ./internal/dataset -run '^$$' -bench 'TableII_SweepThroughput|EnvConfigKey|Search|Evaluate|BoundSeries|FitLogistic|FitRegForest|WriteCSV|ReadCSV|WriteReport' -benchtime=300ms -count=5 -benchmem

# bench-record runs one untraced 20 s pass of a benchmark workload and appends
# one JSON line to BENCH_<workload>.json (OUT overrides the file): the workload
# and seed, the commit measured and its parent, the benchmark's host line and
# its result object, also when a check failed (correct: false). A tree with uncommitted changes (BENCH_*.json aside) is
# recorded as commit <HEAD>-dirty with parent <HEAD>. Alternate parent and
# change runs on one box, e.g. from a clone of the parent:
#   make -f $$REPO/Makefile bench-record W=paper_pipeline SEED=1 OUT=$$REPO/BENCH_paper_pipeline.json
W ?= paper_pipeline
SEED ?= 1
OUT ?= BENCH_$(W).json
bench-record:
	@set -e; out=$$(bash benchmark/run.sh --workload $(W) --seed $(SEED) --seconds 20 --trace 0) || true; \
	case "$$(echo "$$out" | tail -n 1)" in "{"*) ;; *) echo "bench-record: no result object" >&2; exit 1;; esac; \
	head=$$(git rev-parse --short=12 HEAD); \
	if [ -n "$$(git status --porcelain -- . ':!BENCH_*.json')" ]; then commit=$$head-dirty; parent=$$head; \
	else commit=$$head; parent=$$(git rev-parse --short=12 HEAD^); fi; \
	host=$$(echo "$$out" | awk '$$1 == "host" { for (i = 2; i <= NF; i++) { split($$i, kv, "="); \
		v = kv[2] ~ /^[0-9.]+$$/ && kv[1] != "commit" ? kv[2] : "\"" kv[2] "\""; printf "%s\"%s\":%s", (i > 2 ? "," : ""), kv[1], v } }'); \
	printf '{"workload":"%s","seed":%s,"date":"%s","commit":"%s","parent":"%s","host":{%s},"result":%s}\n' \
		$(W) $(SEED) "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" $$commit $$parent "$$host" "$$(echo "$$out" | tail -n 1)" >> $(OUT); \
	tail -n 1 $(OUT)

# verify is the pre-merge gate (build, reached through test, includes the
# benchmark/ module; the measured, live-monitor and variability smokes are Go
# tests in cmd/ompsweep).
verify: race flake test
