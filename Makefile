# Developer entry points. `make check` is the tier-1 gate: formatting,
# lint, build, full tests, and the race detector over the whole module
# (the sharded simulation kernel, the parallel experiment runner, and
# the loss-tolerance campaign all spawn goroutines, so everything runs
# under -race). `make fuzz` is a short smoke of the native fuzz targets;
# CI runs both.

GO ?= go
DATE := $(shell date +%F)
FUZZTIME ?= 10s

.PHONY: check fmt vet lint build test race race-shard fuzz bench bench-smoke trace-smoke chaos-smoke serve-smoke wal-smoke wal-soak wal-soak-long examples-smoke loc clean

check: fmt lint build test race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint is vet plus staticcheck when the binary is on PATH; the build
# image doesn't bake it in and we can't install on the fly, so its
# absence is a note, not a failure. The grep keeps the repo on the
# modern `any` spelling — the empty interface type must not reappear.
lint: vet
	@out="$$(grep -rn 'interface{}' --include='*.go' . || true)"; \
	if [ -n "$$out" ]; then \
		echo "use 'any' instead of 'interface{}':"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet ran)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-shard is the parallel-kernel gate: the shard determinism
# matrices (sim-level against the sequential reference loop, and
# build-level — cells force a worker pool wider than one goroutine, so
# the race detector sees the real concurrent deliver/tick phases even
# on small runners), the churn property matrix (witness patching forced
# on across every profile × network size, each epoch checked
# bit-identical against a from-scratch rebuild), plus a short chaos
# campaign running its partial builds on four shards with a parallel
# pool.
race-shard:
	$(GO) test -race -count=1 -run 'TestShard' ./internal/sim/ ./internal/core/
	$(GO) test -race -count=1 -run 'TestChurnPropertyMatrix' ./internal/maintain/
	@tmp="$$(mktemp -d)"; \
	$(GO) run -race ./cmd/experiments -exp chaos -trials 3 -workers 2 -shards 4 -parallel 2 -out "$$tmp" && \
	rm -rf "$$tmp"

fuzz:
	$(GO) test ./internal/graph/ -fuzz=FuzzReadGraph -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -fuzz=FuzzWALRecord -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -fuzz=FuzzWALSnapshot -fuzztime=$(FUZZTIME)

# bench runs the full benchmark suite once and records it as
# BENCH_<date>.json (name, ns/op, B/op, allocs/op per benchmark). The raw
# output is captured once in a temp file, printed, and then fed to
# benchjson, so a redirected log keeps everything written before it; a
# failing go test or benchjson fails the target and writes no JSON.
bench:
	@out="$$(mktemp)"; \
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/... > "$$out"; status=$$?; \
	cat "$$out"; \
	if [ $$status -eq 0 ]; then \
		$(GO) run ./tools/benchjson < "$$out" > "$$out.json" && \
		mv "$$out.json" BENCH_$(DATE).json && echo "wrote BENCH_$(DATE).json"; status=$$?; \
	fi; \
	rm -f "$$out" "$$out.json"; exit $$status

# bench-smoke runs the Table 1 shard-count benchmark (and the epoch
# benchmark) for a single iteration and gates it against the newest
# committed BENCH_<date>.json via benchjson -compare — enough for CI to
# catch a kernel that stopped compiling or regressed catastrophically,
# without the cost of a full benchmark run. The threshold is deliberately loose
# (100%): the baseline was recorded on different hardware and a 1x run
# is noisy; the gate is for order-of-magnitude regressions. BENCHBASE
# overrides the baseline file, BENCHTHRESHOLD the fraction. As in bench,
# the raw output is captured once, printed, then compared, and a failing
# benchmark or comparison fails the target.
BENCHBASE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
BENCHTHRESHOLD ?= 1.0
bench-smoke:
	@[ -n "$(BENCHBASE)" ] || echo "no BENCH_*.json baseline; running without -compare"; \
	out="$$(mktemp)"; \
	{ $(GO) test -bench=BenchmarkTable1Sharded -benchtime=1x -run='^$$' . && \
	  $(GO) test -bench=BenchmarkEpochApply -benchtime=1x -run='^$$' ./internal/serve/; } > "$$out"; status=$$?; \
	cat "$$out"; \
	if [ $$status -eq 0 ] && [ -n "$(BENCHBASE)" ]; then \
		$(GO) run ./tools/benchjson -compare "$(BENCHBASE)" -threshold $(BENCHTHRESHOLD) < "$$out"; status=$$?; \
	fi; \
	rm -f "$$out"; exit $$status

# trace-smoke runs the traced experiment on a seed instance, writes the
# JSONL event stream, and validates every line against the sink schema
# with tracecat's strict decoder (unknown fields or kinds fail the build).
trace-smoke:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/experiments -exp trace -n 50 -trials 2 -seed 7 -trace-out "$$tmp/trace.jsonl" && \
	$(GO) run ./tools/tracecat -check "$$tmp/trace.jsonl" && \
	rm -rf "$$tmp"

# chaos-smoke runs a short chaos campaign (randomized fault schedules
# against the partition-aware build; any contract violation is shrunk to
# a minimal reproducing schedule and fails the target) plus the
# schedule-shrink self-test, and replays the committed regression corpus.
chaos-smoke:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/experiments -exp chaos -trials 3 -workers 4 -out "$$tmp" && \
	rm -rf "$$tmp"
	$(GO) test ./internal/experiments/ -run 'Chaos|Shrink' -count=1

# serve-smoke boots the topology service, drives a short seeded churn
# schedule through its own HTTP API (one POST per epoch), asserts the
# health endpoint answers for the final epoch, and requires a clean
# shutdown — the end-to-end gate of cmd/spannerd and internal/serve.
serve-smoke:
	$(GO) run ./cmd/spannerd -smoke -n 120 -epochs 6 -batch 15 -seed 7

# wal-smoke is the crash drill: boot a durable spannerd, drive a churn
# schedule over HTTP, die after epoch 4 without shutdown (the write-ahead
# log is left exactly as a SIGKILL would leave it), then recover the
# directory and require the recovered topology to be bit-identical to an
# uncrashed in-process replay of the same schedule — same epoch sequence
# number, same fingerprint. walcat -check then re-scans the log: every
# record framed, checksummed, and decodable, with gap-free sequences.
wal-smoke:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/spannerd -smoke -n 120 -epochs 6 -batch 15 -seed 7 -data "$$tmp/wal" -crash-after 4 && \
	$(GO) run ./cmd/spannerd -recover-check -n 120 -epochs 4 -batch 15 -seed 7 -data "$$tmp/wal" && \
	$(GO) run ./tools/walcat -check "$$tmp/wal" && \
	rm -rf "$$tmp"

# wal-soak is the kill/recover churn soak, CI-bounded: the durable
# service runs on an in-memory filesystem with an explicit durability
# model, "loses power" every few epochs, and is recovered from the
# directory alone; every recovered epoch must match a lockstep
# non-durable reference bit for bit. Runs twice — clean storage, and
# storage with seeded torn-write/failed-fsync injection that must be
# absorbed by retries or survived through the degraded-mode round trip —
# with segment rotation and bounded retention active throughout.
# SOAKCYCLES overrides the cycle count; wal-soak-long is the overnight
# setting.
SOAKCYCLES ?= 20
wal-soak:
	$(GO) run ./cmd/experiments -exp soak -cycles $(SOAKCYCLES)

wal-soak-long:
	$(MAKE) wal-soak SOAKCYCLES=500

# examples-smoke builds and runs every examples/* main; a build failure or
# a non-zero exit fails the target (with the example's output shown), so
# the examples cannot rot unnoticed.
examples-smoke:
	@tmp="$$(mktemp -d)"; \
	for d in examples/*/; do \
		name="$$(basename "$$d")"; \
		if $(GO) build -o "$$tmp/$$name" "./$$d" && "$$tmp/$$name" > "$$tmp/$$name.out" 2>&1; then \
			echo "ok    examples/$$name"; \
		else \
			cat "$$tmp/$$name.out" 2>/dev/null; echo "FAIL  examples/$$name"; rm -rf "$$tmp"; exit 1; \
		fi; \
	done; \
	rm -rf "$$tmp"

# loc prints the non-test Go line count (the benchmark module excluded),
# the size figure CHANGES.md tracks from change to change.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v spanbench | xargs wc -l | tail -1

clean:
	$(GO) clean ./...
