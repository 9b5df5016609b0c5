GO ?= go

.PHONY: all build fmt vet lint test race fuzz bench-read bench-write bench-policy bench-timeline obs-smoke crash chaos ci

all: build

build:
	$(GO) build ./...

# Fail if any file is not gofmt-clean (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Repo-specific static analysis: the ten syntactic rules (device-io,
# global-rand, unchecked-err, layering, tree-state, obs-event,
# compaction-step, wal-frame, layout-assert, retry-bounded) plus the seven
# path-sensitive rules (lock-discipline, view-refcount, sentinel-error-flow,
# wal-ordering, goroutine-shutdown, shard-lock-order, span-finish). Six run
# under one CFG/dataflow driver; view-refcount and span-finish share one
# must-release analysis. See internal/lint and DESIGN.md §6, §12.
lint:
	$(GO) run ./cmd/lsmlint ./...

test:
	$(GO) test ./...

# Fuzz smoke: the WAL frame decoder and the checksummed block read path,
# 10s each (go's fuzzer takes one -fuzz target per invocation). Longer
# soaks: bump -fuzztime.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzBlockChecksum -fuzztime 10s ./internal/storage

# Race-detector run; includes the TestRaceStress and
# TestRaceIteratorSnapshot concurrency suites.
race:
	$(GO) test -race ./...

# Parallel point-lookup throughput across 1/2/4/8 goroutines. Gets are
# snapshot-isolated and lock-free, so on a multi-core machine ns/op should
# drop substantially from goroutines=1 to goroutines=8. The end-to-end
# lookup numbers PRs are compared by come from perfbench/run.sh.
bench-read:
	$(GO) test -run xxx -bench 'BenchmarkConcurrentReads' -benchtime 2s .

# Concurrent write throughput and put-latency tail, sync vs background
# compaction. Background should collapse the p99/max tail (the inline
# cascade) into scheduler backpressure. The end-to-end ingest numbers PRs
# are compared by come from perfbench/run.sh.
bench-write:
	$(GO) test -run xxx -bench 'BenchmarkConcurrentWrites|BenchmarkPutLatencyTail' -benchtime 2s .

# Small-scale layout sweep: leveling vs tiering vs lazy leveling on
# uniform, delete-heavy, and scan-heavy mixes, via the deterministic
# experiment harness. Emits BENCH_policy.json — the write-amp/read-amp
# tradeoff curve the layout axis is judged by. Full-size sweeps:
# `go run ./cmd/lsmbench -workload all`.
bench-policy:
	$(GO) run ./cmd/benchjson -mode policy -out BENCH_policy.json

# Sustained-load latency-over-time artifact: 8s of mixed writer/reader
# load against a WAL-synced background-compaction store with phase
# tracing and the flight recorder on. BENCH_timeline.json carries the
# per-shard timeline (ops/s, put/get p99, stall windows, L0 depth, WAL
# sync latency, phase deltas) plus the slow-op span dumps — the evidence
# file the paced-compaction work is gated on.
bench-timeline:
	$(GO) run ./cmd/lsmbench -timeline BENCH_timeline.json -timeline-dur 8s

# End-to-end observability smoke: the /metrics exposition golden (every
# family, HELP, TYPE, label and value at 1/2 shards x WAL off/on), live
# scrapes of /metrics and /debug/lsm on an ephemeral port, background
# write-stall counters live on /metrics, and /debug/lsm/timeline and
# /debug/lsm/slow parsing with tracing off and on. Then a short -timeline
# run to prove the phase-span / flight-recorder path end to end (artifact
# is discarded; bench-timeline emits the committed one).
obs-smoke:
	$(GO) test -count=1 -run 'TestMetricsExpositionGolden|TestMetricsEndpoint|TestWriteStallCountersLiveOnMetrics|TestDebugEndpointsParseWithTracingOff|TestTimelineAndSlowEndpoints' .
	$(GO) run ./cmd/lsmbench -timeline /tmp/lsmssd_timeline_smoke.json -timeline-dur 2s
	rm -f /tmp/lsmssd_timeline_smoke.json

# Power-cut recovery harness (internal/crashloop via cmd/crashloop): all
# three WAL sync policies, randomized crashes and torn tails, acked-write
# loss and prefix consistency checked after every recovery. Bounded for
# CI; run `go run ./cmd/crashloop -iters 500` for a soak.
crash:
	$(GO) run ./cmd/crashloop -iters 60 -ops 100 -sync every
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync interval -interval 1ms
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync never
	$(GO) run ./cmd/crashloop -iters 50 -ops 100 -sync every -shards 4 -paranoid
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync every -layout tiering -tier-runs 3 -paranoid
	$(GO) run ./cmd/crashloop -iters 30 -ops 100 -sync every -layout lazy -tier-runs 3

# Fault-domain isolation soak (internal/crashloop chaos mode via
# cmd/crashloop -chaos): seeded device-fault scenarios — bit rot, ENOSPC,
# sticky sync failures, injected latency, flaky reads — each injected into
# one shard of a 4-shard store and checked against a paired fault-free
# run: unfaulted shards must stay byte-identical and healthy, every health
# transition must carry a cause and name only the faulted shard, and a
# crash+reopen must recover every acked write. Same entry point for a
# longer soak: `go run ./cmd/crashloop -chaos -ops 20000`.
chaos:
	$(GO) run ./cmd/crashloop -chaos

ci: fmt vet lint test race fuzz obs-smoke crash chaos
