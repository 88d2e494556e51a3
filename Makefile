# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race chaos fleet fleet-heavy torture bench bench-sanity bench-scaling metrics-lint

all: build test

build:
	go build ./...

# perfbench is a nested module that ./... skips; it links against the
# library packages, so its build and tests run here too.
test:
	go test ./...
	cd perfbench && go vet ./... && go test ./...

race:
	go test -race ./internal/psl/ ./internal/serve/ ./internal/obs/ ./internal/experiments/ ./internal/dist/ ./internal/resilience/ ./internal/failpoint/ ./internal/fleet/

# The full chaos replay: origin behind a failpoint HTTP site -> replica,
# one phase per HTTP action, crash-restart, goroutine-leak assertion.
# Runs under -race.
chaos:
	go test -race -count=1 -v -run 'TestChaosE2EReplication' ./internal/dist/

# The CI fleet smoke: a seeded 200-edge, 2-tier run vs its single-tier
# baseline under -race; fails unless both converge with zero unverified
# swaps and the relay tier strictly reduces origin egress.
fleet:
	go run -race ./cmd/pslfleet -seed 7 -edges 200 -relays 4 -retain 128 \
		-versions 120 -duration 30s -base-poll 250ms -advance-every 3s \
		-churn 0.05 -chaos-rate 0.05 -chaos-tiers origin,relay -compare -check

# The thousand-edge acceptance run (several minutes under -race).
fleet-heavy:
	PSLFLEET_HEAVY=1 go test -race -count=1 -v -run 'TestFleetThousandEdges' ./internal/fleet/

# The full crash-consistency torture matrix under -race: every
# registered failpoint site in the dist-state, matcher-blob,
# submit-store, and replica-resume scenarios, each hit index, err and
# crash modes. A violated recovery invariant fails with the exact
# `scenario=... seed=... spec="..."` line that reproduces it.
torture:
	go test -race -count=1 -v -run 'Torture' ./internal/torture/

bench:
	go test -run '^$$' -bench . -benchmem ./internal/psl/ .

# The CI perf gate: fails when a batch row costs more than 1.15x a
# single lookup, or one 256-row HTTP batch delivers less than
# 3x the rows/s of single lookups. Pass -cpu 1,2,4,8 for a GOMAXPROCS
# matrix.
bench-scaling:
	go test -run '^$$' -bench '^Benchmark(BatchRow|HTTPBatch)VsSingle$$' -cpu 1 .

# One-iteration pass over every benchmark that backs an acceptance
# criterion, plus the zero-alloc guard tests — the CI sanity gate.
bench-sanity:
	go test -run '^$$' -bench 'BenchmarkMatcherAblation|BenchmarkPackedCompile9k' -benchtime=1x ./internal/psl/
	go test -run '^$$' -bench 'BenchmarkServeLookup|BenchmarkAblationIncremental|BenchmarkTable2MissingETLDs|BenchmarkSubmitPublish|BenchmarkListFingerprint' -benchtime=1x .
	go test -run '^$$' -bench 'BenchmarkPatchChain|BenchmarkPatchApply' -benchtime=1x ./internal/dist/
	go test -run '^$$' -bench 'BenchmarkPipelineBuild' -cpu 1,2 -benchtime=1x ./internal/core/
	go test -run 'ZeroAlloc' -count=1 ./internal/psl/ ./internal/serve/ ./internal/obs/ ./internal/resilience/ ./internal/failpoint/

# Scrape a locally running pslserver and lint the exposition.
metrics-lint:
	curl -sf http://127.0.0.1:8353/metrics | go run ./cmd/promlint -min-families 12
