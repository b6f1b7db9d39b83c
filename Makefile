# icsched — build / test / bench targets.

GO ?= go

.PHONY: all build fmt vet test race bench cover figures experiments clean ci \
	benchsmoke grantalloc chaos journal benchmark difftest fuzz examples

all: build vet test

build:
	$(GO) build ./...

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem . ./internal/dag ./internal/exec ./internal/heur ./internal/icserver ./internal/opt

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# CI lanes: every step of .github/workflows/ci.yml is one of these
# targets, and `make ci` runs them all in ci.yml's order, so a builder
# without GitHub runs exactly what CI runs.  None needs the network.
# `test` and `race` run every test; the lanes after them are 1x
# benchmarks, CLI runs and fuzz smokes, none re-running a subset of the
# tests (TESTING.md lists the focused -run sets that used to be lanes).
ci: fmt vet test race benchsmoke grantalloc chaos journal benchmark \
	experiments examples difftest fuzz

benchsmoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' . ./internal/dag ./internal/exec ./internal/opt

# The grant core on a wide frontier, one iteration each.
grantalloc:
	$(GO) test -run '^$$' -bench 'StaticWideFrontier|GrantCoreFly' -benchtime=1x -benchmem ./internal/heur/ ./internal/icserver/

# Three workloads through the real server under faults and kills.
chaos:
	$(GO) run ./cmd/icsched chaos -trace chaos_trace.json -kills 3

# The journal's batched append, one iteration.
journal:
	$(GO) test -run '^$$' -bench 'Append' -benchtime=1x -benchmem ./internal/wal/

# The one benchmark lane: every BENCHMARK.json workload at smoke size,
# failing only on its bit-for-bit correctness gate.
benchmark:
	$(GO) run ./bench -smoke

experiments:
	$(GO) run ./cmd/icsched experiments

# Every example end to end: one that errors — or, for examples/distributed,
# computes a wrong binomial row — exits non-zero and fails the lane.
examples:
	for d in examples/*/; do $(GO) run ./$$d > /dev/null || exit 1; done

# Cross-layer + theorem properties.
difftest:
	$(GO) run ./cmd/icsched difftest -seed 1 -n 200

# -fuzzminimizetime 1s on the targets whose 30 s smoke otherwise spends
# whole seconds at 0 execs/s minimizing new inputs (TESTING.md).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzBuild$$' -fuzztime 30s ./internal/dag/
	$(GO) test -run '^$$' -fuzz '^FuzzInstance$$' -fuzztime 30s ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzServerProtocol$$' -fuzztime 30s -fuzzminimizetime 1s ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalJSON$$' -fuzztime 30s ./internal/dagio/
	$(GO) test -run '^$$' -fuzz '^FuzzRecords$$' -fuzztime 30s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzRelaxedGrant$$' -fuzztime 30s -fuzzminimizetime 1s ./internal/relaxed/
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalHash$$' -fuzztime 30s ./internal/schedcache/
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime 30s -fuzzminimizetime 1s ./internal/icserver/
	$(GO) test -run '^$$' -fuzz '^FuzzMaxNewEligible$$' -fuzztime 30s -fuzzminimizetime 1s ./internal/heur/
	$(GO) test -run '^$$' -fuzz '^FuzzStaticPool$$' -fuzztime 30s -fuzzminimizetime 1s ./internal/heur/

figures:
	$(GO) run ./cmd/icsched figures figures/

clean:
	rm -rf figures cover.out
