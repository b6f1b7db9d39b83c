# icsched — build / test / bench targets.

GO ?= go
# go test -run with a guard against alternatives that match no test.
MATCH = .github/scripts/run-matching.sh

.PHONY: all build fmt vet test race bench cover figures experiments clean ci \
	benchsmoke grantalloc observability wire oracle chaos journal jobs grantcore \
	schedcache benchmark difftest stress fuzz examples

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
ci: fmt vet test race benchsmoke grantalloc observability wire oracle chaos \
	journal jobs grantcore schedcache benchmark experiments examples difftest stress fuzz

benchsmoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' . ./internal/dag ./internal/exec ./internal/opt

grantalloc:
	$(MATCH) 'StaticPool|ScoredPoliciesMatchScan|RanksTotal|ReportAllocateAllocs|LeaseSemanticsGolden|RecoverJournalWrittenBeforeDenseState|LatencyHistogramsResolve' ./internal/heur/ ./internal/icserver/
	$(GO) test -run '^$$' -bench 'StaticWideFrontier|GrantCoreFly' -benchtime=1x -benchmem ./internal/heur/ ./internal/icserver/

observability:
	$(MATCH) -race 'Metrics|Trace|Jitter|Replay|Observer|Histogram|Rendering' ./...

# Golden request sequences, the resync table, default seeding, task
# names, and the hand-written codec against encoding/json.
wire:
	$(MATCH) -race 'WireSequenceGolden|ResyncEpochContract|UnseededWorkers|ClientSeedReachesEngine|GaugesAfterBatchGrant|ComputeSeesTaskNames|WireCodec' ./internal/difftest/ ./internal/jobs/ ./internal/icserver/

oracle:
	$(MATCH) -race 'Frontier|WorkerCount|Budget|Decide|Beyond' ./internal/opt/ ./internal/difftest/

chaos:
	$(MATCH) -race 'Chaos|Churn|ServerKill|Recover|EpochBump' ./...
	$(GO) run ./cmd/icsched chaos -trace chaos_trace.json -kills 3

# Replay fuzz seed corpus; one write and at most one fsync per batch,
# the unsynced-record bound, the wounded (journal-failed) server.
journal:
	$(MATCH) 'SeedCorpusReplay|Replay10k|AppendBatch|FsyncsOncePerRequest|JournalFailed' ./internal/wal/ ./internal/icserver/
	$(GO) test -run '^$$' -bench 'Append' -benchtime=1x -benchmem ./internal/wal/

jobs:
	$(GO) test -race ./internal/jobs/

grantcore:
	$(MATCH) -race 'Relaxed|Shard|Prop' ./internal/relaxed/

schedcache:
	$(MATCH) -race 'Canon|Cache|Replay|Cursor|Singleflight|Evict' ./internal/schedcache/ ./internal/icserver/ ./internal/wal/ ./internal/difftest/

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

stress:
	$(MATCH) -race StressConcurrent ./internal/difftest/

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzBuild$$' -fuzztime 30s ./internal/dag/
	$(GO) test -run '^$$' -fuzz '^FuzzInstance$$' -fuzztime 30s ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzServerProtocol$$' -fuzztime 30s ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalJSON$$' -fuzztime 30s ./internal/dagio/
	$(GO) test -run '^$$' -fuzz '^FuzzRecords$$' -fuzztime 30s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzRelaxedGrant$$' -fuzztime 30s ./internal/relaxed/
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalHash$$' -fuzztime 30s ./internal/schedcache/
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime 30s ./internal/icserver/

figures:
	$(GO) run ./cmd/icsched figures figures/

clean:
	rm -rf figures cover.out
