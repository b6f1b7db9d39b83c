# icsched — build / test / bench targets.

GO ?= go

.PHONY: all build vet test race bench cover fuzz figures experiments clean chaos grantcore

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem . ./internal/heur ./internal/icserver

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=10s ./internal/dagio/
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalJSON -fuzztime=10s ./internal/dagio/

# CI lanes: ci.yml runs exactly these targets, so `make chaos grantcore`
# is what CI runs for them.
chaos:
	.github/scripts/run-matching.sh -race 'Chaos|Churn|ServerKill|Recover|EpochBump' ./...
	$(GO) run ./cmd/icsched chaos -trace chaos_trace.json -kills 3

grantcore:
	.github/scripts/run-matching.sh -race 'Relaxed|Shard|Prop' ./internal/relaxed/

figures:
	$(GO) run ./cmd/icsched figures figures/

experiments:
	$(GO) run ./cmd/icsched experiments

clean:
	rm -rf figures cover.out
