# icsched — build / test / bench targets.

GO ?= go

.PHONY: all build vet test race bench cover fuzz figures experiments clean

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

figures:
	$(GO) run ./cmd/icsched figures figures/

experiments:
	$(GO) run ./cmd/icsched experiments

clean:
	rm -rf figures cover.out
