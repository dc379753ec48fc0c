# Convenience targets for the dbpl reproduction.

GO ?= go

.PHONY: all build vet fmt-check test race bench report report-quick fuzz bench-smoke clean

all: build vet fmt-check test race bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Every package under the race detector: the concurrency stress tests
# (forked core databases, index sets, persist stores, the server's commit
# pipeline, transaction views, replication and failover) are only meaningful here. To run one feature's tests,
# filter by name, e.g. `go test -race -run 'Repl|Follower' ./internal/server/`.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every experiment (E1–E11, E16–E19) as paper-style tables.
report:
	$(GO) run ./cmd/benchreport

report-quick:
	$(GO) run ./cmd/benchreport -quick

# The benchmark is its own nested module (bench/go.mod), so `go build
# ./...` and `go test ./...` from the root never reach it — yet it links
# internal/ packages by name. This vets it and runs its 4 s smoke of all
# four workloads, so a change to an API it uses fails here, not in the
# benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz passes over every Fuzz* target in the repo: the decoders,
# the log scanner (its seeds include the refused older headers), the
# conformance walk (differential against TypeOf + subtyping), the value
# key writer (byte-identical to the fmt writer it replaced), the language
# pipeline and the wire frame reader (malformed frames, truncated length
# prefixes and oversize claims must yield typed wire errors — never a
# panic, never an unbounded allocation). The codec seeds include images
# nested past the depth bounds, 32 KiB and more; minimizing an input grown
# from one would take the whole pass, so it is cut short. `make test`
# runs every target's seed corpus.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalValue -fuzztime=30s -fuzzminimizetime=5s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzDecodeType -fuzztime=30s -fuzzminimizetime=5s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzScanLog -fuzztime=30s ./internal/persist/intrinsic/
	$(GO) test -fuzz=FuzzConforms -fuzztime=30s ./internal/value/
	$(GO) test -fuzz=FuzzAppendKey -fuzztime=30s ./internal/value/
	$(GO) test -fuzz=FuzzRun -fuzztime=30s ./internal/lang/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/server/wire/

clean:
	$(GO) clean ./...
