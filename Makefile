# Convenience targets for the dbpl reproduction.

GO ?= go

.PHONY: all build vet fmt-check test test-short race bench report report-quick examples faults fuzz fuzz-wire bench-smoke clean

all: build vet fmt-check test faults race bench-smoke fuzz-wire

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
# (core engine, persist stores, the server's commit pipeline, replication
# and failover) are only meaningful here. To run one feature's tests,
# filter by name, e.g. `go test -race -run 'Repl|Follower' ./internal/server/`.
race:
	$(GO) test -race ./...

# Skips the end-to-end `go run` example tests.
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every experiment (E1–E19) as paper-style tables.
report:
	$(GO) run ./cmd/benchreport

report-quick:
	$(GO) run ./cmd/benchreport -quick

examples:
	@for d in quickstart figure1 employees parkinglot billofmaterials evolution textsearch; do \
		echo "=== $$d ==="; $(GO) run ./examples/$$d || exit 1; done

# The fault-injection and crash-consistency suites: every persistence
# store driven through iofault.Injector — per-operation failures, torn
# writes, and a crash at every mutating I/O boundary — plus fsck/salvage
# and the refusal of logs of other format versions.
faults:
	$(GO) test -run 'Fault|Crash|Fsck|Salvage|Poison|OldLogVersionsRefused|Inject|LoseUnsynced' \
		./internal/persist/... ./cmd/dbpl/

# The benchmark is its own nested module (bench/go.mod), so `go build
# ./...` and `go test ./...` from the root never reach it — yet it links
# internal/ packages by name. This vets it and runs its 4 s smoke of all
# four workloads, so a change to an API it uses fails here, not in the
# benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz passes over the decoders, the log scanner (its seeds include
# the refused older headers), the conformance walk (differential against
# TypeOf + subtyping), the value key writer (byte-identical to the fmt
# writer it replaced) and the language pipeline. The codec seeds include
# images nested past the depth bounds, 32 KiB and more; minimizing an
# input grown from one would take the whole pass, so it is cut short.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalValue -fuzztime=30s -fuzzminimizetime=5s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzDecodeType -fuzztime=30s -fuzzminimizetime=5s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzScanLog -fuzztime=30s ./internal/persist/intrinsic/
	$(GO) test -fuzz=FuzzConforms -fuzztime=30s ./internal/value/
	$(GO) test -fuzz=FuzzAppendKey -fuzztime=30s ./internal/value/
	$(GO) test -fuzz=FuzzRun -fuzztime=30s ./internal/lang/

# The wire-decoder fuzz contract (part of `make all`): malformed frames,
# truncated length prefixes and oversize claims must yield typed wire
# errors — never a panic, never an unbounded allocation.
fuzz-wire:
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/server/wire/

clean:
	$(GO) clean ./...
