# Convenience targets for the dbpl reproduction.

GO ?= go

.PHONY: all build vet fmt-check test race fuzz bench-smoke clean

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
# pipeline, transaction views, replication and failover, GETs racing to
# store a member's value bytes, joins racing to build a relation's label
# set and partitions, TestJoinPartitionsConcurrentFirstUse, callers
# pipelining on one client connection while its reader moves the read
# deadline from request to request and they reuse its result channels,
# TestRequestTimeoutPipelined, readers pinning published states while
# multi-op groups, each built under one owner that edits in place what it
# copied, publish over them and over forks,
# TestPinnedStateStableUnderPublish) are only meaningful here. The write
# path's allocation pins (TestServePutAllocs, whose transaction row reuses
# the connection an ended session gave back, TestStageBoundAllocs,
# TestApplyRebindAllocs) take their bounds from -race's counts, and
# TestFreeingCostsTheDelta holds the durable boundary that frees a
# rebind's old nodes to no allocation at 1 024 roots and at 65 536 (the
# new record's reference list is one the old record gave up). -race also
# turns on checkptr, which checks the codec's two unsafe uses as the
# reply tests run them: unsafe.String over a reply's rows field, and box,
# which makes a reply's slab element the data word of a boxed atom. To
# run one feature's tests, filter by name, e.g. replication and failover:
# `go test -race -run 'Repl|Follower|Promote|Failover|Fence' ./internal/server/`.
race:
	$(GO) test -race ./...

# The benchmark is its own nested module (bench/go.mod), so `go build
# ./...` and `go test ./...` from the root never reach it — yet it links
# internal/ packages by name. This vets it and runs its 4 s smoke of all
# four workloads, so a change to an API it uses fails here, not in the
# benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz passes over every Fuzz* target in the repo: the decoders
# (differential: each input is decoded through the process-wide type
# table, cold and then warm, and against the table-free decoder), the log
# scanner (its seeds include the refused older headers), a
# follower's ApplyGroup of a mutated replicated group (its checksum
# rewritten, so the mutation reaches the decoder, the materializer and the
# conformance check), the
# conformance walk (differential against TypeOf + subtyping), the value
# key writer (byte-identical to the fmt writer it replaced), the order's,
# conformance's and Copy's walks with a memo (differential against the
# plain walk, on values that share structure or reach themselves through
# a list or set, with the cycle check against a plain search), the pruned
# maximal-elements scan (differential against the naive one), the type
# parser (it never panics, and an accepted type re-parses from its
# printing to an equal type whose printing is a fixed point; its seeds
# include a comment between fields and a 2 000-label record), the language
# pipeline, the wire frame reader (malformed frames, truncated length
# prefixes and oversize claims must yield typed wire errors — never a
# panic, never an unbounded allocation; its seeds include the heartbeat,
# a REPDATA frame with no groups, valid, with a flipped CRC and missing
# its trailer, the three-field REPLICATE with its refused two-field form
# and a heartbeat under 10 ms, and the refused HEALTH reply whose flags
# set bit 1; a FrameReader carried across the inputs must read each to
# the same frames and errors, so a byte or field its reused buffers kept
# from an earlier frame shows), the two-field VALUES reply
# decoder (differential against per-row DecodeTagged of each row's tagged
# image, read from the layout's definition; its seeds include a bad
# ordinal, a row count past the bytes, trailing bytes, types with no rows
# and the old one-image-a-row payload, all refused with a codec error, and
# a reply of atoms at the edges of what box boxes — Ints at 0, 255, 256,
# -1 and MinInt64, Floats at -0, NaN and +Inf, an empty and a long String
# — whose every atom must have the one-shot decode's dynamic type and be
# == to it, NaN aside — and replies whose rows share one witness and so
# its record program, with a row the program leaves partway: a label
# byte changed, a field more, a field fewer, a list, record or dynamic
# as the last field, a label length as a non-minimal varint and a last
# atom cut short, beside a row of ⊥ and an Int at a Float field that the
# program reads whole), the
# merge of two record images into a JOIN row (a merged row equals the row
# of value.Join of the images' values, a conflict is two records Join
# refuses, and no refusal adds a row or reads past either image; its
# seeds include a varint longer than it needs, labels out of order and
# bytes after the record) and
# a live server fed
# each input as a PUT image, then GET, JOIN, EXPLAIN and NAMES over it
# (HEALTH must answer after every input), and the client's STATS and
# TRACES reply decoding (a refusal is a typed wire error, and an accepted
# snapshot or trace re-marshals to an equal value; its seeds include a
# STATS reply from an older server whose histograms carry per-bucket
# trace IDs, which decodes with that key dropped). The codec seeds
# include images nested past the depth bounds, 32 KiB and more, and each FuzzMaximal input
# runs the quadratic reference scan; minimizing an input grown from either
# would take the whole pass, so it is cut short. `make test`
# runs every target's seed corpus.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalValue -fuzztime=30s -fuzzminimizetime=5s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzDecodeType -fuzztime=30s -fuzzminimizetime=5s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzScanLog -fuzztime=30s ./internal/persist/intrinsic/
	$(GO) test -fuzz=FuzzApplyGroup -fuzztime=30s ./internal/persist/intrinsic/
	$(GO) test -fuzz=FuzzConforms -fuzztime=30s ./internal/value/
	$(GO) test -fuzz=FuzzAppendKey -fuzztime=30s ./internal/value/
	$(GO) test -fuzz=FuzzWalk -fuzztime=30s ./internal/value/
	$(GO) test -fuzz=FuzzMaximal -fuzztime=30s -fuzzminimizetime=5s ./internal/value/
	$(GO) test -fuzz=FuzzParseType -fuzztime=30s ./internal/types/
	$(GO) test -fuzz=FuzzRun -fuzztime=30s ./internal/lang/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/server/wire/
	$(GO) test -fuzz=FuzzReplyDecode -fuzztime=30s -fuzzminimizetime=5s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzRowMerged -fuzztime=30s ./internal/persist/codec/
	$(GO) test -fuzz=FuzzServeImage -fuzztime=30s -fuzzminimizetime=5s ./internal/server/
	$(GO) test -fuzz=FuzzTelemetryReply -fuzztime=30s ./client/

clean:
	$(GO) clean ./...
