#!/bin/sh
# Tier-1 gate: formatting, vet, build, and the full test suite under
# the race detector. Run before every commit; CI runs the same steps.
set -e

cd "$(dirname "$0")"

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

go vet ./...

# The dense panel, SELL-4 sparse and 8×8 BSR kernels, the p-norm and
# renorm's scaling pass have AVX bodies in amd64 assembly, and the
# serving frame codec an AVX2 body (asmdecl checks them in the vet
# above); each has a portable Go body everywhere else: vet the
# packages for arm64 too, and build the whole tree there, so the
# portable build stays checked.
GOARCH=arm64 go vet ./internal/mat ./internal/sparse ./internal/dnn ./internal/serve
GOARCH=arm64 go build ./...

# The test suite under the race detector. Besides the unit tests it
# holds every end-to-end smoke: the godoc and docs-link audits
# (docs_audit_test.go), the served and routed fleet of real processes
# (TestFleetProcesses), asrdecode's dense == sparse and dense == bsr
# byte parity (TestDecodeBackendParity), and the adaptive scenario
# matrix byte-identical across two trainings
# (experiments.TestAdaptiveMatrixReproducible).
go build ./...
go test -race ./...

# Serving stress leg: the session-lifecycle tests repeated in shuffled
# order under the race detector, so a reintroduced ordering race
# between a session's terminal reply and the server's bookkeeping
# (slot release, Served(), sessions_active) fails here rather than
# intermittently later. The root package's process tests run twenty
# times too; they build their binaries and train their models once
# per test binary.
go test -race -count=20 -shuffle=on ./internal/serve ./internal/router .

# Frame codec fuzz leg: a bounded run of FuzzFrameCodec, which pins the
# base64 float64 frame line against encoding/json in both directions
# (every line the server's fast path accepts, encoding/json accepts into
# the same bits) and the refusal of NaN and ±Inf on both ends.
go test -run '^$' -fuzz '^FuzzFrameCodec$' -fuzztime 15s ./internal/serve

# Base64 fuzz leg: FuzzBase64 runs both bodies of the frame codec's
# base64 — the AVX2 one and the stdlib — against encoding/base64 on
# any input and on encodings with a byte outside the alphabet at any
# offset, so the vector body accepts, refuses and decodes exactly as
# the stdlib does.
go test -run '^$' -fuzz '^FuzzBase64$' -fuzztime 15s ./internal/serve

# Request fuzz leg: FuzzRequest drives Server.handle over an in-memory
# connection with any sequence of request lines, garbage, partial and
# over-long lines, split into reads of any size: no panic, exactly one
# terminal reply per admitted session, and the admission slot and
# serve.sessions_active released.
go test -run '^$' -fuzz '^FuzzRequest$' -fuzztime 15s ./internal/serve

# Kernel fuzz leg: a bounded run of FuzzKernels, the differential
# dense == sparse == bsr check on random shapes and masks, and on
# random FC → p-norm → renorm → FC stacks against the scalar loops. It
# is the float kernels' one bit-identity check beyond the fixed-shape
# plan tests; the test run above only replays its seed corpus.
go test -run '^$' -fuzz '^FuzzKernels$' -fuzztime 15s ./internal/dnn

# Model-file fuzz leg: a bounded run of FuzzLoad. A model file is
# untrusted input that a SIGHUP reload hands to a live server: Load
# must never panic, and every net it accepts must compile under each
# backend and score a frame.
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 15s ./internal/dnn

# Search fuzz leg: bounded runs of the search's differential checks.
# FuzzCache drives the simulator's recency-order caches against the
# stamp-LRU model they replaced, hit for hit; FuzzSetAssocInsert and
# FuzzUnboundedInsert drive each hypothesis store against a test-only
# copy of its earlier implementation, comparing every Outcome, every
# Each sequence and the Stats. FuzzIndex drives the position index the
# token map and the unbounded store's overflow share against a Go map,
# through growths and the epoch wraparound.
go test -run '^$' -fuzz '^FuzzCache$' -fuzztime 15s ./internal/accel/viterbisim
go test -run '^$' -fuzz '^FuzzSetAssocInsert$' -fuzztime 15s ./internal/core
go test -run '^$' -fuzz '^FuzzUnboundedInsert$' -fuzztime 15s ./internal/core
go test -run '^$' -fuzz '^FuzzIndex$' -fuzztime 15s ./internal/core

# Kernel and decode floors, each the per-series minimum of three
# interleaved rounds: sparse >= 1.8x dense and bsr >= 1.15x sparse at
# p90 and dense no slower than bsr at p0 on the 4.5M-weight FC stack,
# and the AVX p-norm >= 2x the scalar loop on the served 400→80
# shape (BenchmarkForwardFloors), and the pooled decode path >= 1.5x
# the heap-allocation reference at p90 (BenchmarkDecodeFloor).
go test -run '^$' -bench '^Benchmark(ForwardFloors|DecodeFloor)$' -benchtime 1x \
	./internal/dnn .
