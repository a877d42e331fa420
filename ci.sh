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

# The dense panel and 8×8 BSR kernels have AVX bodies in amd64
# assembly (asmdecl checks them in the vet above) and portable Go
# bodies everywhere else: vet the packages for arm64 too, and build the
# whole tree there, so the portable build stays checked.
GOARCH=arm64 go vet ./internal/mat ./internal/sparse ./internal/dnn
GOARCH=arm64 go build ./...

# The godoc audit (every package carries a package doc comment) and
# the docs-link audit (every file under docs/ is reachable from
# README.md or DESIGN.md) are Go tests in the root package
# (docs_audit_test.go) and run in the test legs below.
go build ./...
go test -race ./...

# Serving stress leg: the session-lifecycle tests repeated in shuffled
# order under the race detector, so a reintroduced ordering race
# between a session's terminal reply and the server's bookkeeping
# (slot release, Served(), sessions_active) fails here rather than
# intermittently later. The root package's TestFleetProcesses runs
# twenty times too; it builds its binaries and trains its models once
# per test binary.
go test -race -count=20 -shuffle=on ./internal/serve ./internal/router .

# Frame codec fuzz leg: a bounded run of FuzzFrameCodec, which pins the
# base64 float64 frame line against encoding/json in both directions
# (every line the server's fast path accepts, encoding/json accepts into
# the same bits) and the refusal of NaN and ±Inf on both ends.
go test -run '^$' -fuzz '^FuzzFrameCodec$' -fuzztime 15s ./internal/serve

# Kernel fuzz leg: a bounded run of FuzzKernels, the differential
# dense == sparse == bsr check on random shapes and masks. It is the
# float kernels' one bit-identity check beyond the fixed-shape plan
# tests; the test run above only replays its seed corpus.
go test -run '^$' -fuzz '^FuzzKernels$' -fuzztime 15s ./internal/dnn

# Model-file fuzz leg: a bounded run of FuzzLoad. A model file is
# untrusted input that a SIGHUP reload hands to a live server: Load
# must never panic, and every net it accepts must compile under each
# backend and score a frame.
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 15s ./internal/dnn

# Decode smokes: train tiny models with race-built binaries, then
# drive asrdecode and darkside end to end. Serving binaries are pinned
# in Go instead: benchmark's TestServedSmoke (one asrserve, and a
# routed pair) and the root package's TestFleetProcesses (manifest
# backends, router parity, SIGHUP under traffic, clean drains), both
# in the test runs above.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -race -o "$smoke" ./cmd/asrtrain ./cmd/asrdecode ./cmd/darkside
"$smoke"/asrtrain -scale tiny -out "$smoke/models" >/dev/null

# Backend-parity smoke: decode the same pruned model with the dense
# and the CSR sparse scoring kernels forced, and require byte-for-byte
# identical output (transcripts, stats, WER). This is the user-visible
# face of the bit-identity contract in DESIGN.md §6c.
"$smoke"/asrdecode -scale tiny -model "$smoke/models/tiny-prune90.model" \
	-backend dense >"$smoke/decode.dense"
"$smoke"/asrdecode -scale tiny -model "$smoke/models/tiny-prune90.model" \
	-backend sparse >"$smoke/decode.sparse"
if ! cmp -s "$smoke/decode.dense" "$smoke/decode.sparse"; then
	echo "backend parity broken: dense and sparse decodes differ:" >&2
	diff "$smoke/decode.dense" "$smoke/decode.sparse" >&2 || true
	exit 1
fi
echo "backend parity smoke ok (dense == sparse byte-for-byte)"

# BSR backend-parity leg: the block-pruned model decoded with the
# dense and the bsr block-sparse kernels forced must also match
# byte-for-byte — same bit-identity contract, block layout
# (docs/BLOCK.md).
"$smoke"/asrdecode -scale tiny -model "$smoke/models/tiny-block90.model" \
	-backend dense >"$smoke/decode.block.dense"
"$smoke"/asrdecode -scale tiny -model "$smoke/models/tiny-block90.model" \
	-backend bsr >"$smoke/decode.block.bsr"
if ! cmp -s "$smoke/decode.block.dense" "$smoke/decode.block.bsr"; then
	echo "backend parity broken: dense and bsr decodes differ:" >&2
	diff "$smoke/decode.block.dense" "$smoke/decode.block.bsr" >&2 || true
	exit 1
fi
echo "bsr backend parity smoke ok (dense == bsr byte-for-byte on the block-pruned model)"

# The int8 error budget of docs/QUANT.md (top-1 agreement >= 99%, WER
# within 0.5 absolute points of float) has no decode smoke: int8 is not
# a -backend. The experiments package's TestInt8TableWithinErrorBudget
# pins both halves on the int8 pass under -race above.

# Adaptive-controller smoke: run the scenario matrix (which includes
# the noisy 90%-pruned scenario, the paper's worst case) twice at tiny
# scale and require byte-identical output — the user-visible face of
# the adaptive determinism contract in docs/ADAPTIVE.md. The archive
# under docs/results-adaptive/ is regenerated from exactly this
# command.
"$smoke"/darkside -scale tiny -only adaptive >"$smoke/adaptive.1" 2>/dev/null
"$smoke"/darkside -scale tiny -only adaptive >"$smoke/adaptive.2" 2>/dev/null
if ! cmp -s "$smoke/adaptive.1" "$smoke/adaptive.2"; then
	echo "adaptive determinism broken: two scenario-matrix runs differ:" >&2
	diff "$smoke/adaptive.1" "$smoke/adaptive.2" >&2 || true
	exit 1
fi
if ! grep -q '^noisy *90%' "$smoke/adaptive.1"; then
	echo "adaptive smoke missing the noisy 90% scenario rows:" >&2
	cat "$smoke/adaptive.1" >&2
	exit 1
fi
echo "adaptive smoke ok (scenario matrix byte-stable across runs)"

# Distil the forward benches into BENCH_dnn.json and enforce the
# acceptance floors on the 4.5M-weight FC stack: sparse >= 1.8x faster
# than dense at p90, bsr >= 1.15x faster than CSR sparse at p90 at equal
# global sparsity (block-pruned layout, docs/BLOCK.md), and dense no
# slower than bsr at p0, where bsr stores every tile and skips nothing.
# The last gate pins the dense kernel's lead: dense lost to bsr/p0
# while each dense row was one serial add chain, and with bsr on AVX
# tiles it holds because the dense panels read two weight streams per
# pass. The sparse floor is the ratio measured against the row-blocked
# dense over ten runs (lower quartile 2.82x, median 2.95x) divided by
# 1.5 and rounded down.
# The whole bench runs 3 times and the distiller keeps the
# per-series minimum — min-of-3 is the standard way to gate on the
# machine, not the noise. Three separate runs, not -count=3: -count
# repeats each series back to back within a few milliseconds, so one
# burst of host load can spoil all three samples of a series at once.
: >"$smoke/bench.out"
for _ in 1 2 3; do
	go test -run '^$' -bench '^BenchmarkForward' -benchtime=15x \
		./internal/dnn >>"$smoke/bench.out"
done
cat "$smoke/bench.out"
awk '
	/^BenchmarkForward\// {
		split($1, p, "/"); sub(/-[0-9]+$/, "", p[3])
		k = p[2] "/" p[3]
		if (!(k in ns) || $3 + 0 < ns[k] + 0) ns[k] = $3
	}
	/^BenchmarkForwardAuto/ {
		if (!("auto/p90" in ns) || $3 + 0 < ns["auto/p90"] + 0) ns["auto/p90"] = $3
	}
	END {
		printf "{\n  \"bench\": \"BenchmarkForward\", \"unit\": \"ns/op\",\n"
		printf "  \"dense\":  {\"p0\": %s, \"p50\": %s, \"p90\": %s},\n", ns["dense/p0"], ns["dense/p50"], ns["dense/p90"]
		printf "  \"sparse\": {\"p0\": %s, \"p50\": %s, \"p90\": %s},\n", ns["sparse/p0"], ns["sparse/p50"], ns["sparse/p90"]
		printf "  \"bsr\":    {\"p0\": %s, \"p50\": %s, \"p90\": %s},\n", ns["bsr/p0"], ns["bsr/p50"], ns["bsr/p90"]
		printf "  \"auto\":   {\"p90\": %s},\n", ns["auto/p90"]
		speedup = ns["dense/p90"] / ns["sparse/p90"]
		bsrp90 = ns["sparse/p90"] / ns["bsr/p90"]
		bsrp0 = ns["bsr/p0"] / ns["dense/p0"]
		printf "  \"p90_speedup\": %.2f,\n", speedup
		printf "  \"p90_bsr_vs_sparse\": %.2f,\n", bsrp90
		printf "  \"p0_dense_vs_bsr\": %.2f\n}\n", bsrp0
		exit (speedup < 1.8 || bsrp90 < 1.15 || bsrp0 < 1) ? 1 : 0
	}' "$smoke/bench.out" >BENCH_dnn.json ||
	{ echo "forward bench floors broken: sparse < 1.8x dense at p90, bsr < 1.15x sparse at p90, or dense slower than bsr at p0 (see BENCH_dnn.json)" >&2; exit 1; }
echo "BENCH_dnn.json: $(grep -E 'p90_speedup|bsr_vs|vs_bsr' BENCH_dnn.json | tr -d '\n ')"

# Distil the decode benches into BENCH_decode.json and enforce the
# zero-allocation gate: a warmed pooled session must push frames with
# 0 allocs/op on both store designs, and the pooled path must beat the
# heap-allocation reference by >= 1.5x on the 90%-pruned workload.
go test -run '^$' -bench '^(BenchmarkDecodeUtterance|BenchmarkSessionPushFrame)$' \
	-benchmem -benchtime=30x . >"$smoke/bench_decode.out"
cat "$smoke/bench_decode.out"
awk '
	/^Benchmark(DecodeUtterance|SessionPushFrame)\// {
		key = $1; sub(/-[0-9]+$/, "", key); sub(/^Benchmark/, "", key)
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns[key] = $i
			if ($(i + 1) == "ns/frame") nf[key] = $i
			if ($(i + 1) == "allocs/op") al[key] = $i
		}
	}
	END {
		printf "{\n  \"bench\": \"BenchmarkDecodeUtterance\", \"unit\": \"ns/op\",\n"
		printf "  \"pooled\": {\"p0\": %s, \"p70\": %s, \"p90\": %s},\n", ns["DecodeUtterance/pooled/p0"], ns["DecodeUtterance/pooled/p70"], ns["DecodeUtterance/pooled/p90"]
		printf "  \"heap\":   {\"p90\": %s},\n", ns["DecodeUtterance/heap/p90"]
		printf "  \"ns_per_frame\": {\"pooled_p90\": %s, \"heap_p90\": %s},\n", nf["DecodeUtterance/pooled/p90"], nf["DecodeUtterance/heap/p90"]
		printf "  \"push_frame_allocs\": {\"unbounded\": %s, \"nbest\": %s},\n", al["SessionPushFrame/unbounded"], al["SessionPushFrame/nbest"]
		speedup = ns["DecodeUtterance/heap/p90"] / ns["DecodeUtterance/pooled/p90"]
		printf "  \"p90_speedup\": %.2f\n}\n", speedup
		exit (speedup < 1.5 || al["SessionPushFrame/unbounded"] + al["SessionPushFrame/nbest"] > 0) ? 1 : 0
	}' "$smoke/bench_decode.out" >BENCH_decode.json ||
	{ echo "decode gate failed: pooled p90 under the 1.5x floor or steady-state allocs/op > 0 (see BENCH_decode.json)" >&2; exit 1; }
echo "BENCH_decode.json: $(grep p90_speedup BENCH_decode.json)"
