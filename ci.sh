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

# Godoc audit: every package (and command) must carry a package-level
# doc comment — the convention godoc renders and docs/OBSERVABILITY.md
# links into.
for d in $(go list -f '{{.Dir}}' ./...); do
	if ! grep -l -E '^// (Package|Command) ' "$d"/*.go >/dev/null 2>&1; then
		echo "missing package doc comment in $d" >&2
		exit 1
	fi
done

go build ./...
go test -race ./...

# Serving stress leg: the session-lifecycle tests repeated in shuffled
# order under the race detector, so a reintroduced ordering race
# between a session's terminal reply and the server's bookkeeping
# (slot release, Served(), sessions_active) fails here rather than
# intermittently later.
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

# Server smoke test: train a tiny model, start asrserve on a random
# port, stream the test set through asrload (both race-built), then
# SIGTERM and require a clean drain (exit 0). Pins the binaries'
# wiring end to end — flag parsing, model loading, the wire protocol,
# and signal handling — which unit tests can't.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -race -o "$smoke" ./cmd/asrtrain ./cmd/asrserve ./cmd/asrload ./cmd/asrdecode ./cmd/asrrouter ./cmd/asrbench ./cmd/darkside
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

# Docs-link audit: every file under docs/ must be reachable from
# README.md or DESIGN.md by following relative markdown links
# (transitively), so no document or archived result can go orphaned.
reach="$smoke/docs.reach"
printf 'README.md\nDESIGN.md\n' >"$reach"
while :; do
	cp "$reach" "$reach.prev"
	while IFS= read -r f; do
		[ -f "$f" ] || continue
		d=$(dirname "$f")
		grep -oE '\]\([^)]+\)' "$f" 2>/dev/null |
			sed -e 's/^](//' -e 's/)$//' -e 's/#.*$//' |
			while IFS= read -r t; do
				[ -n "$t" ] || continue
				case $t in http://*|https://*|mailto:*) continue ;; esac
				p=$(realpath -m --relative-to=. "$d/$t" 2>/dev/null) || continue
				[ -f "$p" ] && echo "$p"
			done
	done <"$reach.prev" >>"$reach"
	sort -u "$reach" -o "$reach"
	cmp -s "$reach" "$reach.prev" && break
done
orphans=$(find docs -type f | sort | grep -vxF -f "$reach" || true)
if [ -n "$orphans" ]; then
	echo "docs files not reachable from README.md/DESIGN.md:" >&2
	echo "$orphans" >&2
	exit 1
fi
echo "docs link audit ok ($(find docs -type f | wc -l) files reachable)"

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
"$smoke"/asrserve -scale tiny -model "$smoke/models/tiny-prune90.model" \
	-addr localhost:0 >"$smoke/serve.out" 2>"$smoke/serve.err" &
server=$!
addr=
for _ in $(seq 1 100); do
	addr=$(sed -n 's/^listening on //p' "$smoke/serve.out" 2>/dev/null)
	[ -n "$addr" ] && break
	if ! kill -0 "$server" 2>/dev/null; then
		echo "asrserve exited before listening:" >&2
		cat "$smoke/serve.err" >&2
		exit 1
	fi
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "asrserve never printed its address" >&2
	kill "$server" 2>/dev/null
	exit 1
fi
"$smoke"/asrload -scale tiny -addr "$addr" -sessions 16
kill -TERM "$server"
if ! wait "$server"; then
	echo "asrserve did not drain cleanly on SIGTERM:" >&2
	cat "$smoke/serve.err" >&2
	exit 1
fi
echo "server smoke test ok ($addr)"

# Router smoke test: two multi-model asrserve backends (dense and
# sparse variants of the same pruned model, and a block-pruned model on
# bsr) behind asrrouter, mixed per-model traffic from asrload,
# byte-identical transcripts through the router vs direct, and one
# SIGHUP hot-swap under live traffic with a clean drain at the end. All
# binaries are race-built.
cat >"$smoke/models/manifest.json" <<'EOF'
{
  "default": "tiny-dense",
  "variants": [
    {"name": "tiny-dense",  "model": "tiny-prune90.model", "backend": "dense"},
    {"name": "tiny-sparse", "model": "tiny-prune90.model", "backend": "sparse"},
    {"name": "tiny-bsr",    "model": "tiny-block90.model", "backend": "bsr"}
  ]
}
EOF

# await_addr PIDVAR OUTFILE ERRFILE: wait for "listening on HOST:PORT"
# and echo the address; fails the script if the process dies first.
await_addr() {
	pid=$1; out=$2; errf=$3; a=
	for _ in $(seq 1 100); do
		a=$(sed -n 's/^listening on //p' "$out" 2>/dev/null)
		[ -n "$a" ] && break
		if ! kill -0 "$pid" 2>/dev/null; then
			echo "process $pid exited before listening:" >&2
			cat "$errf" >&2
			exit 1
		fi
		sleep 0.1
	done
	if [ -z "$a" ]; then
		echo "process $pid never printed its address" >&2
		exit 1
	fi
	echo "$a"
}

"$smoke"/asrserve -scale tiny -manifest "$smoke/models/manifest.json" \
	-addr localhost:0 >"$smoke/b1.out" 2>"$smoke/b1.err" &
backend1=$!
"$smoke"/asrserve -scale tiny -manifest "$smoke/models/manifest.json" \
	-addr localhost:0 >"$smoke/b2.out" 2>"$smoke/b2.err" &
backend2=$!
addr1=$(await_addr "$backend1" "$smoke/b1.out" "$smoke/b1.err")
addr2=$(await_addr "$backend2" "$smoke/b2.out" "$smoke/b2.err")
"$smoke"/asrrouter -backends "$addr1,$addr2" \
	-addr localhost:0 >"$smoke/rt.out" 2>"$smoke/rt.err" &
routerpid=$!
raddr=$(await_addr "$routerpid" "$smoke/rt.out" "$smoke/rt.err")

# Mixed-model traffic direct to a backend vs through the router: the
# per-utterance transcript lines must be byte-for-byte identical.
"$smoke"/asrload -scale tiny -addr "$addr1" -sessions 8 \
	-models tiny-dense,tiny-sparse,tiny-bsr -v >"$smoke/load.direct"
"$smoke"/asrload -scale tiny -addr "$raddr" -sessions 8 \
	-models tiny-dense,tiny-sparse,tiny-bsr -v >"$smoke/load.routed"
grep '^utt ' "$smoke/load.direct" >"$smoke/utt.direct"
grep '^utt ' "$smoke/load.routed" >"$smoke/utt.routed"
if ! cmp -s "$smoke/utt.direct" "$smoke/utt.routed"; then
	echo "router parity broken: routed and direct transcripts differ:" >&2
	diff "$smoke/utt.direct" "$smoke/utt.routed" >&2 || true
	exit 1
fi

# Hot-swap under live traffic: SIGHUP backend 1 while a routed load is
# streaming. In-flight sessions must finish on their pinned plans
# (asrload exits non-zero on any failed utterance) and — since the
# reloaded file holds the same weights — transcripts stay identical.
"$smoke"/asrload -scale tiny -addr "$raddr" -sessions 8 \
	-models tiny-dense,tiny-sparse,tiny-bsr -v >"$smoke/load.swap" &
loadpid=$!
sleep 0.3
kill -HUP "$backend1"
if ! wait "$loadpid"; then
	echo "asrload failed across the SIGHUP hot-swap" >&2
	exit 1
fi
if ! grep -q 'SIGHUP: reloaded' "$smoke/b1.err"; then
	echo "backend 1 did not log the SIGHUP reload:" >&2
	cat "$smoke/b1.err" >&2
	exit 1
fi
grep '^utt ' "$smoke/load.swap" >"$smoke/utt.swap"
if ! cmp -s "$smoke/utt.direct" "$smoke/utt.swap"; then
	echo "hot-swap broke transcript parity:" >&2
	diff "$smoke/utt.direct" "$smoke/utt.swap" >&2 || true
	exit 1
fi

# Tear the fleet down: router first, then the backends; every process
# must drain cleanly (exit 0).
for victim in "$routerpid" "$backend1" "$backend2"; do
	kill -TERM "$victim"
done
for victim in "$routerpid" "$backend1" "$backend2"; do
	if ! wait "$victim"; then
		echo "process $victim did not drain cleanly on SIGTERM" >&2
		cat "$smoke/rt.err" "$smoke/b1.err" "$smoke/b2.err" >&2
		exit 1
	fi
done
echo "router smoke test ok (router $raddr -> $addr1, $addr2; hot-swap clean)"

# Corpus-scale serving bench: replay a tiny mixed-profile corpus
# open-loop up a rate ladder tall enough to cross the saturation knee
# on any plausible machine (race-built, so capacity is ~10x below a
# plain build). Distils BENCH_serve.json (docs/BENCHMARKING.md has the
# field reference) and enforces the fleet-level floors: the knee must
# actually be found and sustained throughput must clear a
# conservative floor.
"$smoke"/asrbench -scale tiny -model "$smoke/models/tiny-prune90.model" \
	-utts 48 -rates 6,12,24,48,96,192,384,768 -slo 500ms \
	-json BENCH_serve.json >"$smoke/bench_serve.out"
tail -n 3 "$smoke/bench_serve.out"
awk -F': *' '
	/"found":/                    { found = ($2 ~ /true/) }
	/"sustained_frames_per_sec":/ { gsub(/,/, "", $2); sfs = $2 + 0 }
	END {
		if (!found) { print "saturation knee not crossed: raise the -rates ladder" > "/dev/stderr"; exit 1 }
		if (sfs < 400) { printf "sustained throughput %.0f frames/s under the 400 floor\n", sfs > "/dev/stderr"; exit 1 }
		printf "BENCH_serve.json: knee %.0f frames/s sustained\n", sfs
	}' BENCH_serve.json ||
	{ echo "serving bench gate failed (see BENCH_serve.json)" >&2; exit 1; }
