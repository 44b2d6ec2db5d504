#!/usr/bin/env bash
# Full offline CI gate: build, tests, docs, lints. Everything runs with
# --offline — the build environment has no registry access (see
# vendor/README.md), so a network fetch attempt is itself a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build (release)"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --release --offline -q

echo "==> cargo doc (no warnings allowed)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo clippy (no warnings allowed)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> qbench package (builds against the workspace API; unit tests pass)"
# qbench is its own package (crates/bench/src/bin/qbench/Cargo.toml, outside
# the workspace), so the workspace steps above never compile it. A
# workspace API change that breaks it must fail here, not in a benchmark
# run.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q \
    --manifest-path crates/bench/src/bin/qbench/Cargo.toml

echo "==> qbench smoke run (every check on all four workloads, 1 s each)"
# Runs the served system end to end: stats.events, probe accuracy,
# merged counts, quota, recovery.bit_identical and a clean exit. A failed
# check or operation exits non-zero.
bash crates/bench/src/bin/qbench/run.sh run --smoke

echo "==> single-stream scaling smoke run (tiny, 1 and 2 threads, one part key per shard)"
cargo run --release --offline -p qsketch-bench --bin ext_parallel_scaling -- \
    --tiny --threads 1,2 --metrics

echo "==> concurrent-ingest stress suite (ring handoff, epoch publication, per-key determinism)"
cargo test --release --offline -q --test concurrent_engine
cargo test --release --offline -q --test parallel_engine

echo "==> zero-allocation gate (counting allocator proves 0 allocs per warmed ingest frame)"
cargo test --release --offline -q --test alloc_gate

echo "==> wire-format round-trip smoke (all sketches, all datasets)"
cargo test --release --offline -q --test codec_roundtrip

echo "==> zero-copy view contract (quantile_from_bytes ≡ decode-then-query, corruption fuzz)"
cargo test --release --offline -q --test flatwire_view

echo "==> golden wire fixtures (committed legacy payloads still answer pinned bits)"
# tests/fixtures/wire/ holds one payload per frozen format generation
# plus expected.txt with the exact answer bits (FORMATS.md § Golden
# fixtures). A failure is a format compatibility break.
cargo test --release --offline -q --test wire_fixtures

echo "==> overflow checks on (debug profile: flatwire, registry checkpoint, golden fixtures, DDSketch store)"
# Every other test step runs --release, where integer overflow wraps
# silently. The prefix-varint and sorted-run decoders are shift, mask
# and add arithmetic on untrusted bytes, so run their tests, the
# registry reader's and the golden fixtures once with overflow checks on.
# DDSketch's dense store keeps u16/u32 count slots while its total fits;
# its tests (width_boundary crosses both limits) run here too, so a
# missed widening fails an overflow check or the debug_assert on the
# narrowing instead of wrapping.
cargo test --offline -q -p qsketch-core flatwire
cargo test --offline -q -p qsketch-streamsim checkpoint
cargo test --offline -q --test wire_fixtures
cargo test --offline -q -p qsketch-ddsketch

echo "==> batch-insert equivalence (bit-identical scalar vs batch state)"
cargo test --release --offline -q --test batch_insert_equivalence

echo "==> insert-throughput baseline (quick; fails on batch regression)"
# The bin exits non-zero and prints REGRESSION if any sketch's batch
# path falls >5% below its scalar path. It writes BENCH_insert.json to
# its cwd, so run it from a scratch dir inside the workspace — the
# committed full-scale BENCH_insert.json at the repo root is the
# durable baseline and must not be clobbered by the quick CI run.
scratch="target/ci-insert-bench"
mkdir -p "$scratch"
rm -f "$scratch/BENCH_insert.json"
(cd "$scratch" && cargo run --release --offline -p qsketch-bench --bin bench_insert_throughput -- --quick)
if [ ! -s "$scratch/BENCH_insert.json" ]; then
    echo "BENCH_insert.json missing or empty" >&2
    exit 1
fi
for key in ext_insert_throughput machine scalar_mvps batch_mvps speedup REQ KLL UDDS DDS Moments; do
    if ! grep -q "$key" "$scratch/BENCH_insert.json"; then
        echo "BENCH_insert.json malformed: missing $key" >&2
        exit 1
    fi
done

echo "==> concurrent-ingest baseline (quick; 2-producer smoke, fails on malformed JSON)"
# Exercises the lock-free handoff vs a mutex queue, wait-free queries
# under live ingest, and a 2-producer MPSC run. Quick-scale from a
# scratch dir so the committed BENCH_concurrent.json at the repo root
# (with its CPU caveat) stays the durable baseline.
scratch="target/ci-concurrent-bench"
mkdir -p "$scratch"
rm -f "$scratch/BENCH_concurrent.json"
(cd "$scratch" && cargo run --release --offline -p qsketch-bench --bin ext_concurrent_ingest -- --quick)
if [ ! -s "$scratch/BENCH_concurrent.json" ]; then
    echo "BENCH_concurrent.json missing or empty" >&2
    exit 1
fi
for key in ext_concurrent_ingest machine caveat mutex_ns_per_value ring_ns_per_value query_under_ingest p99_us epochs_observed one_meps two_meps; do
    if ! grep -q "$key" "$scratch/BENCH_concurrent.json"; then
        echo "BENCH_concurrent.json malformed: missing $key" >&2
        exit 1
    fi
done

echo "==> checkpoint smoke run (tiny: crash mid-stream, recover, replay tails, verify bit-identical)"
out=$(cargo run --release --offline -p qsketch-bench --bin ext_checkpoint -- --tiny)
echo "$out"
if echo "$out" | grep -q FAIL; then
    echo "checkpoint recovery verification FAILED" >&2
    exit 1
fi

echo "==> query-from-bytes regression gate (view must not regress past decode-then-query)"
# The table's `q bytes µs` column (field 10 of each 11-field data row)
# is the zero-copy SketchView quantile; `q dec µs` (field 11) decodes
# first; `recovery` (field 8, ok/FAIL) anchors the data rows. The flat
# layout's whole point is that the view path wins, so a
# view slower than 1.10 × decode is a regression — except Moments,
# whose view deliberately routes through decode (FORMATS.md), so it
# only has to stay within noise (1.5 ×) of the decode path.
echo "$out" | awk '
    NF == 11 && $1 ~ /:/ && ($8 == "ok" || $8 == "FAIL") {
        limit = ($1 ~ /^moments/) ? 1.5 : 1.10
        if ($10 + 0 > ($11 + 0) * limit) {
            printf "REGRESSION: %s quantile_from_bytes %sus > %.2f x decode-then-query %sus\n", $1, $10, limit, $11
            bad = 1
        }
        rows++
    }
    END {
        if (rows < 5) { print "query-latency gate parsed " rows " rows, expected 5"; exit 1 }
        exit bad
    }
' || { echo "query-from-bytes latency regression" >&2; exit 1; }

echo "==> bad sketch specs are refused before the server listens"
# A spec its sketch cannot run (alpha 1.5 panics DDSketch's mapping on the
# first ingest; alpha 1e-17 rounds UDDSketch's gamma to 1) must fail the
# parse: exit non-zero, print "bad sketch spec", never print "listening
# on". Each command runs under timeout, so a build that accepts the spec
# fails here instead of serving forever.
bad_dir="target/ci-bad-spec"
rm -rf "$bad_dir"
mkdir -p "$bad_dir"
refused() { # $1 = exit status, $2 = output file
    if [ "$1" -eq 0 ] || [ "$1" -eq 124 ] || ! grep -q "bad sketch spec" "$2"; then
        echo "bad sketch spec not refused (exit $1):" >&2
        cat "$2" >&2
        exit 1
    fi
}
status=0
timeout 10 ./target/release/qsketch_server --addr 127.0.0.1:0 --sketch dds:1.5 \
    > "$bad_dir/server.out" 2>&1 || status=$?
refused "$status" "$bad_dir/server.out"
if grep -q "listening on" "$bad_dir/server.out"; then
    echo "qsketch_server listened with a bad sketch spec" >&2
    exit 1
fi
status=0
timeout 10 ./target/release/ckpt_probe --sketch udds:1e-17:1024 "$bad_dir" 2 t k 0.5 \
    > "$bad_dir/probe.out" 2>&1 || status=$?
refused "$status" "$bad_dir/probe.out"
server_help=$(./target/release/qsketch_server --help)
for family in req kll udds dds moments; do
    if ! echo "$server_help" | grep -q "$family\[:"; then
        echo "qsketch_server --help does not name $family" >&2
        exit 1
    fi
done
echo "bad specs refused before listening; --help names all five families"

echo "==> server smoke (ingest, checkpoint, kill -9, recover, bit-identical re-query)"
# Drives the real binaries over real TCP: start durable, ingest, take a
# synchronous checkpoint, query (capturing exact result bits), kill -9,
# restart with --recover, and require the recovered answers bit-for-bit.
# The same kill -9 covers the rollup store spilled under --rollup-dir:
# its range answers must also come back bit-for-bit after the restart.
# A checkpoint right after recovery must rewrite the pre-crash files
# byte for byte (recover -> checkpoint is a fixed point).
SERVER=./target/release/qsketch_server
CLIENT=./target/release/qsketch_client
ckpt_dir="target/ci-server-smoke/ckpt"
server_log="target/ci-server-smoke/server.log"
rm -rf "target/ci-server-smoke"
mkdir -p "$ckpt_dir"

wait_ready() { # $1 = logfile; prints the listen address
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on \([^ ]*\) .*/\1/p' "$1")
        if [ -n "$addr" ]; then echo "$addr"; return 0; fi
        sleep 0.1
    done
    echo "server never became ready; log:" >&2; cat "$1" >&2; return 1
}

rollup_dir="target/ci-server-smoke/rollup"
# 50 windows of 1000 values over the default 1:16,4:16,16:16 ladder.
# Four range probes: tier-2 slots, a mid-cascade span mixing tiers, the
# newest fine windows, and a prefix whose fine slots aged out so tier 1
# answers. The count/merged_slots lines pin which slots each one hits.
range_probes() { # $1 = server address
    for range in "0 32" "16 50" "46 50" "0 4"; do
        echo "range $range"
        "$CLIENT" "$1" range acme api.latency $range 0.5 0.99
    done
}
range_shape="count=32000 merged_slots=2
count=34000 merged_slots=4
count=4000 merged_slots=4
count=4000 merged_slots=1"
"$SERVER" --addr 127.0.0.1:0 --shards 2 --ckpt-dir "$ckpt_dir" \
    --rollup-window 1000 --rollup-dir "$rollup_dir" > "$server_log" 2>&1 &
server_pid=$!
addr=$(wait_ready "$server_log")
"$CLIENT" "$addr" ingest-seq acme api.latency 0 50000
# Side keys put several entries in each shard's file, so the
# byte-identity check below also covers the order of the entries.
for k in 1 2 3 4 5 6 7 8; do
    "$CLIENT" "$addr" ingest-seq acme "side.$k" 0 1000 > /dev/null
done
"$CLIENT" "$addr" flush
"$CLIENT" "$addr" checkpoint
ckpt_copy="target/ci-server-smoke/ckpt-before"
mkdir -p "$ckpt_copy"
cp "$ckpt_dir"/registry-*.ckpt "$ckpt_copy"/
before=$("$CLIENT" "$addr" query acme api.latency 0.01 0.5 0.99)
echo "$before"
range_before=$(range_probes "$addr")
echo "$range_before"
if [ "$(echo "$range_before" | grep '^count=')" != "$range_shape" ]; then
    echo "rollup range probes did not hit the expected slots; want:" >&2
    echo "$range_shape" >&2
    exit 1
fi
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true

echo "==> offline recovery probe (pre-crash bits from the checkpoint dir, dir left unchanged)"
# Before restarting anything, prove the checkpoint directory alone can
# answer the same query: ckpt_probe recovers it the way --recover does,
# must print the same q=/count= lines the live server answered before
# the kill -9, and must not write anything under the directory.
listing() { find "$1" -printf '%P %s %T@\n' | sort; }
ckpt_listing=$(listing "$ckpt_dir")
probe_out=$(./target/release/ckpt_probe "$ckpt_dir" 2 acme api.latency 0.01 0.5 0.99)
echo "$probe_out"
if [ "$probe_out" != "$before" ]; then
    echo "probe answers differ from pre-crash answers:" >&2
    diff <(echo "$before") <(echo "$probe_out") >&2 || true
    exit 1
fi
if [ "$(listing "$ckpt_dir")" != "$ckpt_listing" ]; then
    echo "ckpt_probe changed the checkpoint directory:" >&2
    diff <(echo "$ckpt_listing") <(listing "$ckpt_dir") >&2 || true
    exit 1
fi

"$SERVER" --addr 127.0.0.1:0 --shards 2 --ckpt-dir "$ckpt_dir" --recover \
    --rollup-window 1000 --rollup-dir "$rollup_dir" > "$server_log" 2>&1 &
server_pid=$!
addr=$(wait_ready "$server_log")
after=$("$CLIENT" "$addr" query acme api.latency 0.01 0.5 0.99)
if [ "$before" != "$after" ]; then
    echo "recovered answers differ from pre-crash answers:" >&2
    diff <(echo "$before") <(echo "$after") >&2 || true
    exit 1
fi
range_after=$(range_probes "$addr")
if [ "$range_before" != "$range_after" ]; then
    echo "recovered rollup range answers differ from pre-crash answers:" >&2
    diff <(echo "$range_before") <(echo "$range_after") >&2 || true
    exit 1
fi
echo "recovered answers bit-identical (point query and rollup range query)"
"$CLIENT" "$addr" checkpoint
for copy in "$ckpt_copy"/registry-*.ckpt; do
    cmp "$copy" "$ckpt_dir/$(basename "$copy")" \
        || { echo "checkpoint after recovery rewrote $(basename "$copy") differently" >&2; exit 1; }
done
if [ "$(ls "$ckpt_copy" | wc -l)" -ne 2 ] || [ "$(ls "$ckpt_dir"/registry-*.ckpt | wc -l)" -ne 2 ]; then
    echo "expected 2 registry files before and after recovery" >&2; exit 1
fi
echo "recover -> checkpoint rewrote both registry files byte-identically"
# The recovered engine must keep ingesting: land another 10k values and
# require the count to grow exactly — recovery that serves stale reads
# but drops writes would pass the bit-identity check above.
"$CLIENT" "$addr" ingest-seq acme api.latency 50000 10000
"$CLIENT" "$addr" flush
post=$("$CLIENT" "$addr" query acme api.latency 0.5)
echo "$post"
if ! echo "$post" | grep -q "count=60000"; then
    echo "post-recovery ingest did not land (want count=60000): $post" >&2
    exit 1
fi
echo "post-recovery ingest round accepted (count grew to 60000)"
"$CLIENT" "$addr" shutdown
wait "$server_pid" 2>/dev/null || true
if ! grep -q "shutdown complete" "$server_log"; then
    echo "server did not report a clean shutdown; log:" >&2
    cat "$server_log" >&2
    exit 1
fi

echo "==> server stdout-closed smoke (clean shutdown exits 0 after stdout went away)"
# The reader of the server's stdout keeps only the "listening on" line
# and exits, so the final "shutdown complete" write hits a closed pipe
# (EPIPE). The server must ignore that write error, not panic.
epipe_dir="target/ci-server-epipe"
rm -rf "$epipe_dir"
mkdir -p "$epipe_dir"
"$SERVER" --addr 127.0.0.1:0 --shards 1 \
    > >(head -n 1 > "$epipe_dir/stdout") 2> "$epipe_dir/stderr" &
server_pid=$!
addr=$(wait_ready "$epipe_dir/stdout")
"$CLIENT" "$addr" shutdown
status=0
wait "$server_pid" || status=$?
if [ "$status" -ne 0 ]; then
    echo "server exited with status $status after its stdout closed; stderr:" >&2
    cat "$epipe_dir/stderr" >&2
    exit 1
fi
echo "server exited 0 with its stdout closed"

echo "==> server load gate (quick; throughput regression + allocs/frame budget)"
# Quick-scale runs from a scratch dir so the committed BENCH_server.json
# at the repo root stays the durable baseline. Two gates against it.
#
# Throughput: the target is "fail on >5% regression", but quick-scale
# loopback shares one CPU between client and server and swings ±25%
# with the host's credit-throttle state (measured 11.9–16.0 M
# single-op events/s across runs of the same binary), so the floor
# grants that spread on top of the 5%: the best of up to three
# attempts must reach 70% of the committed number on BOTH the
# single-op and the pipelined path. The precise regression gate for
# the zero-allocation claim is the deterministic allocs/frame budget
# below (and tests/alloc_gate.rs above) — those do not move with
# machine speed.
scratch="target/ci-server-bench"
mkdir -p "$scratch"
json_field() { # $1 = file, $2 = field name; FIRST occurrence wins
    # (the top-level single-op events_per_sec precedes the pipelined
    # one in the JSON)
    grep -o "\"$2\":[0-9.]*" "$1" | head -n 1 | cut -d: -f2
}
pipelined_field() { # events_per_sec inside the "pipelined" object
    grep -o '"pipelined":{"depth":[0-9]*,"events_per_sec":[0-9.]*' "$1" \
        | grep -o '[0-9.]*$'
}
baseline_eps=$(json_field BENCH_server.json events_per_sec)
baseline_pipe=$(pipelined_field BENCH_server.json)
budget_p50=$(json_field BENCH_server.json budget_p50)
if [ -z "$baseline_eps" ] || [ -z "$baseline_pipe" ] || [ -z "$budget_p50" ]; then
    echo "committed BENCH_server.json is missing baseline fields" >&2
    exit 1
fi
throughput_ok=""
fresh_p50=""
for attempt in 1 2 3; do
    rm -f "$scratch/BENCH_server.json"
    (cd "$scratch" && cargo run --release --offline -p qsketch-bench --bin bench_server_load -- --quick)
    if [ ! -s "$scratch/BENCH_server.json" ]; then
        echo "BENCH_server.json missing or empty" >&2
        exit 1
    fi
    for key in ext_server_load machine events_per_sec pipelined allocs_per_frame isolation quiet_ack_us; do
        if ! grep -q "$key" "$scratch/BENCH_server.json"; then
            echo "BENCH_server.json malformed: missing $key" >&2
            exit 1
        fi
    done
    fresh_eps=$(json_field "$scratch/BENCH_server.json" events_per_sec)
    fresh_pipe=$(pipelined_field "$scratch/BENCH_server.json")
    fresh_p50=$(sed -n 's/.*"allocs_per_frame":{[^}]*"p50":\([0-9]*\).*/\1/p' "$scratch/BENCH_server.json")
    if [ -z "$fresh_p50" ]; then
        echo "allocs_per_frame p50 missing from fresh JSON" >&2
        exit 1
    fi
    if [ "$fresh_p50" -gt "$budget_p50" ]; then
        echo "REGRESSION: allocs/frame p50 = $fresh_p50 exceeds committed budget $budget_p50" >&2
        exit 1
    fi
    if awk -v base="$baseline_eps" -v fresh="$fresh_eps" \
           -v pbase="$baseline_pipe" -v pfresh="$fresh_pipe" 'BEGIN {
        if (base + 0 <= 0 || fresh + 0 <= 0 || pbase + 0 <= 0 || pfresh + 0 <= 0) exit 1
        if (fresh < base * 0.70) exit 1
        if (pfresh < pbase * 0.70) exit 1
        printf "throughput ok: %.2f M single-op / %.2f M pipelined events/s (baseline %.2f / %.2f M)\n", \
            fresh / 1e6, pfresh / 1e6, base / 1e6, pbase / 1e6
    }'; then
        throughput_ok=1
        break
    fi
    echo "attempt $attempt below floor: ${fresh_eps:-?} single-op / ${fresh_pipe:-?} pipelined (need 70% of $baseline_eps / $baseline_pipe)"
done
if [ -z "$throughput_ok" ]; then
    echo "REGRESSION: throughput below 70% of committed baseline on 3 attempts" >&2
    exit 1
fi
echo "allocs/frame ok: p50 = $fresh_p50 (budget $budget_p50)"

echo "==> rollup cascade baseline (quick; fails on malformed JSON)"
# Quick-scale run from a scratch dir so the committed full-scale
# BENCH_rollup.json at the repo root stays the durable baseline.
scratch="target/ci-rollup-bench"
mkdir -p "$scratch"
rm -f "$scratch/BENCH_rollup.json"
(cd "$scratch" && cargo run --release --offline -p qsketch-bench --bin ext_rollup_cascade -- --quick --runs 1)
if [ ! -s "$scratch/BENCH_rollup.json" ]; then
    echo "BENCH_rollup.json missing or empty" >&2
    exit 1
fi
for key in ext_rollup_cascade machine tier_widths mean_rel_err alpha_deepest REQ KLL UDDS DDS Moments UDDS-fused; do
    if ! grep -q "$key" "$scratch/BENCH_rollup.json"; then
        echo "BENCH_rollup.json malformed: missing $key" >&2
        exit 1
    fi
done

echo "==> markdown link check (PROTOCOL.md / OPERATIONS.md doc set)"
bash ci/linkcheck.sh

echo "All checks passed."
