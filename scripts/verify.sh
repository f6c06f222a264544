#!/usr/bin/env bash
# Tier-1 verification gate: warnings-clean release build, the full test
# suite, and the chaos suite run on its own (it is the slowest target and
# the one most worth seeing in isolation when it fails).
#
# Usage: scripts/verify.sh   (from the workspace root)
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

echo "== static analysis gate =="
# The full multi-pass analyzer: lock discipline + wall clock (the old
# lint), static lock-order, determinism, panic-freedom, sleep-poll, and
# trace coverage, ratcheted by xtask/analyze.allow.
cargo run -q -p xtask -- analyze

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier 1: release build =="
cargo build --release

echo "== tier 1: test suite =="
# Every workspace member's tests (the root manifest's `default-members`).
cargo test -q

echo "== chaos suite =="
cargo test -q --test chaos

echo "== gcs chaos soak =="
# Control-plane faults: shard loss + disk recovery, flusher stalls, and
# seeded mixed schedules. The shard-loss scenario runs twice with the
# same seed and asserts identical trace signatures (determinism gate).
# Three times over: the chain's failure path (timeout, report, splice,
# retry) is all timing, and each run is a few seconds.
for _ in 1 2 3; do
    cargo test -q --test gcs_chaos
done

echo "== cancel chaos soak =="
# Cancellation, deadline propagation, and admission control under load:
# cancel mid-queue / mid-run, a deadline cascading through a child chain,
# shed-under-burst drain, and a same-seed trace-signature determinism
# gate over a mixed kill + straggler + cancel schedule.
cargo test -q --test cancel_chaos

echo "== serve chaos soak =="
# The serving layer under fire: replica kill + GCS-shard kill under
# closed-loop load (zero failed requests with budget left, bounded p99
# blip, recovery arc pinned by trace asserts), a same-seed recovery
# trace-signature determinism gate, hedged-request dedup (loser
# cancelled, no duplicate side effects), and SLO/scale-down accounting.
cargo test -q --test serve_chaos

echo "== trace smoke =="
# A traced bench run must produce a Chrome trace with at least one task
# span on every node; trace-check also validates the JSON end to end.
trace_out="$(mktemp /tmp/rustray-trace.XXXXXX.json)"
trap 'rm -f "$trace_out"' EXIT
./target/release/fig08a_locality --quick --trace-out "$trace_out" >/dev/null
cargo run -q -p xtask -- trace-check "$trace_out" --expect-nodes 2

echo "== perf smoke =="
# The benchmark (perf/, its own offline workspace) must still build against
# the crates and pass its unit tests, and a short timed run of every
# workload must verify every output: task_storm checks `inc` results and
# counts every id a `wait` did not return or a submit refused, object_flow
# checks the checksum of every payload it pulled across nodes,
# ring_allreduce compares each reduced buffer with `==`, so a lost
# notification, a torn fetch or a broken collective cannot pass this gate.
perf_manifest=perf/Cargo.toml
cargo test -q --release --offline --manifest-path "$perf_manifest"
for workload in task_storm object_flow ring_allreduce serve_steady; do
    result="$(cargo run -q --release --offline --manifest-path "$perf_manifest" -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)"
    echo "$workload: $result"
    if [[ "$result" != *'"correct":true'* || "$result" != *'"failed":0,'* ]]; then
        echo "perf smoke: $workload reported a wrong or failed operation" >&2
        exit 1
    fi
done

if [[ "${VERIFY_MIRI:-0}" == "1" ]]; then
    echo "== miri smoke (opt-in) =="
    # Undefined-behaviour smoke over the sync layer's unit tests. Needs
    # `rustup +nightly component add miri`; opt in with VERIFY_MIRI=1.
    cargo +nightly miri test -p ray-common sync
fi

if [[ "${VERIFY_TSAN:-0}" == "1" ]]; then
    echo "== thread sanitizer soak (opt-in) =="
    scripts/tsan.sh
fi

echo "== code lines per crate (information) =="
scripts/loc.sh

echo "verify: OK"
