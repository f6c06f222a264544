#!/usr/bin/env bash
# An A/B of two `perf` binaries on one workload, in alternating pairs: each
# pair runs both sides once for 20 s, end to end (`--trace 0`), and the
# side that goes first swaps from one pair to the next, so a host that
# drifts over a pair charges both sides alike. Prints every pair, then per end-to-end
# metric each side's median and quartiles, the change's median as a ratio
# of the parent's, and the pairs the change won (lower is better for every
# metric but `ops_per_s`).
#
# Usage: scripts/ab_pairs.sh <parent-perf> <change-perf> <workload> [pairs] [seed]
#   pairs   number of pairs (default 10)
#   seed    workload seed (default 1)
# Build each binary from its own checkout first, e.g.
#   CARGO_TARGET_DIR=<dir> cargo build --release --offline --manifest-path perf/Cargo.toml
# Needs python3. Writes nothing; not part of scripts/verify.sh.
set -euo pipefail

parent="${1:?usage: scripts/ab_pairs.sh <parent-perf> <change-perf> <workload> [pairs] [seed]}"
change="${2:?usage: scripts/ab_pairs.sh <parent-perf> <change-perf> <workload> [pairs] [seed]}"
workload="${3:?usage: scripts/ab_pairs.sh <parent-perf> <change-perf> <workload> [pairs] [seed]}"
pairs="${4:-10}"
seed="${5:-1}"

# One end-to-end run; its last stdout line is the result JSON.
run() {
    "$1" --workload "$workload" --seed "$seed" --seconds 20 --trace 0 | tail -n 1
}

results=""
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        p="$(run "$parent")"
        c="$(run "$change")"
    else
        c="$(run "$change")"
        p="$(run "$parent")"
    fi
    results+="$p"$'\t'"$c"$'\n'
done

RESULTS="$results" python3 - <<'PY'
import json
import os
import statistics

METRICS = ["ops_per_s", "cpu_us_per_op", "op_p50_us", "setup_s"]
HIGHER = {"ops_per_s"}
rows = [line.split("\t") for line in os.environ["RESULTS"].splitlines() if line]
pairs = [(json.loads(p), json.loads(c)) for p, c in rows]


def value(run, metric):
    return run["metrics"][metric]["value"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


print("pair  side    " + "".join(f"{m:>16}" for m in METRICS) + "  correct  failed")
for i, (p, c) in enumerate(pairs, 1):
    for side, run in (("parent", p), ("change", c)):
        cells = "".join(f"{value(run, m):>16.6g}" for m in METRICS)
        correct, failed = run["correct"], run["failed"]
        print(f"{i:>4}  {side:<6}  {cells}  {str(correct):>7} {failed:>7}")
print()
head = ("metric", "parent q1/median/q3", "change q1/median/q3", "ratio", "won")
print(f"{head[0]:<14} {head[1]:>30} {head[2]:>30} {head[3]:>7} {head[4]:>7}")
for m in METRICS:
    ps = [value(p, m) for p, _ in pairs]
    cs = [value(c, m) for _, c in pairs]
    if m in HIGHER:
        won = sum(c > p for p, c in zip(ps, cs))
    else:
        won = sum(c < p for p, c in zip(ps, cs))
    pq, cq = quartiles(ps), quartiles(cs)
    fmt = "/".join
    p_cell = fmt(f"{x:.6g}" for x in pq)
    c_cell = fmt(f"{x:.6g}" for x in cq)
    print(f"{m:<14} {p_cell:>30} {c_cell:>30} {cq[1] / pq[1]:>7.3f} {won:>3}/{len(pairs):<3}")
PY
