#!/bin/sh
# Same-host ratio gates: each leg times two `mpgtool` verbs on one trace,
# back to back on the same host, best of three each, and fails when their
# ratio passes a fixed bound. A ratio of two walls taken seconds apart
# needs no host-speed scaling and no recorded snapshot: a slow hour on the
# host moves both walls and not the verdict. Run by ./lint.sh and CI
# against target/release/mpgtool, which must already be built.
set -eu
cd "$(dirname "$0")"
MPGTOOL=target/release/mpgtool
RATIO_TMP="$(mktemp -d)"
trap 'rm -rf "$RATIO_TMP"' EXIT

# best_ms CMD...: least wall-clock milliseconds over three runs.
best_ms() {
    best=""
    for _ in 1 2 3; do
        t0=$(date +%s%N)
        "$@" >/dev/null
        t1=$(date +%s%N)
        ms=$(( (t1 - t0) / 1000000 ))
        if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then
            best=$ms
        fi
    done
    echo "$best"
}

# gate WHAT BOUND_PCT NUM_MS DEN_MS: fail unless NUM_MS <= BOUND_PCT% of DEN_MS.
gate() {
    if [ $(( 100 * $3 )) -gt $(( $2 * $4 )) ]; then
        echo "ratios: FAIL: $1: $3 ms over $4 ms is above $2%" >&2
        exit 1
    fi
    echo "    $1: $3 ms over $4 ms"
}

# ROADMAP aim 1's target as a check: a cold `analyze` may cost at most 10x
# the out-of-core replay of the same trace. Measured 4.3-4.7x; a CSR build
# per rank or a hash per node touch on the analyze path puts it at 20x.
echo "==> cold analyze <= 10x replay --ooc (stencil, 256 ranks, scale 4)"
T="$RATIO_TMP/stencil-256"
"$MPGTOOL" gen --workload stencil --ranks 256 --scale 4 "$T" >/dev/null
analyze_ms=$(best_ms "$MPGTOOL" analyze "$T" --json)
replay_ms=$(best_ms "$MPGTOOL" replay "$T" --ooc)
gate "analyze --json / replay --ooc" 1000 "$analyze_ms" "$replay_ms"

# The lint passes on a long ring (16 ranks, 256 032 events, 3 200 eager
# messages per receiver): `lint --all` may cost at most 1.75x the `analyze
# --json` of the same trace — both build the same recorded graph, so the
# ratio is what the passes add. Measured 1.0-1.2x; a pass that asks
# happens-before once per (receive, send) pair of a receiver puts it at
# 2.3-2.6x here, and further with every doubling of the trace, because
# that cost is quadratic.
echo "==> lint --all <= 1.75x analyze --json (ring, 16 ranks, scale 40)"
T="$RATIO_TMP/ring-16"
# The simulator is one thread per rank: pinned to one CPU it generates the
# trace several times faster.
PIN=""
if command -v taskset >/dev/null 2>&1; then
    PIN="taskset -c 0"
fi
$PIN "$MPGTOOL" gen --workload ring --ranks 16 --scale 40 "$T" >/dev/null
lint_ms=$(best_ms "$MPGTOOL" lint "$T" --all)
analyze_ms=$(best_ms "$MPGTOOL" analyze "$T" --json)
gate "lint --all / analyze --json" 175 "$lint_ms" "$analyze_ms"

# The rank-proportional path: the benchmark's 128-rank stencil (53 776
# events, few per rank), where per-event happens-before work grows with the
# rank count. `lint --all` may cost at most 2.5x `analyze --json`. Measured
# 1.16-1.38x, and 1.54-1.61x at 512 ranks x6. A clock per node instead of
# per epoch (DESIGN.md 12.1) spent 205 ms building the happens-before index
# of this trace against a ~40 ms analyze, about 6x.
echo "==> lint --all <= 2.5x analyze --json (stencil, 128 ranks, scale 3)"
T="$RATIO_TMP/stencil-128"
"$MPGTOOL" gen --workload stencil --ranks 128 --scale 3 "$T" >/dev/null
lint_ms=$(best_ms "$MPGTOOL" lint "$T" --all)
analyze_ms=$(best_ms "$MPGTOOL" analyze "$T" --json)
gate "lint --all / analyze --json" 250 "$lint_ms" "$analyze_ms"

# The pass-8 walk: `explore` is the full lint plus the explorer, so on the
# benchmark's master-worker trace (1 950 events, 2 304 seeds) `explore
# --budget 32` may cost at most 5x `lint --all`. Measured 3.1-3.3x (25-26
# ms over 8 ms): 32 forced replays, 33 makespan passes and 74 514 frontier
# extensions of a few words each, some 17 ms. The bound was 1.5x
# (1.15-1.25x measured) while the denominator still held 2 304 witness
# suffixes run to the last event (74 ms); they now stop where they rejoin
# the recorded program (DESIGN.md 18.8), the walk is unchanged, and the
# frontier this gate was written against - a `MatchPlan` cloned and a
# `Vec<ForcedMatch>` hashed per extension, a 70 ms walk - reads 6-10x on
# the new denominator (1.9-2.0x on the old).
echo "==> explore --budget 32 <= 5x lint --all (master-worker, 8 ranks, scale 6)"
T="$RATIO_TMP/master-worker-6"
"$MPGTOOL" gen --workload master-worker --ranks 8 --scale 6 "$T" >/dev/null
explore_ms=$(best_ms "$MPGTOOL" explore "$T" --budget 32)
lint_ms=$(best_ms "$MPGTOOL" lint "$T" --all)
gate "explore --budget 32 / lint --all" 500 "$explore_ms" "$lint_ms"

# Pass 4 itself, where its cost would show: the same generator at scale 24
# (7 710 events, 1 536 wildcard receives, 9 216 race candidates). `lint
# --all` may cost at most 10x the `analyze --json` of the trace. Measured
# 3.0-3.2x (24-25 ms over 8 ms): a candidate costs the couple of dozen
# simulation steps between the point where its plan first matters and the
# point where both swapped receives have matched. Run to the last event and
# carrying the logs, a candidate costs in proportion to the trace and the
# pass grows with its square: 137x here (1 094 ms), 9x at scale 6.
echo "==> lint --all <= 10x analyze --json (master-worker, 8 ranks, scale 24)"
T="$RATIO_TMP/master-worker-24"
"$MPGTOOL" gen --workload master-worker --ranks 8 --scale 24 "$T" >/dev/null
lint_ms=$(best_ms "$MPGTOOL" lint "$T" --all)
analyze_ms=$(best_ms "$MPGTOOL" analyze "$T" --json)
gate "lint --all / analyze --json" 1000 "$lint_ms" "$analyze_ms"

echo "ratios: clean"
