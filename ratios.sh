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

# Trace generation runs pinned to one CPU. The simulator runs a thread per
# rank, and a blocking call (a ring hop ends in one) that another rank
# answers hands the CPU to that rank's thread once, which costs less on
# one CPU than across two: ring 16 x 40 takes 200-290 ms pinned,
# 510-575 ms not.
PIN=""
if command -v taskset >/dev/null 2>&1; then
    PIN="taskset -c 0"
fi

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

# best_pair_ms A B: least wall-clock milliseconds of commands A and B (one
# word each, a shell function) over three rounds of A then B, printed as
# "A_MS B_MS". Alternating keeps both walls on the same one of the host's
# two speed levels, which last seconds to minutes and sit about 30 %
# apart: three runs of one verb and then three of the other can straddle a
# change of level and read 30 % apart for that alone.
best_pair_ms() {
    best_a=""
    best_b=""
    for _ in 1 2 3; do
        t0=$(date +%s%N)
        "$1" >/dev/null
        t1=$(date +%s%N)
        "$2" >/dev/null
        t2=$(date +%s%N)
        a=$(( (t1 - t0) / 1000000 ))
        b=$(( (t2 - t1) / 1000000 ))
        if [ -z "$best_a" ] || [ "$a" -lt "$best_a" ]; then
            best_a=$a
        fi
        if [ -z "$best_b" ] || [ "$b" -lt "$best_b" ]; then
            best_b=$b
        fi
    done
    echo "$best_a $best_b"
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

# The simulator against the replay of what it writes: pinned `gen` of that
# stencil may cost at most 12x `replay` of the trace it writes, the two
# timed in alternation. Measured 3.3-4.4x (103-153 ms over 29-41 ms): a
# rank posts every call whose result it already knows, and every call of
# this workload is one, so the only blocking calls left are the run-ahead
# cap's. With a channel round trip per call it read 26-37x.
echo "==> gen <= 12x replay (stencil, 256 ranks, scale 4)"
G="$RATIO_TMP/stencil-256-gen"
gen_t() { $PIN "$MPGTOOL" gen --workload stencil --ranks 256 --scale 4 "$G"; }
replay_t() { "$MPGTOOL" replay "$G"; }
set -- $(best_pair_ms gen_t replay_t)
gate "gen / replay" 1200 "$1" "$2"

# The same for a ring, where every hop ends in a blocking `wait`: pinned
# `gen` of ring 16 x 40 may cost at most 7x `replay` of the trace it
# writes, timed in alternation. Measured 5.2-5.8x (173-282 ms over 33-49
# ms): the rank whose call leaves no rank running takes the coordinator's
# decisions itself, so a blocking call costs at most one thread switch.
# With a coordinator thread, each one cost a switch there and one back:
# 11-12x (409-466 ms over 37-39 ms).
echo "==> gen <= 7x replay (ring, 16 ranks, scale 40)"
G="$RATIO_TMP/ring-16-gen"
gen_t() { $PIN "$MPGTOOL" gen --workload ring --ranks 16 --scale 40 "$G"; }
set -- $(best_pair_ms gen_t replay_t)
gate "gen / replay" 700 "$1" "$2"

# The lint passes on a long ring (16 ranks, 256 032 events, 3 200 eager
# messages per receiver): `lint --all` may cost at most 1.75x the `analyze
# --json` of the same trace — both build the same recorded graph, so the
# ratio is what the passes add. Measured 1.0-1.2x; a pass that asks
# happens-before once per (receive, send) pair of a receiver puts it at
# 2.3-2.6x here, and further with every doubling of the trace, because
# that cost is quadratic.
echo "==> lint --all <= 1.75x analyze --json (ring, 16 ranks, scale 40)"
T="$RATIO_TMP/ring-16"
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

# The pass-8 walk on the same trace: `explore` is the full lint plus the
# explorer, so `explore --budget 32` may cost at most 4x `lint --all`,
# the two timed in alternation. Measured 2.8-3.4x (98-125 ms over 30-43
# ms): 32 forced replays, 33 makespan passes, a candidate sweep per
# replay and 302 610 extensions, of which only the first 32 scheduled are
# stored; the rest are 20-byte records counted once when the walk stops
# (DESIGN.md 16.1). A frontier that stored, sorted and probed every
# extension read 4.8-5.9x here (167-208 ms). Timed as three explores and
# then three lints, the same two binaries read 2.8-4.3x and 4.2-7.7x: the
# blocks can land on different host speed levels. On the scale-6 trace
# (1 950 events, 8 ms of lint) one millisecond tick moves the ratio by
# 0.4, and the two frontiers read 3.7-4.2x and 2.3-2.9x there.
echo "==> explore --budget 32 <= 4x lint --all (master-worker, 8 ranks, scale 24)"
explore_t() { "$MPGTOOL" explore "$T" --budget 32; }
lint_t() { "$MPGTOOL" lint "$T" --all; }
set -- $(best_pair_ms explore_t lint_t)
gate "explore --budget 32 / lint --all" 400 "$1" "$2"

echo "ratios: clean"
