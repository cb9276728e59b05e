#!/bin/sh
# Pre-PR gate: static analysis for the repo itself (the trace linter's
# moral equivalent, aimed at this codebase). Run before every PR; CI and
# reviewers assume it exits 0.
set -eu
cd "$(dirname "$0")"
MPGTOOL=target/release/mpgtool

# gen_stability TMP: the simulator writes the same bytes however the host
# schedules its rank threads — `gen` of a ring, a wildcard master-worker
# and a stencil, three times unpinned and twice pinned to one CPU, equals
# the first run — and `gen`'s streaming writer writes what the collecting
# one does: `import` of the first run's `export` (which saves a whole
# in-memory trace) is that directory byte for byte.
gen_stability() {
    echo "==> gen byte-stability (3 runs unpinned, 2 pinned to one CPU; import of export)"
    pin=""
    if command -v taskset >/dev/null 2>&1; then
        pin="taskset -c 0"
    fi
    for spec in ring:16:5 master-worker:8:6 stencil:16:2; do
        wl="${spec%%:*}"
        rest="${spec#*:}"
        for run in 1 2 3 4 5; do
            on=""
            if [ "$run" -gt 3 ]; then
                on="$pin"
            fi
            $on "$MPGTOOL" gen --workload "$wl" --ranks "${rest%%:*}" --scale "${rest#*:}" \
                "$1/gen-$run" >/dev/null
            if [ "$run" -gt 1 ]; then
                diff -r "$1/gen-1" "$1/gen-$run" >/dev/null || {
                    echo "lint: FAIL: $wl gen run $run wrote other bytes than run 1" >&2
                    exit 1
                }
                rm -rf "$1/gen-$run"
            fi
        done
        "$MPGTOOL" export "$1/gen-1" > "$1/gen.txt"
        "$MPGTOOL" import "$1/gen.txt" "$1/gen-imported" >/dev/null
        diff -r "$1/gen-1" "$1/gen-imported" >/dev/null || {
            echo "lint: FAIL: $wl: import of gen's export wrote other bytes than gen" >&2
            exit 1
        }
        rm -rf "$1/gen-1" "$1/gen-imported" "$1/gen.txt"
    done
    echo "    15 gen runs = the first run of their workload; import of each export = it"
}

# shard_stability TMP: sharded replay prints the same bytes on every run:
# five runs each at 2, 3 and 4 shards equal the 1-shard run minus its
# `scheduler:` line (one engine's schedule, left out of a merged report).
shard_stability() {
    echo "==> sharded replay byte-stability (5 runs at 2, 3, 4 shards = 1 shard)"
    for spec in ring:16 solver:8; do
        wl="${spec%%:*}"
        SH_TRACE="$1/shards-$wl"
        "$MPGTOOL" gen --workload "$wl" --ranks "${spec#*:}" --scale 10 "$SH_TRACE" >/dev/null
        "$MPGTOOL" replay "$SH_TRACE" --os 500 --latency 700 --per-byte 0.05 --seed 3 \
            --shards 1 | grep -v '^scheduler:' > "$1/shards-one.txt"
        for n in 2 3 4; do
            for i in 1 2 3 4 5; do
                "$MPGTOOL" replay "$SH_TRACE" --os 500 --latency 700 --per-byte 0.05 \
                    --seed 3 --shards "$n" > "$1/shards-run.txt"
                cmp -s "$1/shards-one.txt" "$1/shards-run.txt" || {
                    echo "lint: FAIL: $wl replay --shards $n (run $i) differs from 1 shard:" >&2
                    diff "$1/shards-one.txt" "$1/shards-run.txt" >&2 || true
                    exit 1
                }
            done
        done
        rm -rf "$SH_TRACE"
    done
    echo "    30 sharded runs = the 1-shard run, scheduler line aside"
}

# expect_exit WANT CMD...: CMD exits WANT (its output discarded).
expect_exit() {
    want="$1"; shift
    set +e
    "$@" >/dev/null 2>&1
    got=$?
    set -e
    if [ "$got" -ne "$want" ]; then
        echo "lint: FAIL: exit $got (want $want): $*" >&2
        exit 1
    fi
}

# cache_check TMP LABEL WANT_STDOUT_FILE WANT_WARM(yes|no) CMD...: CMD
# exits 0 with WANT_STDOUT_FILE's bytes and claims a warm hit iff wanted;
# its stderr stays in TMP/cache-err.txt.
cache_check() {
    ct="$1"; label="$2"; want_out="$3"; want_warm="$4"; shift 4
    set +e
    "$MPGTOOL" "$@" > "$ct/cache-out.txt" 2> "$ct/cache-err.txt"
    got=$?
    set -e
    if [ "$got" -ne 0 ]; then
        echo "lint: FAIL: $label exited $got" >&2
        exit 1
    fi
    if ! cmp -s "$want_out" "$ct/cache-out.txt"; then
        echo "lint: FAIL: $label stdout diverged from the uncached run" >&2
        exit 1
    fi
    if [ "$want_warm" = yes ]; then
        grep -q "warm hit" "$ct/cache-err.txt" || {
            echo "lint: FAIL: $label missed the cache" >&2; exit 1; }
    else
        if grep -q "warm hit" "$ct/cache-err.txt"; then
            echo "lint: FAIL: $label claimed a warm hit" >&2; exit 1
        fi
    fi
}

# corrupt_cache DIR: adds 128 (mod 256) to one payload byte of every cached
# artifact in DIR — a guaranteed change the MPGC envelope CRC must catch.
corrupt_cache() {
    for art in "$1"/*.mpgc; do
        b=$(dd if="$art" bs=1 skip=30 count=1 2>/dev/null | od -An -tu1 | tr -d ' \n')
        b="${b:-0}"
        printf "\\$(printf '%03o' $(( (b + 128) % 256 )))" \
            | dd of="$art" bs=1 seek=30 conv=notrunc 2>/dev/null
    done
}

# cache_identity TMP: artifact-cache end-to-end. For each cached command,
# the cold run (which populates the cache) and the warm run (which serves
# the memoized report) must print stdout byte-identical to the uncached
# run; a corrupted artifact must fall back cold — still identical — and
# self-repair; and `cache gc`/`cache clear` must manage the directory.
# Correctness only: the warm-speedup timing gate is the `"cache"` section
# of `bench --check`.
cache_identity() {
    echo "==> artifact cache e2e (cold = warm = corrupt-fallback, gc, clear)"
    CACHE_DIR="$1/cache"
    CACHE_TRACE="$1/cache-trace"
    "$MPGTOOL" demo stencil --ranks 8 --seed 3 "$CACHE_TRACE" >/dev/null
    for cmd in replay lint analyze; do
        base="$1/cache-$cmd-base.txt"
        "$MPGTOOL" "$cmd" "$CACHE_TRACE" > "$base"
        cache_check "$1" "$cmd cold" "$base" no \
            "$cmd" "$CACHE_TRACE" --cache --cache-dir "$CACHE_DIR"
        cache_check "$1" "$cmd warm" "$base" yes \
            "$cmd" "$CACHE_TRACE" --cache --cache-dir "$CACHE_DIR"
        corrupt_cache "$CACHE_DIR"
        cache_check "$1" "$cmd corrupt-fallback" "$base" no \
            "$cmd" "$CACHE_TRACE" --cache --cache-dir "$CACHE_DIR"
        cache_check "$1" "$cmd repaired-warm" "$base" yes \
            "$cmd" "$CACHE_TRACE" --cache --cache-dir "$CACHE_DIR"
    done

    "$MPGTOOL" cache ls --cache-dir "$CACHE_DIR" | grep -q "report-" || {
        echo "lint: FAIL: cache ls shows no report artifacts" >&2; exit 1; }
    "$MPGTOOL" cache gc --cache-dir "$CACHE_DIR" --max-mib 0 | grep -q "gc removed" || {
        echo "lint: FAIL: cache gc removed nothing" >&2; exit 1; }
    "$MPGTOOL" cache ls --cache-dir "$CACHE_DIR" | grep -q "(0 entries)" || {
        echo "lint: FAIL: cache not empty after gc --max-mib 0" >&2; exit 1; }
    "$MPGTOOL" cache clear --cache-dir "$CACHE_DIR" | grep -q "cleared 0" || {
        echo "lint: FAIL: cache clear on an empty cache misreported" >&2; exit 1; }
    echo "    warm = cold across replay/lint/analyze; corruption falls back; gc/clear ok"
}

# explore_contract TMP: schedule-explorer smoke — the exit contract (0
# clean / 2 usage), a cached report warm run byte-identical to the cold
# run, and budget 0 leaving plain-lint stdout untouched (pass 8 registered
# but inert).
explore_contract() {
    echo "==> explore exit contract + frontier warm-run byte-identity"
    EXP_TRACE="$1/explore-trace"
    EXP_CACHE="$1/explore-cache"
    "$MPGTOOL" demo master-worker --ranks 8 "$EXP_TRACE" >/dev/null
    expect_exit 0 "$MPGTOOL" explore "$EXP_TRACE" --budget 16
    expect_exit 2 "$MPGTOOL" explore "$EXP_TRACE" --budget nonsense
    expect_exit 2 "$MPGTOOL" explore
    "$MPGTOOL" explore "$EXP_TRACE" --budget 16 > "$1/explore-base.txt"
    cache_check "$1" "explore cold" "$1/explore-base.txt" no \
        explore "$EXP_TRACE" --budget 16 --cache --cache-dir "$EXP_CACHE"
    cache_check "$1" "explore warm" "$1/explore-base.txt" yes \
        explore "$EXP_TRACE" --budget 16 --cache --cache-dir "$EXP_CACHE"
    grep -q "warm hit (explore report)" "$1/cache-err.txt" || {
        echo "lint: FAIL: explore warm run was not an explore-report hit" >&2; exit 1; }
    "$MPGTOOL" lint "$EXP_TRACE" > "$1/explore-lint.txt"
    "$MPGTOOL" explore "$EXP_TRACE" --budget 0 | grep -v "^explore:" \
        > "$1/explore-b0.txt"
    cmp -s "$1/explore-lint.txt" "$1/explore-b0.txt" || {
        echo "lint: FAIL: budget-0 explore diverged from plain lint" >&2; exit 1; }
    echo "    exit contract holds; warm frontier = cold bytes; budget 0 inert"
}

# serve_smoke TMP: supervised service smoke: drive `mpgtool serve` over the line protocol.
# Leg 1 — seeded chaos storm (panics, stalls, transient I/O, artifact
# corruption) across 12 jobs: nothing may wedge and the invariant checker
# must come back clean. Leg 2 — chaos-free byte-identity + warm cache:
# a service job's `result` bytes, cached cold, warm and uncached, must
# equal the solo CLI run's stdout, and the second submission must be a
# cache hit. Leg 3 — resident traces, by count: two workers, 14 jobs of
# all three kinds on one trace, decoded once (a worker that misses a trace
# being decoded waits for that copy, so the counts repeat exactly).
serve_smoke() {
    echo "==> serve chaos smoke (invariants + byte-identity vs solo run)"
    SERVE_TRACE="$1/serve-trace"
    SERVE_CACHE="$1/serve-cache"
    "$MPGTOOL" demo ring --ranks 4 --seed 5 "$SERVE_TRACE" >/dev/null
    "$MPGTOOL" replay "$SERVE_TRACE" --os 400 --latency 150 --seed 2 \
        > "$1/serve-solo.txt"

    {
        i=1
        while [ "$i" -le 12 ]; do
            echo "submit replay $SERVE_TRACE os=400 latency=150 seed=2"
            i=$((i + 1))
        done
        i=1
        while [ "$i" -le 12 ]; do
            echo "wait job-$i"
            i=$((i + 1))
        done
        echo "stats"
        echo "check"
        echo "shutdown"
    } > "$1/serve-storm.txt"
    "$MPGTOOL" serve --script "$1/serve-storm.txt" \
        --workers 3 --chaos panic,delay,io-error,corrupt-artifact --chaos-seed 7 \
        --cache --cache-dir "$SERVE_CACHE" > "$1/serve-storm-out.txt"
    grep -q "^ok check clean$" "$1/serve-storm-out.txt" || {
        echo "lint: FAIL: chaos storm broke a service invariant:" >&2
        cat "$1/serve-storm-out.txt" >&2
        exit 1
    }
    grep -q "^ok shutdown drained=true$" "$1/serve-storm-out.txt" || {
        echo "lint: FAIL: chaos storm did not drain on shutdown" >&2; exit 1; }

    rm -rf "$SERVE_CACHE"
    {
        echo "submit replay $SERVE_TRACE os=400 latency=150 seed=2"
        echo "wait job-1"
        echo "result job-1 out=$1/serve-cold.txt"
        echo "submit replay $SERVE_TRACE os=400 latency=150 seed=2"
        echo "wait job-2"
        echo "result job-2 out=$1/serve-warm.txt"
        echo "stats"
        echo "check"
        echo "shutdown"
    } > "$1/serve-ident.txt"
    "$MPGTOOL" serve --script "$1/serve-ident.txt" \
        --cache --cache-dir "$SERVE_CACHE" > "$1/serve-ident-out.txt"
    cmp -s "$1/serve-solo.txt" "$1/serve-cold.txt" || {
        echo "lint: FAIL: service replay diverged from the solo CLI run" >&2; exit 1; }
    cmp -s "$1/serve-solo.txt" "$1/serve-warm.txt" || {
        echo "lint: FAIL: warm service replay diverged from the solo CLI run" >&2; exit 1; }
    grep -q "cache-hits=1" "$1/serve-ident-out.txt" || {
        echo "lint: FAIL: second service submission was not a warm cache hit" >&2; exit 1; }
    grep -q "^ok check clean$" "$1/serve-ident-out.txt" || {
        echo "lint: FAIL: identity leg broke a service invariant" >&2; exit 1; }
    printf 'submit replay %s os=400 latency=150 seed=2\nwait job-1\nresult job-1 out=%s\nshutdown\n' \
        "$SERVE_TRACE" "$1/serve-nocache.txt" > "$1/serve-nocache-script.txt"
    "$MPGTOOL" serve --script "$1/serve-nocache-script.txt" >/dev/null
    cmp -s "$1/serve-solo.txt" "$1/serve-nocache.txt" || {
        echo "lint: FAIL: uncached service replay diverged from the solo CLI run" >&2; exit 1; }

    {
        i=1
        while [ "$i" -le 12 ]; do
            echo "submit replay $SERVE_TRACE os=400 latency=150 seed=$i"
            i=$((i + 1))
        done
        echo "submit lint $SERVE_TRACE"
        echo "submit explore $SERVE_TRACE budget=4"
        i=1
        while [ "$i" -le 14 ]; do
            echo "wait job-$i"
            i=$((i + 1))
        done
        echo "stats"
        echo "check"
        echo "shutdown"
    } > "$1/serve-resident.txt"
    "$MPGTOOL" serve --script "$1/serve-resident.txt" --workers 2 \
        > "$1/serve-resident-out.txt"
    grep -q "^ok stats submitted=14 done=14 .* trace-loads=1 trace-hits=13 " \
        "$1/serve-resident-out.txt" || {
        echo "lint: FAIL: 14 jobs on one trace were not 1 decode + 13 resident hits:" >&2
        grep "^ok stats" "$1/serve-resident-out.txt" >&2
        exit 1
    }
    grep -q "^ok check clean$" "$1/serve-resident-out.txt" || {
        echo "lint: FAIL: resident leg broke a service invariant" >&2; exit 1; }
    echo "    chaos storm clean; service bytes = solo bytes; warm hit on resubmit;"
    echo "    14 jobs on one trace = 1 decode + 13 resident hits"
}

# examples TMP: every program under examples/ runs to a zero exit in a
# release build. Tier 1 only compiles them, and `sensitivity_analysis`
# reads its drift timeline off the recorded graph, which only a run
# exercises.
examples() {
    echo "==> examples (each runs in release and exits 0)"
    cargo build --release -q --examples
    n=0
    for src in examples/*.rs; do
        ex="$(basename "$src" .rs)"
        if ! "target/release/examples/$ex" > "$1/example-$ex.txt" 2>&1; then
            echo "lint: FAIL: example $ex exited nonzero:" >&2
            cat "$1/example-$ex.txt" >&2
            exit 1
        fi
        n=$((n + 1))
    done
    echo "    $n examples exit 0"
}

# one_generator TMP: the random SPMD program generator stays single.
# Every test draws its programs from crates/mpg-testkit; a file anywhere
# else that defines a `Round` alphabet or a `round_strategy` is a second
# copy of it.
one_generator() {
    echo "==> one SPMD program generator (crates/mpg-testkit)"
    copies="$(grep -rnE --include='*.rs' --exclude-dir=target --exclude-dir=.git \
        'enum Round\b|fn round_strategy\b' . | grep -v '^\./crates/mpg-testkit/' || true)"
    if [ -n "$copies" ]; then
        echo "lint: FAIL: a program generator outside crates/mpg-testkit:" >&2
        echo "$copies" >&2
        exit 1
    fi
    echo "    enum Round and fn round_strategy are defined in crates/mpg-testkit only"
}

# `./lint.sh LEG...` runs only the named legs against an already built
# target/release/mpgtool (`examples` builds the examples it runs;
# `one_generator` reads sources only); CI runs each leg it shares with
# this script so, so the two cannot drift apart.
LEGS="gen_stability shard_stability cache_identity explore_contract serve_smoke examples one_generator"
if [ $# -gt 0 ]; then
    LEG_TMP="$(mktemp -d)"
    trap 'rm -rf "$LEG_TMP"' EXIT
    for leg in "$@"; do
        case " $LEGS " in
            *" $leg "*) "$leg" "$LEG_TMP" ;;
            *) echo "lint: unknown leg '$leg' (legs: $LEGS)" >&2; exit 2 ;;
        esac
    done
    exit 0
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# `unsafe` is confined by the compiler: every crate root forbids it except
# mpg-trace's, which denies it so that ooc.rs's MappedFile items (the rank
# file maps) can allow it, and nothing else does.
echo "==> unsafe_code attribute on every crate root"
for root in crates/*/src/lib.rs crates/*/src/bin/*.rs src/lib.rs; do
    case "$root" in
        crates/mpg-trace/src/lib.rs) want='#![deny(unsafe_code)]' ;;
        *) want='#![forbid(unsafe_code)]' ;;
    esac
    if ! grep -qxF "$want" "$root"; then
        echo "lint: FAIL: $root lacks $want" >&2
        exit 1
    fi
done
allowed="$(grep -rlF 'allow(unsafe_code)' crates src --include='*.rs' || true)"
if [ "$allowed" != "crates/mpg-trace/src/ooc.rs" ]; then
    echo "lint: FAIL: unsafe_code allowed outside ooc.rs: $allowed" >&2
    exit 1
fi

one_generator

# The same-host gate table (perf.rs): in-process ratios over the pinned
# 10^7-event trace and a 512-rank stencil, and seven ratios of two child
# mpgtool verbs on one trace, each the median of 9 alternating rounds,
# every row held to a fixed bound. The first run generates the traces
# under $TMPDIR/mpg-bench-ooc-*; later runs reuse them.
echo "==> mpgtool bench --check --reps 9"
cargo run --release -q -p mpg-analysis --bin mpgtool -- bench --check --reps 9

# Per-workload smoke suites. Every demo workload is traced once; the trace
# then feeds (a) the wait-state analyzer and (b) the fsck fault-injection
# matrix. Scripts and CI depend on the exit codes checked here.
echo "==> analyze + fsck smoke suite"
cargo build --release -q -p mpg-analysis --bin mpgtool
SMOKE_TMP="$(mktemp -d)"
trap 'rm -rf "$SMOKE_TMP"' EXIT

# Wait-state & slack analysis must terminate cleanly on every workload
# (exit 0 ⇒ the accounting identity held exactly) and produce JSON.
analyze_workload() {
    dir="$1"
    out="$dir-analyze.json"
    expect_exit 0 "$MPGTOOL" analyze "$dir"
    if ! "$MPGTOOL" analyze "$dir" --json > "$out" || [ ! -s "$out" ]; then
        echo "lint: FAIL: analyze --json produced no output for $dir" >&2
        exit 1
    fi
    rm -f "$out"
}

# Fault-injection matrix: fsck the clean trace, inject one deterministic
# fault per operator, and check the 0/1/2 exit contract (0 clean, 1
# salvaged, 2 unrecoverable) plus the salvage-mode pipeline end to end.
fsck_workload() {
    dir="$1"
    expect_exit 0 "$MPGTOOL" fsck "$dir"
    for fault in truncate bitflip frame-drop frame-dup frame-swap splice delete-rank io-error delay; do
        bad="$dir-$fault"
        expect_exit 1 "$MPGTOOL" fsck "$dir" --inject "$fault" --seed 7 --out "$bad"
        # Salvage-mode pipeline must terminate on the damaged copy:
        # crash-tolerant replay exits 0, lint honors 0-or-1.
        expect_exit 0 "$MPGTOOL" replay "$bad" --salvage
        set +e
        "$MPGTOOL" lint "$bad" --salvage >/dev/null 2>&1
        lint_got=$?
        set -e
        if [ "$lint_got" -gt 1 ]; then
            echo "lint: FAIL: lint --salvage exited $lint_got on $bad" >&2
            exit 1
        fi
        rm -rf "$bad"
    done
    # Unrecoverable: no meta.txt.
    rm "$dir/meta.txt"
    expect_exit 2 "$MPGTOOL" fsck "$dir"
    rm -rf "$dir"
}

for wl in ring stencil master-worker solver pipeline transpose summa; do
    dir="$SMOKE_TMP/$wl"
    "$MPGTOOL" demo "$wl" --ranks 8 "$dir" >/dev/null
    analyze_workload "$dir"
    fsck_workload "$dir"
done
echo "    analyze identity + fsck exit contract hold across 7 workloads"

shard_stability "$SMOKE_TMP"

gen_stability "$SMOKE_TMP"

cache_identity "$SMOKE_TMP"

explore_contract "$SMOKE_TMP"

serve_smoke "$SMOKE_TMP"

examples "$SMOKE_TMP"

echo "lint: clean"
