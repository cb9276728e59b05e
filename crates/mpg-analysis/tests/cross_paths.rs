//! One traversal, every path. The paper's replay visits "each event in
//! order on each processor" (§4.1) whatever feeds it, so every path that
//! computes it must agree with the plain one. Each cell runs one input
//! through a path and through the cell's reference:
//!
//! | cell (test) | reference | path |
//! |---|---|---|
//! | `mpg-core`'s `proptest_ooc.rs` (random programs), `demo_traces_take_every_in_process_path` (demos) | `Replayer::run` on the loaded trace | `run_streams_parallel` over `OocTraceSet` cursors at 1 shard and at 2–8, over in-memory streams at 2–8 |
//! | `lane_batch_equals_one_scalar_replay_per_config` | one scalar replay per config | `lane_replays`, structural knobs mixed |
//! | `unfired_token_changes_no_report` | no token | a `CancelToken` that never fires |
//! | `cached_arena_and_clocks_equal_the_recording` | recording, `HbIndex::build_for` | `cached_recorded_graph`, `cached_hb_index` from a cold, a warm and a corrupted cache |
//! | `demo_traces_take_every_in_process_path` | as the four rows above | the four rows above, on the seven demo traces |
//! | `forked_witness_replay_equals_from_scratch` | the whole simulation under a plan | `forced_replays` (one batch) and `forced_replay` forked off the recorded run |
//! | `cli_verbs_print_the_same_bytes_four_ways` | `mpgtool replay\|lint\|explore\|analyze`, no cache | cold cache, warm, every artifact corrupted, repaired warm |
//! | `served_jobs_print_the_solo_cli_bytes` | the solo CLI run | `mpgtool serve` replay, lint and explore jobs on a resident miss, a resident hit, a report hit the runtime published itself and one the CLI published; `check` clean after each |
//!
//! In-process cells compare what a replay computed
//! ([`mpg_testkit::computed`]: the report without the scheduler-order
//! diagnostics and the engine and lane counts, which describe how a
//! traversal was scheduled). Cells that spawn `mpgtool` compare stdout
//! bytes and exit codes, over the seven demo workloads. Random programs
//! come from `mpg-testkit`: [`SPMD`] for the replay engine, [`WILDCARD`]
//! for the forced replays.

use std::path::{Path, PathBuf};
use std::process::Command;

use mpg_core::forced::{ForcedOutcome, MatchPlan};
use mpg_core::{
    cached_hb_index, cached_recorded_graph, encode_arena, lane_replays, ArtifactKind, CacheStore,
    CancelToken, HbColumns, HbIndex, PerturbationModel, ReplayConfig, ReplayReport, ReplayStats,
    Replayer, SignedDist,
};
use mpg_lint::{
    find_races, forced_replay, forced_replays, lint_explore, run_progress, witness_plan,
    ExploreOptions, ForcedReplay, LintContext, MatchPolicy,
};
use mpg_noise::Dist;
use mpg_testkit::{
    computed, demo_trace, noisy_model, record, round_strategy, scratch_dir, simulate, DEMOS, SPMD,
    WILDCARD,
};
use mpg_trace::{EventRecord, MemTrace, OocTraceSet, Rank, Rule, TraceError};
use proptest::prelude::*;

fn replay(trace: &MemTrace, cfg: &ReplayConfig) -> ReplayReport {
    Replayer::new(cfg.clone())
        .run(trace)
        .expect("valid trace replays")
}

/// `trace` saved under `tag`, replayed through the windowed out-of-core
/// cursors at 1 and `shards` shards and through in-memory streams at
/// `shards`.
fn check_streamed_and_sharded(trace: &MemTrace, cfg: &ReplayConfig, shards: usize, tag: &str) {
    let base = computed(&replay(trace, cfg));
    let dir = scratch_dir(&format!("cross-ooc-{tag}"));
    trace.save(&dir).expect("trace saves");
    let ooc = OocTraceSet::open(&dir).expect("ooc set opens");
    for n in [1, shards] {
        let cursors = (0..ooc.num_ranks()).map(|r| ooc.cursor(r)).collect();
        let got = Replayer::new(cfg.clone())
            .run_streams_parallel(cursors, n)
            .expect("windowed replay succeeds");
        assert_eq!(computed(&got), base, "{tag}: windowed, {n} shard(s)");
    }
    let streams: Vec<_> = (0..trace.num_ranks())
        .map(|r| {
            trace
                .iter_rank(r)
                .map(Ok as fn(EventRecord) -> Result<EventRecord, TraceError>)
        })
        .collect();
    let got = Replayer::new(cfg.clone())
        .run_streams_parallel(streams, shards)
        .expect("sharded replay succeeds");
    assert_eq!(computed(&got), base, "{tag}: in memory, {shards} shards");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Lanes share one traversal, so everything but the lane counters equals
/// the scalar replay, scheduler diagnostics included.
fn check_lane_batch(trace: &MemTrace, configs: &[ReplayConfig], tag: &str) {
    let batched = lane_replays(trace, configs);
    assert_eq!(batched.len(), configs.len());
    for (i, (cfg, got)) in configs.iter().zip(batched).enumerate() {
        let got = got.expect("valid trace replays");
        let scalar = replay(trace, cfg);
        assert_eq!(computed(&got), computed(&scalar), "{tag}: config {i}");
        let schedule = |s: &ReplayStats| ReplayStats {
            lanes: 0,
            traversals_saved: 0,
            ..s.clone()
        };
        assert_eq!(schedule(&got.stats), schedule(&scalar.stats), "{tag}: {i}");
    }
}

/// An armed token that never fires leaves even the schedule alone.
fn check_unfired_token(trace: &MemTrace, cfg: &ReplayConfig, tag: &str) {
    let base = replay(trace, cfg);
    let tokened = replay(trace, &cfg.clone().cancel_token(CancelToken::new()));
    assert_eq!(computed(&tokened), computed(&base), "{tag}");
    assert_eq!(tokened.stats, base.stats, "{tag}");
}

/// Flips one byte in the middle of every artifact in `store`: the MPGC
/// envelope's checksum must catch it.
fn corrupt_every_artifact(store: &CacheStore) -> usize {
    let mut n = 0;
    for entry in store.ls() {
        let path = store.root().join(format!("{}.mpgc", entry.key));
        let mut bytes = std::fs::read(&path).expect("artifact readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("artifact writable");
        n += 1;
    }
    n
}

/// The arena and the happens-before clocks read from a cold, a warm and
/// a corrupted cache are the recording's bytes. Besides the envelope
/// damage, the arena is published damaged as valid envelopes (truncated
/// by `1 + flip % 8` bytes, one bit flipped at `flip`, the version
/// bumped), so MPGA's own validation is what must catch those.
fn check_cached_artifacts(trace: &MemTrace, cfg: &ReplayConfig, flip: u64, tag: &str) {
    let cfg = cfg.clone().record_graph(true);
    let recorded = record(trace, &cfg);
    let arena = encode_arena(recorded.arena());
    let columns = HbColumns::all(trace.num_ranks());
    let clocks = HbIndex::build_for(&recorded, &columns, None)
        .expect("no token")
        .to_bytes();
    let store = CacheStore::open(&scratch_dir(&format!("cross-cache-{tag}"))).unwrap();
    let trace_key = "cross-paths-trace";
    let cached = |want_hit: Option<bool>, what: &str| {
        let (graph, hit, cancelled) = cached_recorded_graph(&store, trace_key, trace, cfg.clone())
            .expect("the cached path never errors");
        assert_eq!(encode_arena(graph.arena()), arena, "{tag}: {what} arena");
        assert!(cancelled.is_none());
        let (hb, hb_hit) = cached_hb_index(
            &store,
            trace_key,
            &cfg.fingerprint(),
            &graph,
            &columns,
            None,
        )
        .expect("no token");
        assert_eq!(hb.to_bytes(), clocks, "{tag}: {what} clocks");
        if let Some(want) = want_hit {
            assert_eq!((hit, hb_hit), (want, want), "{tag}: {what}");
        }
        hit
    };
    cached(Some(false), "cold");
    cached(Some(true), "warm");
    assert_eq!(corrupt_every_artifact(&store), 2, "{tag}");
    cached(Some(false), "corrupted");
    cached(Some(true), "repaired");

    let arena_key = CacheStore::artifact_key(trace_key, ArtifactKind::Arena, &cfg.fingerprint());
    let truncated = arena[..arena.len() - 1 - (flip % 8) as usize].to_vec();
    let mut flipped = arena.clone();
    let i = (flip % flipped.len() as u64) as usize;
    flipped[i] ^= 0x10;
    let mut bumped = arena.clone();
    bumped[4] = bumped[4].wrapping_add(1); // version u32le low byte
    for damaged in [truncated, flipped, bumped] {
        store
            .put(&arena_key, ArtifactKind::Arena, &damaged)
            .unwrap();
        if !cached(None, "damaged arena") {
            cached(Some(true), "republished arena");
        }
    }
    std::fs::remove_dir_all(store.root()).unwrap();
}

/// Per-config knobs: the perturbation's shape and seed, and the
/// structural knobs (`ack_arm`, `arrival_bound`) that split lane batches.
#[derive(Debug, Clone)]
struct CfgSpec {
    os_mean: f64,
    lat_mean: f64,
    per_byte_centi: u8,
    negate_os: bool,
    seed: u64,
    ack_arm: bool,
    arrival_bound: bool,
}

fn cfg_strategy() -> impl Strategy<Value = CfgSpec> {
    (
        (1u64..3_000, 0u64..3_000, 0u8..20, any::<bool>()),
        (0u64..1_000, any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((os_mean, lat_mean, per_byte_centi, negate_os), (seed, ack_arm, arrival_bound))| {
                CfgSpec {
                    os_mean: os_mean as f64,
                    lat_mean: lat_mean as f64,
                    per_byte_centi,
                    negate_os,
                    seed,
                    ack_arm,
                    arrival_bound,
                }
            },
        )
}

fn build_config(i: usize, spec: &CfgSpec) -> ReplayConfig {
    let mut m = PerturbationModel::quiet(&format!("lane-{i}"));
    let os = Dist::Exponential { mean: spec.os_mean };
    m.os_local = if spec.negate_os {
        SignedDist::negative(os)
    } else {
        os.into()
    };
    if spec.lat_mean > 0.0 {
        m.latency = Dist::Exponential {
            mean: spec.lat_mean,
        }
        .into();
    }
    m.per_byte = f64::from(spec.per_byte_centi) / 100.0;
    ReplayConfig::new(m)
        .seed(spec.seed)
        .ack_arm(spec.ack_arm)
        .arrival_bound(spec.arrival_bound)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lane_batch_equals_one_scalar_replay_per_config(
        p in 2u32..9,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(SPMD), 1..10),
        specs in prop::collection::vec(cfg_strategy(), 1..12),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let configs: Vec<ReplayConfig> =
            specs.iter().enumerate().map(|(i, s)| build_config(i, s)).collect();
        check_lane_batch(&trace, &configs, &format!("{p} ranks, {rounds:?}"));
    }

    #[test]
    fn unfired_token_changes_no_report(
        p in 2u32..9,
        sim_seed in 0u64..1_000,
        spec in cfg_strategy(),
        rounds in prop::collection::vec(round_strategy(SPMD), 1..10),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        check_unfired_token(&trace, &build_config(0, &spec), &format!("{p} ranks, {rounds:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn cached_arena_and_clocks_equal_the_recording(
        p in 2u32..6,
        sim_seed in 0u64..500,
        flip in any::<u64>(),
        rounds in prop::collection::vec(round_strategy(SPMD), 1..5),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let cfg = ReplayConfig::new(noisy_model(sim_seed)).seed(7);
        check_cached_artifacts(&trace, &cfg, flip, &format!("{p}-{sim_seed}"));
    }
}

/// The in-process cells on the seven demo traces, under a few configs
/// each.
#[test]
fn demo_traces_take_every_in_process_path() {
    for (i, name) in DEMOS.iter().enumerate() {
        let trace = demo_trace(i);
        let seed = i as u64;
        let cfg = ReplayConfig::new(noisy_model(seed)).seed(seed);
        check_streamed_and_sharded(trace, &cfg, 3, &format!("demo-{name}"));
        let configs = [
            cfg.clone(),
            cfg.clone().ack_arm(false),
            cfg.clone().arrival_bound(true),
        ];
        check_lane_batch(trace, &configs, name);
        check_unfired_token(trace, &cfg, name);
        check_cached_artifacts(trace, &cfg, seed, &format!("demo-{name}"));
    }
}

/// The plans the fork invariant is checked on: what passes 4 and 8 would
/// replay (validated witnesses, their compositions up to depth 3, the
/// explorer's own findings), every single forcing of a wildcard receive
/// onto another rank (the pinned-consumer alternates and the infeasible
/// ones among them), and plans that name nothing the run ever posts.
fn plans_for(trace: &MemTrace, ctx: &LintContext<'_>) -> Vec<MatchPlan> {
    let hb = ctx.hb.as_ref().expect("graph recorded for a clean trace");
    let matching = &ctx.progress.matching;
    let mut plans = vec![
        MatchPlan::new(),
        MatchPlan::new().force((0, 0), 1),
        MatchPlan::new().force((0, 1_000_000_000), 1),
    ];
    let witnesses: Vec<MatchPlan> = find_races(trace, matching, hb)
        .iter()
        .flat_map(|f| f.witnesses.iter().map(witness_plan))
        .collect();
    for depth in 2..=3 {
        for chain in witnesses.windows(depth) {
            let mut plan = MatchPlan::new();
            for f in chain.iter().flat_map(|w| w.forced()) {
                plan.push(f.recv, f.source);
            }
            plans.push(plan);
        }
    }
    plans.extend(witnesses);
    for pair in matching.pairs.iter().filter(|pair| pair.posted_any) {
        for src in (0..trace.num_ranks() as Rank).filter(|&src| src != pair.send.0) {
            plans.push(MatchPlan::new().force(pair.recv, src));
        }
    }
    let opts = ExploreOptions {
        budget: 24,
        ..ExploreOptions::cli_default()
    };
    plans.extend(
        lint_explore(trace, &opts, None)
            .findings
            .into_iter()
            .map(|f| f.plan),
    );
    plans
}

/// The from-scratch reference: the whole simulation under `plan` from its
/// first step, classified the way `forced_replay` documents.
fn from_scratch(trace: &MemTrace, plan: &MatchPlan) -> ForcedReplay {
    let out = run_progress(trace, &MatchPolicy::Witness(plan.clone()));
    let outcome = if out.matching.completed {
        ForcedOutcome::Completed
    } else if out.diags.iter().any(|d| d.rule == Rule::Deadlock) {
        ForcedOutcome::Deadlocked
    } else {
        ForcedOutcome::Stuck
    };
    ForcedReplay {
        outcome,
        matching: out.matching,
        diags: out.diags,
    }
}

fn assert_same_replay(forked: &ForcedReplay, reference: &ForcedReplay, plan: &MatchPlan) {
    assert_eq!(forked.outcome, reference.outcome, "outcome under [{plan}]");
    assert_eq!(
        forked.matching.completed, reference.matching.completed,
        "completed under [{plan}]"
    );
    assert_eq!(
        forked.matching.pairs, reference.matching.pairs,
        "pairs under [{plan}]"
    );
    assert_eq!(
        forked.matching.sends, reference.matching.sends,
        "sends under [{plan}]"
    );
    assert_eq!(forked.diags, reference.diags, "diags under [{plan}]");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The fork invariant of DESIGN.md §18, for every plan, feasible or
    /// not: as one batch (forks copied off the recorded run, the last one
    /// taking it over) and one at a time (each its own recorded run).
    #[test]
    fn forked_witness_replay_equals_from_scratch(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(WILDCARD), 1..6),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let ctx = LintContext::build(&trace);
        prop_assert!(ctx.progress.matching.completed, "program deadlocked");
        let plans = plans_for(&trace, &ctx);
        let batch = forced_replays(&trace, &plans);
        prop_assert_eq!(batch.len(), plans.len());
        for (plan, forked) in plans.iter().zip(&batch) {
            let reference = from_scratch(&trace, plan);
            assert_same_replay(forked, &reference, plan);
            assert_same_replay(&forced_replay(&trace, plan), &reference, plan);
        }
    }
}

/// (stdout, stderr, exit code) of one `mpgtool` run.
fn mpgtool(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_mpgtool"))
        .args(args)
        .output()
        .expect("spawn mpgtool");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("mpgtool not killed by signal"),
    )
}

/// `mpgtool demo WL --ranks 8 --seed 3` into a fresh directory.
fn demo_dir(wl: &str, tag: &str) -> PathBuf {
    let dir = scratch_dir(&format!("cross-{tag}-{wl}"));
    let (_, err, code) = mpgtool(&["demo", wl, "--ranks", "8", "--seed", "3", path(&dir)]);
    assert_eq!(code, 0, "demo {wl}: {err}");
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// Each verb's solo command line, and its served twin's `submit` tail.
fn verbs(trace: &str) -> [(Vec<&str>, String); 4] {
    [
        (
            vec![
                "replay",
                trace,
                "--os",
                "200",
                "--latency",
                "700",
                "--per-byte",
                "0.05",
                "--seed",
                "5",
            ],
            format!("replay {trace} os=200 latency=700 per-byte=0.05 seed=5"),
        ),
        (vec!["lint", trace], format!("lint {trace}")),
        (
            vec!["explore", trace, "--budget", "16", "--seed", "2"],
            format!("explore {trace} budget=16 seed=2"),
        ),
        (vec!["analyze", trace], String::new()),
    ]
}

/// A warm run says so on stderr; nothing else about the cache may show.
fn expect_run(args: &[&str], want: &(String, String, i32), warm: bool, what: &str) {
    let (out, err, code) = mpgtool(args);
    assert_eq!((&out, code), (&want.0, want.2), "{what}: {err}");
    assert_eq!(err.contains("warm hit"), warm, "{what}: {err}");
}

#[test]
fn cli_verbs_print_the_same_bytes_four_ways() {
    for wl in DEMOS {
        let trace = demo_dir(wl, "cli");
        let cache = scratch_dir(&format!("cross-cli-cache-{wl}"));
        let store = CacheStore::open(&cache).unwrap();
        for (solo, _) in verbs(path(&trace)) {
            let what = format!("{wl}/{}", solo[0]);
            let base = mpgtool(&solo);
            assert!(!base.0.is_empty(), "{what}: no output");
            let cached = [&solo[..], &["--cache", "--cache-dir", path(&cache)]].concat();
            expect_run(&cached, &base, false, &format!("{what} cold"));
            expect_run(&cached, &base, true, &format!("{what} warm"));
            assert!(corrupt_every_artifact(&store) > 0, "{what}: nothing cached");
            expect_run(&cached, &base, false, &format!("{what} corrupted"));
            expect_run(&cached, &base, true, &format!("{what} repaired"));
        }
        std::fs::remove_dir_all(&cache).unwrap();
        std::fs::remove_dir_all(&trace).unwrap();
    }
}

/// `mpgtool serve` of one `submit` line per tail, each job's result
/// written to a file: the results in order, and the `stats` reply. The
/// runtime's invariant check must come back clean after the jobs, with no
/// turn still held.
fn serve(tails: &[&String], cache: Option<&Path>, tag: &str) -> (Vec<String>, String) {
    let dir = scratch_dir(&format!("cross-serve-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut script = String::new();
    for (i, tail) in tails.iter().enumerate() {
        let (job, out) = (i + 1, dir.join(format!("job-{}", i + 1)));
        script += &format!(
            "submit {tail}\nwait job-{job}\nresult job-{job} out={}\n",
            out.display()
        );
    }
    script += "stats\ncheck\nshutdown\n";
    let script_path = dir.join("script");
    std::fs::write(&script_path, script).unwrap();
    let mut args = vec!["serve", "--script", path(&script_path), "--workers", "1"];
    if let Some(cache) = cache {
        args.extend(["--cache-dir", path(cache)]);
    }
    let (out, err, code) = mpgtool(&args);
    assert_eq!(code, 0, "{tag}: {err}");
    assert!(out.lines().any(|l| l == "ok check clean"), "{tag}: {out}");
    let results = (1..=tails.len())
        .map(|job| std::fs::read_to_string(dir.join(format!("job-{job}"))).expect("result"))
        .collect();
    let stats = out
        .lines()
        .find(|l| l.contains(" cache-hits="))
        .expect("a stats reply")
        .to_string();
    std::fs::remove_dir_all(&dir).unwrap();
    (results, stats)
}

#[test]
fn served_jobs_print_the_solo_cli_bytes() {
    for wl in DEMOS {
        let trace = demo_dir(wl, "served");
        let cache = scratch_dir(&format!("cross-served-cache-{wl}"));
        let [replay, lint, explore, _] = verbs(path(&trace));
        let jobs = [replay, lint, explore];
        let solo: Vec<String> = jobs.iter().map(|(args, _)| mpgtool(args).0).collect();
        // Each kind first once, on the resident miss, and twice on a hit.
        for first in 0..jobs.len() {
            let order: Vec<usize> = (0..jobs.len()).map(|k| (first + k) % jobs.len()).collect();
            let tails: Vec<&String> = order.iter().map(|&k| &jobs[k].1).collect();
            let (results, stats) = serve(&tails, None, &format!("{wl}-{first}"));
            for (&k, result) in order.iter().zip(&results) {
                assert_eq!(result, &solo[k], "{wl}: {}, job kind {k} first", tails[0]);
            }
            assert!(
                stats.contains(" cache-hits=0 ") && stats.contains(" trace-loads=1 trace-hits=2 "),
                "{wl}: {stats}"
            );
        }
        // A report hit after a resident miss in one runtime: the first
        // replay publishes what the repeated one reads.
        let fresh = scratch_dir(&format!("cross-served-fresh-{wl}"));
        let tails = [&jobs[0].1, &jobs[1].1, &jobs[2].1, &jobs[0].1];
        let (results, stats) = serve(&tails, Some(&fresh), &format!("{wl}-fresh"));
        assert_eq!(results[..3], solo[..], "{wl}: fresh store");
        assert_eq!(results[3], solo[0], "{wl}: report hit after a miss");
        assert!(
            stats.contains(" cache-hits=1 ") && stats.contains(" trace-loads=1 trace-hits=2 "),
            "{wl}: {stats}"
        );
        std::fs::remove_dir_all(&fresh).unwrap();
        // Report hits of what the solo runs published.
        for (args, _) in &jobs {
            let (_, err, code) = mpgtool(&[&args[..], &["--cache-dir", path(&cache)]].concat());
            assert!(code <= 1, "{err}");
        }
        let tails: Vec<&String> = jobs.iter().map(|(_, tail)| tail).collect();
        let (results, stats) = serve(&tails, Some(&cache), &format!("{wl}-cached"));
        assert_eq!(results, solo, "{wl}: report hits");
        assert!(
            stats.contains(" cache-hits=3 ") && stats.contains(" trace-loads=0 trace-hits=0 "),
            "{wl}: {stats}"
        );
        std::fs::remove_dir_all(&cache).unwrap();
        std::fs::remove_dir_all(&trace).unwrap();
    }
}
