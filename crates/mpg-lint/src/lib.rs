#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Static defect analysis of message-passing traces (`mpg-lint`).
//!
//! The replay engine of `mpg-core` assumes its input traces describe a
//! correct, completed run (§4.1: every message event has a counterpart;
//! §4.3: "the program did run correctly"). This crate checks that
//! assumption *before* replay, reporting structured [`Diagnostic`]s with
//! stable `MPG-*` rule codes through the same reporting path as
//! `mpg_trace::validate`:
//!
//! | pass | defects | rules |
//! |------|---------|-------|
//! | 0 (validate) | per-rank structure | `MPG-CLOCK-NONMONO`, `MPG-BAD-SEQ`, `MPG-MISSING-INIT`, `MPG-MISSING-FINALIZE`, `MPG-WRONG-RANK`, `MPG-DUP-REQUEST`, `MPG-UNKNOWN-REQUEST`, `MPG-LEAKED-REQUEST`, `MPG-SELF-MESSAGE` |
//! | 1 (match) | cross-rank match resolution | `MPG-UNMATCHED-SEND`, `MPG-UNMATCHED-RECV`, `MPG-TAG-MISMATCH`, `MPG-COUNT-MISMATCH`, `MPG-BAD-PEER` |
//! | 2 (deadlock) | wait-for-graph cycles | `MPG-DEADLOCK` |
//! | 3 (causality) | recorded-graph sanity | `MPG-CYCLE`, `MPG-CAUSALITY` |
//! | 4 (race) | nondeterministic matching | `MPG-WILD-RACE` |
//! | 5 (collective) | collective consistency | `MPG-COLLECTIVE-SKEW` |
//! | 6 (performance) | wait-state & slack analysis | `MPG-LATE-SENDER`, `MPG-COLLECTIVE-IMBALANCE`, `MPG-SERIAL-CHAIN` |
//! | 7 (sync) | removable/overloaded synchronization | `MPG-REDUNDANT-SYNC`, `MPG-BUFFER-WATERMARK` |
//! | 8 (explore) | schedule-space exploration | `MPG-MAY-DEADLOCK`, `MPG-SCHEDULE-DIVERGENCE` |
//!
//! # Pass manager
//!
//! [`lint_full`] runs the passes over a shared [`LintContext`] holding the
//! expensive artifacts exactly once:
//!
//! * the **progress outcome** — diagnostics plus the send/receive
//!   [`Matching`] from the lockstep simulation ([`progress::run_progress`]),
//! * the **recorded graph** — one quiet recording replay
//!   ([`Replayer`]), and
//! * the **happens-before index** — [`HbIndex`] built from that graph.
//!
//! The progress simulation and the recording replay are independent, so
//! the context builds them on two threads; passes declare which artifacts
//! they need ([`LintPass::needs`]) and the independent passes then run in
//! parallel over the immutable context. Passes 4 and 7 are the
//! happens-before consumers: [`hb_races`] upgrades the wildcard-race
//! heuristic to exact concurrent-alternate enumeration with replayable
//! witnesses, and [`sync`] reports removable barriers and eager-buffer
//! high-water marks. Pass 8 ([`explore`](mod@explore)) generalizes pass 4 from single
//! swaps to a bounded walk of the schedule space; it ships disabled
//! (budget 0) in [`lint_full`] and is driven with a real budget through
//! [`lint_explore`] / `mpgtool explore`.
//!
//! Passes 1, 2 and 5 run off one lockstep progress simulation that matches
//! through [`EnvelopeMatcher`](mpg_trace::EnvelopeMatcher) — the lint, the
//! runtime, replay and the DES share a single implementation of the MPI
//! matching rules. Pass 3 ([`graphcheck::lint_graph`]) inspects the recorded
//! [`EventGraph`].

mod envelope;
pub mod explore;
pub mod graphcheck;
pub mod hb_races;
pub mod progress;
pub mod slack;
pub mod sync;
pub mod waitstate;

pub use explore::{
    explore, explore_json, lint_explore, matching_makespan, ExploreFinding, ExploreFindingKind,
    ExploreOptions, ExploreOutcome, ExploreReport, ExploreStats,
};
pub use graphcheck::lint_graph;
pub use hb_races::{
    find_races, lint_races, witness_matching, witness_plan, RaceFinding, RaceWitness,
};
pub use progress::{
    forced_replay, forced_replays, lint_progress, run_progress, ForcedReplay, MatchPair,
    MatchPolicy, Matching, ProgressOutcome, SendRec,
};
pub use slack::{lint_chains, rank_chains, ChainSummary};
pub use sync::{lint_sync, SyncOptions};
pub use waitstate::{
    analyze_graph, lint_waitstates, CollectiveWait, KeyedWait, PerfReport, PerfThresholds,
    RankBreakdown, WaitClass, WaitInterval,
};

use mpg_core::{
    cached_hb_index, cached_recorded_graph, CacheStore, CancelReason, CancelToken, EventGraph,
    HbColumns, HbIndex, PerturbationModel, ReplayConfig, Replayer,
};
use mpg_trace::{sort_diagnostics, Diagnostic, EventKind, MemTrace, Rank, Rule, Severity};

/// The quiet recording-replay configuration behind every lint context —
/// one definition, so the report keys ([`ruleset_fingerprint`]) and the
/// artifact keys of [`LintContext::build_with`] name what the build runs.
///
/// `ack_arm(false)`: model standard sends as eager. The default
/// acknowledgement arm would order every send after its matching receive —
/// sound for conservative *timing*, but wrong for *happens-before*: it
/// would suppress legitimate wildcard races and all eager-buffer pile-up.
/// Synchronous sends keep their acknowledgement coupling.
fn lint_replay_config() -> ReplayConfig {
    ReplayConfig::new(PerturbationModel::quiet("lint"))
        .seed(0)
        .ack_arm(false)
        .record_graph(true)
}

/// The happens-before cells the passes ask about, per rank of `trace`
/// (DESIGN.md §12.1). A horizon is read for one rank's events (the row)
/// against another rank (the column), and the passes read exactly these:
///
/// * each send's destination — pass 7 reads `completion_horizon(dst, send)`
///   for every send, forbidden-match and watermark alike;
/// * for a rank that posts an `ANY_SOURCE` receive, every other rank that
///   sends to it — pass 4 and the explorer compare a wildcard's matched
///   send with the sends of the other sources both ways
///   (`issue_horizon(other, matched)`, `happens_before(matched, other)`),
///   and every one of those sends targets the wildcard's rank.
///
/// Built from the trace, not a matching, so it covers every matching the
/// explorer's forks produce.
fn query_columns(trace: &MemTrace) -> HbColumns {
    let p = trace.num_ranks();
    let mut dests: Vec<Vec<Rank>> = vec![Vec::new(); p];
    let mut wildcard = vec![false; p];
    // Destinations already listed for the rank being scanned.
    let mut listed = vec![false; p];
    for (r, mine) in dests.iter_mut().enumerate() {
        for ev in trace.rank(r) {
            match ev.kind {
                EventKind::Send { peer, .. } | EventKind::Isend { peer, .. } => {
                    if let Some(seen) = listed.get_mut(peer as usize).filter(|seen| !**seen) {
                        *seen = true;
                        mine.push(peer);
                    }
                }
                EventKind::Recv {
                    posted_any: true, ..
                }
                | EventKind::Irecv {
                    posted_any: true, ..
                } => wildcard[r] = true,
                _ => {}
            }
        }
        for &d in mine.iter() {
            listed[d as usize] = false;
        }
    }
    let mut senders: Vec<Vec<Rank>> = vec![Vec::new(); p];
    for (r, mine) in dests.iter().enumerate() {
        for &d in mine.iter().filter(|&&d| wildcard[d as usize]) {
            senders[d as usize].push(r as Rank);
        }
    }
    HbColumns::new(
        p,
        dests.iter().map(|mine| {
            let rivals = mine
                .iter()
                .filter(|&&d| wildcard[d as usize])
                .flat_map(|&d| senders[d as usize].iter().copied());
            mine.iter().copied().chain(rivals)
        }),
    )
}

/// Fingerprint of the lint rule set and its tunables, for report-level
/// cache keys: a cached lint report is only valid while the passes, their
/// default thresholds, and the replay configuration are all unchanged.
pub fn ruleset_fingerprint() -> String {
    let passes: Vec<&str> = PASSES.iter().map(|p| p.name).collect();
    format!(
        "passes={};thresholds={:?};sync={:?};replay={}",
        passes.join(","),
        PerfThresholds::default(),
        SyncOptions::default(),
        lint_replay_config().fingerprint(),
    )
}

/// Lints an in-memory trace: validation (pass 0) plus the progress-
/// simulation passes (1, 2, 5). Diagnostics come back sorted worst first
/// ([`sort_diagnostics`]). The graph-backed passes (3, 4, 6, 7) need a
/// recording replay and therefore run only under [`lint_full`].
pub fn lint_trace(trace: &MemTrace) -> Vec<Diagnostic> {
    let mut diags = mpg_trace::validate_trace_diagnostics(trace);
    diags.extend(lint_progress(trace));
    sort_diagnostics(&mut diags);
    diags
}

/// Which artifacts a [`LintPass`] reads from the [`LintContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Needs(u8);

impl Needs {
    /// The progress simulation's [`ProgressOutcome`].
    pub const PROGRESS: Needs = Needs(1);
    /// The recorded [`EventGraph`] from the quiet replay.
    pub const GRAPH: Needs = Needs(2);
    /// The [`HbIndex`] over that graph.
    pub const HB: Needs = Needs(4);

    /// Union of two requirement sets.
    pub const fn and(self, other: Needs) -> Needs {
        Needs(self.0 | other.0)
    }

    /// Does `self` include every requirement in `other`?
    pub fn includes(self, other: Needs) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Shared artifacts every graph-backed pass reads. Built once per lint
/// run; immutable afterwards so independent passes can run in parallel.
pub struct LintContext<'t> {
    /// The trace under analysis.
    pub trace: &'t MemTrace,
    /// Diagnostics + matching from the lockstep progress simulation.
    pub progress: ProgressOutcome,
    /// The recorded graph, when the quiet replay succeeded.
    pub graph: Option<EventGraph>,
    /// Why the graph is absent, when it is.
    pub graph_error: Option<String>,
    /// Happens-before index over `graph`. [`LintContext::build`] stores
    /// only the cells the passes read; any index whose columns cover
    /// those (an [`HbIndex::build`] one included) gives the same output.
    pub hb: Option<HbIndex>,
}

impl<'t> LintContext<'t> {
    /// Builds the artifacts: the progress simulation and the quiet
    /// recording replay run concurrently (they are independent), then the
    /// happens-before index is derived from the graph, storing only the
    /// columns the passes ask about (`query_columns`).
    pub fn build(trace: &'t MemTrace) -> Self {
        Self::build_with(trace, None, None).0
    }

    /// [`LintContext::build`] with the recorded graph and the
    /// happens-before index memoized through `cache`, and the build
    /// cancellable through `cancel`.
    ///
    /// `cache` is a store and the trace's content-fingerprint key: the
    /// graph loads from its MPGA artifact when cached (skipping the
    /// recording replay) and the index from its clock blob (skipping the
    /// clock propagation); what a cold build makes is published for the
    /// next run. The cache stores exactly what the cold path computes, so
    /// the context is the same either way.
    ///
    /// `cancel` is installed into the recording replay (checked every
    /// [`CHECK_INTERVAL`](mpg_core::CHECK_INTERVAL) events) and into the
    /// happens-before construction. When it fires mid-build the partial
    /// graph is *discarded* — a half-stitched graph would make the
    /// graph-backed passes report phantom defects — nothing is published,
    /// and the context degrades to the salvage shape (progress artifacts
    /// only), exactly as if the graph could not be built. The second
    /// return value reports whether (and why) the build was cut short.
    pub fn build_with(
        trace: &'t MemTrace,
        cache: Option<(&CacheStore, &str)>,
        cancel: Option<&CancelToken>,
    ) -> (Self, Option<CancelReason>) {
        let mut cfg = lint_replay_config();
        if let Some(token) = cancel {
            cfg = cfg.cancel_token(token.clone());
        }
        let (progress, replayed) = std::thread::scope(|scope| {
            let graph_thread = scope.spawn(|| match cache {
                Some((store, trace_key)) => {
                    cached_recorded_graph(store, trace_key, trace, cfg.clone())
                        .map(|(graph, _hit, cancelled)| (Some(graph), cancelled))
                }
                None => Replayer::new(cfg.clone())
                    .run(trace)
                    .map(|report| (report.graph, report.cancelled)),
            });
            let progress = run_progress(trace, &MatchPolicy::Recorded);
            (progress, graph_thread.join().expect("replay panicked"))
        });
        let (graph, graph_error, mut cancelled) = match replayed {
            Ok((_, Some(reason))) => (None, None, Some(reason)),
            Ok((graph, None)) => (graph, None, None),
            Err(e) => (None, Some(e.to_string()), None),
        };
        let hb = graph.as_ref().and_then(|g| {
            let columns = query_columns(trace);
            let built = match cache {
                Some((store, trace_key)) => {
                    cached_hb_index(store, trace_key, &cfg.fingerprint(), g, &columns, cancel)
                        .map(|(hb, _hit)| hb)
                }
                None => HbIndex::build_for(g, &columns, cancel),
            };
            built.map_err(|reason| cancelled = Some(reason)).ok()
        });
        // A fired token invalidates the graph for pass scheduling too.
        let graph = if cancelled.is_some() { None } else { graph };
        (
            LintContext {
                trace,
                progress,
                graph,
                graph_error,
                hb,
            },
            cancelled,
        )
    }

    /// The artifacts this context actually has.
    fn available(&self) -> Needs {
        let mut n = Needs::PROGRESS;
        if self.graph.is_some() {
            n = n.and(Needs::GRAPH);
        }
        if self.hb.is_some() {
            n = n.and(Needs::HB);
        }
        n
    }
}

/// One lint pass: a name, the artifacts it declares, and its runner. A
/// pass whose needs are not satisfied (e.g. the graph could not be
/// stitched) is skipped.
pub struct LintPass {
    /// Short pass label (matches [`Rule::pass`](mpg_trace::Rule::pass)).
    pub name: &'static str,
    /// Artifacts the pass reads.
    pub needs: Needs,
    /// Runs the pass over the shared context.
    pub run: fn(&LintContext<'_>) -> Vec<Diagnostic>,
}

/// The graph-era passes [`lint_full`] schedules over one [`LintContext`].
/// (Pass 0, validation, runs before the context is built; the progress
/// diagnostics of passes 1/2/5 are computed during the build and surfaced
/// by the `progress` entry here.)
pub const PASSES: &[LintPass] = &[
    LintPass {
        name: "progress",
        needs: Needs::PROGRESS,
        run: |ctx| ctx.progress.diags.clone(),
    },
    LintPass {
        name: "causality",
        needs: Needs::GRAPH,
        run: |ctx| lint_graph(ctx.graph.as_ref().expect("needs GRAPH")),
    },
    LintPass {
        name: "race",
        needs: Needs::PROGRESS.and(Needs::HB),
        run: |ctx| {
            lint_races(
                ctx.trace,
                &ctx.progress.matching,
                ctx.hb.as_ref().expect("needs HB"),
            )
        },
    },
    LintPass {
        name: "perf",
        needs: Needs::GRAPH,
        run: |ctx| {
            lint_perf(
                ctx.trace,
                ctx.graph.as_ref().expect("needs GRAPH"),
                &PerfThresholds::default(),
            )
        },
    },
    LintPass {
        name: "sync",
        needs: Needs::PROGRESS.and(Needs::GRAPH).and(Needs::HB),
        run: |ctx| {
            lint_sync(
                ctx.trace,
                ctx.graph.as_ref().expect("needs GRAPH"),
                ctx.hb.as_ref().expect("needs HB"),
                &ctx.progress.matching,
                &SyncOptions::default(),
            )
        },
    },
    // Pass 8 ships with a zero budget: registered (so the ruleset
    // fingerprint and `--rules` advertise it) but inert under plain
    // `lint_full`, whose output stays bit-identical. `lint_explore`
    // drives it with a real budget.
    LintPass {
        name: "explore",
        needs: Needs::PROGRESS.and(Needs::HB),
        run: |ctx| explore::explore(ctx, &ExploreOptions::default()).diags(),
    },
];

/// Full lint: validation, then the pass manager over a shared
/// [`LintContext`].
///
/// Error-severity validation findings short-circuit (the trace cannot be
/// simulated faithfully); error-severity progress findings (deadlock,
/// unmatched traffic, …) suppress the graph-backed passes, since the
/// recording replay of a defective trace would only echo the same defect
/// as an unhelpful `MPG-CYCLE`. When the earlier passes are clean but the
/// replayer still rejects the trace, that *is* reported as `MPG-CYCLE`.
/// Passes with satisfied needs run in parallel over the immutable context.
pub fn lint_full(trace: &MemTrace) -> Vec<Diagnostic> {
    lint_full_with(trace, None, None).diags
}

/// Result of a full lint ([`lint_full_with`]).
///
/// `cancelled: Some(_)` means the run was cut short: `diags` still carries
/// everything computed before the cut — validation plus, when the progress
/// simulation finished, the progress-pass findings — but the graph-backed
/// passes (3, 4, 6, 7) were skipped. The rule set is deliberately *not*
/// extended with a "cancelled" diagnostic: a cut-short lint is an incomplete
/// answer, not a defect in the trace.
#[derive(Debug, Clone)]
pub struct LintOutcome {
    /// Diagnostics found before the cut (sorted worst first).
    pub diags: Vec<Diagnostic>,
    /// Why the run was cut short, when it was.
    pub cancelled: Option<CancelReason>,
}

/// [`lint_full`] over [`LintContext::build_with`]: the graph and
/// happens-before artifacts memoized through `cache`, the run deadline-
/// and cancel-aware through `cancel`. Diagnostics are identical to the
/// cold path; a warm cache only skips the artifact construction. A fired
/// token degrades the output to the salvage path — validation and
/// progress findings only — rather than erroring; see [`LintOutcome`].
pub fn lint_full_with(
    trace: &MemTrace,
    cache: Option<(&CacheStore, &str)>,
    cancel: Option<&CancelToken>,
) -> LintOutcome {
    let mut diags = mpg_trace::validate_trace_diagnostics(trace);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        sort_diagnostics(&mut diags);
        return LintOutcome {
            diags,
            cancelled: None,
        };
    }
    let (ctx, cancelled) = LintContext::build_with(trace, cache, cancel);
    let diags = lint_over_context(diags, ctx);
    LintOutcome { diags, cancelled }
}

/// Shared back half of [`lint_full_with`] and
/// [`lint_explore`](explore::lint_explore): progress-error short-circuit,
/// graph-stitch reporting, then the parallel pass schedule over whatever
/// artifacts the context has.
fn lint_over_context(mut diags: Vec<Diagnostic>, ctx: LintContext<'_>) -> Vec<Diagnostic> {
    let progress_errors = ctx
        .progress
        .diags
        .iter()
        .any(|d| d.severity == Severity::Error);
    if progress_errors {
        diags.extend(ctx.progress.diags);
        sort_diagnostics(&mut diags);
        return diags;
    }
    let available = ctx.available();
    if let Some(e) = &ctx.graph_error {
        diags.push(Diagnostic::new(
            Rule::Cycle,
            format!("event graph could not be stitched: {e}"),
        ));
    }
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = PASSES
            .iter()
            .filter(|pass| available.includes(pass.needs))
            .map(|pass| scope.spawn(|| (pass.run)(&ctx)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lint pass panicked"))
            .collect::<Vec<_>>()
    });
    for r in results {
        diags.extend(r);
    }
    sort_diagnostics(&mut diags);
    diags
}

/// Lints a trace recovered by the salvage reader
/// ([`FileTraceSet::load_salvage`](mpg_trace::FileTraceSet::load_salvage)),
/// merging the salvage findings (`MPG-TRUNCATED-TRACE`, `MPG-MISSING-RANK`)
/// into the static-analysis output. The salvage rules default to warning
/// severity so a recovered trace still lints; pass them to `--deny` (or
/// escalate them before gating) to make salvaged input a hard failure.
pub fn lint_salvaged(trace: &MemTrace, salvage: &mpg_trace::SalvageReport) -> Vec<Diagnostic> {
    let mut diags = salvage.diagnostics();
    diags.extend(lint_full(trace));
    sort_diagnostics(&mut diags);
    diags
}

/// Pass 6 on its own: runs the wait-state/slack analysis over a recorded
/// graph and returns the threshold-gated performance findings
/// (`MPG-LATE-SENDER`, `MPG-COLLECTIVE-IMBALANCE`, `MPG-SERIAL-CHAIN`).
/// Used by [`lint_full`] and by `mpgtool analyze` (which also renders the
/// underlying [`PerfReport`]).
pub fn lint_perf(
    trace: &MemTrace,
    graph: &mpg_core::EventGraph,
    thresholds: &PerfThresholds,
) -> Vec<Diagnostic> {
    let report = analyze_graph(trace, graph);
    let mut diags = lint_waitstates(&report, thresholds);
    diags.extend(lint_chains(&report, thresholds));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_trace::{EventKind, EventRecord};

    fn one_rank_trace(kinds: Vec<EventKind>) -> MemTrace {
        let mut mt = MemTrace::new(1);
        for (i, kind) in kinds.into_iter().enumerate() {
            let t = i as u64 * 10;
            mt.push(EventRecord {
                rank: 0,
                seq: i as u64,
                t_start: t,
                t_end: t + 10,
                kind,
            });
        }
        mt
    }

    #[test]
    fn trivial_trace_is_clean() {
        let mt = one_rank_trace(vec![
            EventKind::Init,
            EventKind::Compute { work: 10 },
            EventKind::Finalize,
        ]);
        assert!(lint_trace(&mt).is_empty());
        assert!(lint_full(&mt).is_empty());
    }

    #[test]
    fn context_builds_all_artifacts_on_clean_trace() {
        let mt = one_rank_trace(vec![
            EventKind::Init,
            EventKind::Compute { work: 10 },
            EventKind::Finalize,
        ]);
        let ctx = LintContext::build(&mt);
        assert!(ctx.graph.is_some());
        assert!(ctx.hb.is_some());
        assert!(ctx.graph_error.is_none());
        assert!(ctx.progress.matching.completed);
        let available = ctx.available();
        for pass in PASSES {
            assert!(
                available.includes(pass.needs),
                "pass {} should be runnable on a clean trace",
                pass.name
            );
        }
    }

    #[test]
    fn cached_lint_matches_cold_on_miss_and_hit() {
        let mt = {
            let mut t = MemTrace::new(2);
            let mut push = |rank, seq, t0, kind| {
                t.push(mpg_trace::EventRecord {
                    rank,
                    seq,
                    t_start: t0,
                    t_end: t0 + 10,
                    kind,
                })
            };
            push(0, 0, 0, EventKind::Init);
            push(0, 1, 10, EventKind::Compute { work: 10 });
            push(0, 2, 20, EventKind::Finalize);
            push(1, 0, 0, EventKind::Init);
            push(1, 1, 10, EventKind::Compute { work: 10 });
            push(1, 2, 20, EventKind::Finalize);
            t
        };
        let dir = std::env::temp_dir().join(format!("mpg-lint-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CacheStore::open(&dir).unwrap();
        let cold = lint_full(&mt);
        let miss = lint_full_with(&mt, Some((&store, "unit-key")), None);
        let hit = lint_full_with(&mt, Some((&store, "unit-key")), None);
        assert_eq!(cold, miss.diags);
        assert_eq!(cold, hit.diags);
        assert!(
            !store.ls().is_empty(),
            "cached lint should publish artifacts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancellable_lint_matches_and_degrades() {
        let mt = one_rank_trace(vec![
            EventKind::Init,
            EventKind::Compute { work: 10 },
            EventKind::Finalize,
        ]);
        // Live token: identical to the plain full lint.
        let live = CancelToken::new();
        let out = lint_full_with(&mt, None, Some(&live));
        assert!(out.cancelled.is_none());
        assert_eq!(out.diags, lint_full(&mt));
        // Pre-fired token: degrades to the salvage shape (progress-only),
        // reports the cut, and never invents diagnostics.
        let fired = CancelToken::new();
        fired.cancel();
        let out = lint_full_with(&mt, None, Some(&fired));
        assert_eq!(out.cancelled, Some(CancelReason::Cancelled));
        assert_eq!(out.diags, lint_trace(&mt));
    }

    /// A token fired at any poll of a cached build — in the recording
    /// replay or in the clock propagation — leaves nothing partial in the
    /// store: a recording cut short publishes nothing at all, and whatever
    /// a later cut leaves is byte for byte what an uncut build publishes.
    #[test]
    fn cancelled_build_publishes_nothing_partial() {
        let trace = hb_races::master_worker_trace();
        let published = |tag: &str, cancel: Option<&CancelToken>| {
            let dir =
                std::env::temp_dir().join(format!("mpg-lint-cancel-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = CacheStore::open(&dir).unwrap();
            let (ctx, cancelled) = LintContext::build_with(&trace, Some((&store, "k")), cancel);
            assert_eq!(cancelled.is_some(), ctx.graph.is_none() && ctx.hb.is_none());
            let files: Vec<(String, Vec<u8>)> = store
                .ls()
                .into_iter()
                .map(|e| {
                    let bytes = std::fs::read(dir.join(format!("{}.mpgc", e.key))).unwrap();
                    (e.key, bytes)
                })
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            (files, cancelled)
        };
        let (whole, _) = published("whole", None);
        assert_eq!(whole.len(), 2, "the arena and the clocks");
        for checks in 0.. {
            let token = CancelToken::new();
            token.fire_after_checks(checks);
            let (files, cancelled) = published(&format!("cut-{checks}"), Some(&token));
            if cancelled.is_none() {
                assert_eq!(files, whole);
                assert!(checks > 1, "the token never fired mid-build");
                break;
            }
            if checks == 0 {
                assert!(files.is_empty(), "a cut recording was published");
            }
            assert!(files.len() < whole.len(), "cut at poll {checks}");
            assert!(
                files.iter().all(|f| whole.contains(f)),
                "cut at poll {checks}"
            );
        }
    }

    #[test]
    fn needs_algebra() {
        let both = Needs::PROGRESS.and(Needs::GRAPH);
        assert!(both.includes(Needs::PROGRESS));
        assert!(both.includes(Needs::GRAPH));
        assert!(!both.includes(Needs::HB));
        assert!(both.includes(both));
    }

    #[test]
    fn salvaged_lint_merges_salvage_findings() {
        use mpg_trace::{RankSalvage, SalvageReport};
        // A clean single-rank trace, but the salvage report says rank 1's
        // file was missing: the lint output must carry MPG-MISSING-RANK so
        // `--deny MPG-MISSING-RANK` can reject salvaged input.
        let mt = one_rank_trace(vec![
            EventKind::Init,
            EventKind::Compute { work: 10 },
            EventKind::Finalize,
        ]);
        let salvage = SalvageReport {
            ranks: vec![RankSalvage::missing(1)],
        };
        let diags = lint_salvaged(&mt, &salvage);
        assert!(
            diags.iter().any(|d| d.rule == Rule::MissingRank),
            "{diags:?}"
        );
    }

    #[test]
    fn gate_rejects_defective_trace() {
        // Missing Init/Finalize: two error diagnostics from pass 0.
        let mt = one_rank_trace(vec![EventKind::Compute { work: 10 }]);
        let errors: Vec<_> = lint_trace(&mt)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(!errors.is_empty());
    }
}
