//! Property tests for the pass-8 schedule-space explorer.
//!
//! Random SPMD programs heavy on wildcard receives are simulated, then
//! explored under a real budget. Two invariants:
//!
//! 1. **Every finding re-replays to its claimed outcome.** An
//!    `MPG-MAY-DEADLOCK` plan, fed back through the shared forced-replay
//!    path, must deadlock again; an `MPG-SCHEDULE-DIVERGENCE` plan must
//!    complete and reproduce the claimed makespan shift. The explorer
//!    can miss; it cannot lie.
//! 2. **A zero budget is a no-op.** `lint_explore` at budget 0 must be
//!    bit-identical to plain `lint_full` — the pass ships registered but
//!    inert, and pre-explorer output never changes.

use mpg_core::forced::ForcedOutcome;
use mpg_lint::{
    forced_replay, lint_explore, lint_full, matching_makespan, ExploreFindingKind, ExploreOptions,
    LintContext,
};
use proptest::prelude::*;

use mpg_testkit::{round_strategy, simulate as trace_of, PINNED};

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn every_finding_rereplays_to_its_claimed_outcome(
        p in 2u32..6,
        sim_seed in 0u64..1_000,
        explore_seed in 0u64..8,
        rounds in prop::collection::vec(round_strategy(PINNED), 1..5),
    ) {
        let trace = trace_of(p, sim_seed, &rounds);
        let opts = ExploreOptions {
            budget: 24,
            depth: 2,
            divergence_pct: 10.0,
            seed: explore_seed,
            cancel: None,
        };
        let out = lint_explore(&trace, &opts, None);
        prop_assert!(out.stats.explored <= opts.budget);
        if !out.stats.budget_exhausted && out.stats.cancelled.is_none() {
            prop_assert_eq!(out.stats.frontier_unexplored, 0,
                "drained frontier must report zero unexplored");
        }
        let ctx = LintContext::build(&trace);
        let base = matching_makespan(&trace, &ctx.progress.matching);
        for f in &out.findings {
            let rep = forced_replay(&trace, &f.plan);
            match &f.kind {
                ExploreFindingKind::MayDeadlock { cycle } => {
                    prop_assert_eq!(rep.outcome, ForcedOutcome::Deadlocked,
                        "may-deadlock plan must deadlock on re-replay: {:?}", f.plan);
                    prop_assert!(!cycle.is_empty(), "cycle names its ranks");
                }
                ExploreFindingKind::Divergence { base: b, alt, pct } => {
                    prop_assert_eq!(rep.outcome, ForcedOutcome::Completed,
                        "divergence plan must complete on re-replay: {:?}", f.plan);
                    prop_assert_eq!(Some(*b), base, "claimed baseline is the recorded one");
                    let re_alt = matching_makespan(&trace, &rep.matching)
                        .expect("completed matching has a makespan");
                    prop_assert_eq!(re_alt, *alt, "claimed alternate makespan reproduces");
                    prop_assert!(*pct > opts.divergence_pct);
                }
            }
        }
    }

    #[test]
    fn budget_zero_is_bit_identical_to_lint_full(
        p in 2u32..6,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(PINNED), 1..5),
    ) {
        let trace = trace_of(p, sim_seed, &rounds);
        let out = lint_explore(&trace, &ExploreOptions::default(), None);
        prop_assert_eq!(out.diags, lint_full(&trace));
        prop_assert!(out.findings.is_empty());
        prop_assert_eq!(out.stats, mpg_lint::ExploreStats::default());
    }
}
