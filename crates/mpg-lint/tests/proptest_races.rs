//! Property test: every reported wildcard race is backed by a *replayable*
//! witness.
//!
//! Random SPMD programs heavy on wildcard receives (gathers, wildcard
//! ring sinks) are simulated; for every race the HB pass reports, the
//! witness schedule — the racy receive forced onto the alternate source,
//! the displaced receive forced onto the recorded source — is re-run
//! through the progress simulation and must (a) drive every rank to
//! completion and (b) really deliver the alternate source to the racy
//! receive. This is the soundness half of §12: `MPG-WILD-RACE` never
//! reports a hypothetical — although pass 4 itself stops each candidate's
//! replay where it rejoins the recorded program (DESIGN.md §18.8), which is
//! why this property draws from every round shape there is. The other
//! half of that section's claim, that a candidate pass 4 *rejects* fails in
//! a whole simulation too, needs the candidates and the fork counters, and
//! sits beside them: `src/hb_races.rs::rejoin_verdict_equals_whole_suffix`
//! and `src/progress.rs::rejoin_equals_the_whole_run_on_arbitrary_swaps`.
//!
//! The second property is the fork invariant of DESIGN.md §18: a forced
//! replay forked off the recorded run equals the from-scratch simulation
//! under the same plan, field for field, for every plan — feasible or not.

use mpg_core::forced::{ForcedOutcome, MatchPlan};
use mpg_lint::{
    find_races, forced_replay, forced_replays, lint_explore, run_progress, witness_matching,
    witness_plan, ExploreOptions, ForcedReplay, LintContext, MatchPolicy,
};
use mpg_trace::{MemTrace, Rank, Rule};
use proptest::prelude::*;

#[path = "shared/wildcard_programs.rs"]
mod programs;
use programs::{any_round_strategy, round_strategy, simulate, try_simulate};

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
    prop_assert_eq!(
        forked.outcome,
        reference.outcome,
        "outcome under [{}]",
        plan
    );
    prop_assert_eq!(
        forked.matching.completed,
        reference.matching.completed,
        "completed under [{}]",
        plan
    );
    prop_assert_eq!(
        &forked.matching.pairs,
        &reference.matching.pairs,
        "pairs under [{}]",
        plan
    );
    prop_assert_eq!(
        &forked.matching.sends,
        &reference.matching.sends,
        "sends under [{}]",
        plan
    );
    prop_assert_eq!(&forked.diags, &reference.diags, "diags under [{}]", plan);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn forked_replay_equals_from_scratch_replay(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(false), 1..6),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let ctx = LintContext::build(&trace);
        prop_assert!(ctx.progress.matching.completed, "program deadlocked");
        let plans = plans_for(&trace, &ctx);
        // As one batch (forks copied off the recorded run, the last one
        // taking it over) and one at a time (each its own recorded run).
        let batch = forced_replays(&trace, &plans);
        prop_assert_eq!(batch.len(), plans.len());
        for (plan, forked) in plans.iter().zip(&batch) {
            let reference = from_scratch(&trace, plan);
            assert_same_replay(forked, &reference, plan);
            assert_same_replay(&forced_replay(&trace, plan), &reference, plan);
        }
    }

    #[test]
    fn every_reported_race_has_a_replayable_witness(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(any_round_strategy(), 1..6),
    ) {
        let Some(trace) = try_simulate(p, sim_seed, &rounds) else {
            continue;
        };
        let ctx = LintContext::build(&trace);
        prop_assert!(ctx.progress.matching.completed, "program deadlocked");
        let hb = ctx.hb.as_ref().expect("graph recorded for a clean trace");
        let findings = find_races(&trace, &ctx.progress.matching, hb);
        for f in &findings {
            prop_assert!(!f.witnesses.is_empty(), "finding without witnesses: {f:?}");
            for w in &f.witnesses {
                prop_assert_eq!(w.recv, f.recv);
                prop_assert_eq!(w.matched, f.matched);
                prop_assert_ne!(
                    w.alternate.0, f.matched.0,
                    "non-overtaking: same-source sends are never alternates"
                );
                prop_assert!(
                    hb.concurrent(w.alternate, w.matched),
                    "witness send must be concurrent with the recorded match"
                );
                // Independent replay of the witness schedule: must complete
                // and must actually deliver the alternate source.
                let m = witness_matching(&trace, w);
                prop_assert!(m.is_some(), "witness not replayable: {w:?}");
                let m = m.unwrap();
                prop_assert!(m.completed);
                prop_assert!(
                    m.pairs
                        .iter()
                        .any(|pr| pr.recv == w.recv && pr.send.0 == w.alternate.0),
                    "forced schedule did not deliver the alternate: {w:?}"
                );
            }
        }
    }
}
