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
//! The fork invariant of DESIGN.md §18 — a forced replay forked off the
//! recorded run equals the from-scratch simulation under the same plan —
//! is a cell of `mpg-analysis`'s `tests/cross_paths.rs`.

use mpg_lint::{find_races, witness_matching, LintContext};
use mpg_testkit::{round_strategy, try_simulate, ANY_WILDCARD};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn every_reported_race_has_a_replayable_witness(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(ANY_WILDCARD), 1..6),
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
