//! Cooperative-cancellation robustness: firing a [`CancelToken`] at an
//! arbitrary point of any demo workload's replay must yield a clean
//! partial report — never a panic, hang, or error. That an unfired token
//! leaves the replay bit-identical to a token-free run is a cell of
//! `mpg-analysis`'s `tests/cross_paths.rs`.

use proptest::prelude::*;

use mpg::core::{CancelReason, CancelToken, PerturbationModel, ReplayConfig, Replayer};
use mpg::noise::Dist;
use mpg_testkit::demo_trace;

fn noisy_config(seed: u64) -> ReplayConfig {
    let mut model = PerturbationModel::quiet("cancel-prop");
    model.os_local = Dist::Exponential { mean: 250.0 }.into();
    model.latency = Dist::Constant(100.0).into();
    ReplayConfig::new(model).seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 28, ..ProptestConfig::default() })]

    /// Firing the token after a random number of engine checks always
    /// produces `Ok` with a clean partial frontier: the cancelled report
    /// never claims more events than the full run, and its reason is
    /// latched as `Cancelled`.
    #[test]
    fn random_fire_point_yields_clean_partial_report(
        workload in 0usize..7,
        fire_at in 1u64..12,
        seed in 0u64..64,
    ) {
        let trace = demo_trace(workload);
        let full = Replayer::new(noisy_config(seed))
            .run(trace)
            .expect("token-free replay completes");
        prop_assert!(full.cancelled.is_none());

        let token = CancelToken::new();
        token.fire_after_checks(fire_at);
        let partial = Replayer::new(noisy_config(seed).cancel_token(token))
            .run(trace)
            .expect("cancelled replay must still return Ok");
        match partial.cancelled {
            // Fired mid-flight: a partial frontier, bounded by the full run.
            Some(reason) => {
                prop_assert_eq!(reason, CancelReason::Cancelled);
                prop_assert!(partial.stats.events <= full.stats.events);
                let deg = partial.degradation.expect("partial report carries a frontier");
                prop_assert!(!deg.frontiers.is_empty());
                for f in &deg.frontiers {
                    prop_assert!(f.events_completed <= full.stats.events);
                }
            }
            // The trace finished before `fire_at` checks accumulated —
            // then the report must be indistinguishable from token-free.
            None => {
                prop_assert_eq!(&partial.final_drift, &full.final_drift);
                prop_assert_eq!(&partial.stats, &full.stats);
                prop_assert!(partial.degradation.is_none());
            }
        }
    }
}
