//! Property test: the event-driven ready-queue scheduler never deadlocks
//! on a valid trace.
//!
//! Random SPMD programs are assembled from communication rounds that are
//! deadlock-free by construction (ring exchanges, symmetric sendrecv
//! shifts, paired blocking exchanges, collectives), simulated, and
//! replayed under a noisy perturbation model. The scheduler must retire
//! every event — a lost wakeup would surface as the engine's
//! "matching made no progress" deadlock-on-drain error — and stay within
//! its O(events) wakeup bound.

use mpg_core::{ReplayConfig, Replayer};
use mpg_testkit::{noisy_model, round_strategy, simulate, SPMD};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn random_valid_programs_never_deadlock_the_ready_queue(
        p in 2u32..10,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(SPMD), 1..14),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let rep = Replayer::new(ReplayConfig::new(noisy_model(sim_seed)).seed(11))
            .run(&trace)
            .expect("ready-queue scheduler drains the trace without deadlock");
        // Every traced event retired: nothing was left asleep on the queue.
        prop_assert_eq!(rep.stats.events, trace.total_events() as u64);
        let bound = rep.stats.events
            + rep.stats.messages_matched
            + rep.stats.collectives * u64::from(p);
        prop_assert!(
            rep.stats.scheduler_wakeups <= bound,
            "wakeups {} exceed bound {} (p={}, rounds={:?})",
            rep.stats.scheduler_wakeups,
            bound,
            p,
            rounds
        );
    }
}
