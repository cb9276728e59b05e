//! Property test: a lint run over the happens-before index restricted to
//! the columns the passes ask about reads what it would read off the
//! all-columns index.
//!
//! `LintContext::build` derives a column map from the trace — each send's
//! destination, and every pair of ranks that send to a rank posting an
//! `ANY_SOURCE` receive — and stores only those cells. On random programs
//! heavy on wildcard receives (gathers of every kind, request–reply turns,
//! wildcard rings, a wildcard beside a pinned consumer), every pass and
//! the explorer at budget 16 must give the same answer over that index as
//! over `HbIndex::build`'s. Barrier programs get the same check in
//! `proptest_sync.rs`.

use proptest::prelude::*;

use mpg_testkit::{round_strategy, try_simulate, ANY_WILDCARD};

#[path = "shared/full_index.rs"]
mod full_index;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn projected_index_lints_and_explores_like_the_full_one(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(ANY_WILDCARD), 1..7),
    ) {
        if let Some(trace) = try_simulate(p, sim_seed, &rounds) {
            let checked = full_index::projected_lints_like_full(&trace);
            prop_assert!(checked.is_ok(), "{} on {p} ranks: {rounds:?}", checked.unwrap_err());
        }
    }
}
