//! MPGA compiled-arena format properties, over random deadlock-free SPMD
//! programs:
//!
//! 1. **Round-trip**: `encode_arena → decode_arena` is lossless — the
//!    re-encoded bytes are bit-identical, and a graph rebuilt from the
//!    decoded arena yields the same critical path as the recorded one.
//! 2. **Derived artifacts agree**: the [`HbIndex`] and [`DriftSlack`] of
//!    the rebuilt graph equal the recorded graph's, and the clock blob is
//!    a stable fixed point (`from_bytes ∘ to_bytes` re-serializes to the
//!    same bytes).
//!
//! A damaged cached arena or clock blob falling back to the recording is
//! a cell of `mpg-analysis`'s `tests/cross_paths.rs`. Forged artifacts,
//! which must also reach no panic in the analyzer, are the workspace's
//! `tests/forged_mpga.rs`.

use mpg_core::{
    critical_path, decode_arena, drift_slack, encode_arena, DriftSlack, EventGraph, HbIndex,
    ReplayConfig,
};
use mpg_testkit::{noisy_model, record, round_strategy, simulate, SPMD};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Encode → decode → re-encode is bit-identical, and the rebuilt graph
    /// carries the same critical path, the same serialized happens-before
    /// clocks and the same drift-slack table as the recorded one.
    #[test]
    fn mpga_roundtrip_is_lossless(
        p in 2u32..8,
        sim_seed in 0u64..1_000,
        replay_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(SPMD), 1..6),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let cfg = ReplayConfig::new(noisy_model(sim_seed)).seed(replay_seed).record_graph(true);
        let graph = record(&trace, &cfg);

        let bytes = encode_arena(graph.arena());
        let decoded = decode_arena(&bytes).expect("well-formed arena decodes");
        prop_assert_eq!(&encode_arena(&decoded), &bytes, "re-encode differs");

        let rebuilt = EventGraph::from_arena(decoded);
        prop_assert_eq!(critical_path(&graph), critical_path(&rebuilt));

        // Derived artifacts agree and their serializations are stable
        // fixed points.
        let hb = HbIndex::build(&graph);
        let hb2 = HbIndex::build(&rebuilt);
        prop_assert_eq!(hb.to_bytes(), hb2.to_bytes());
        let hb_bytes = hb.to_bytes();
        let hb_rt = HbIndex::from_bytes(&hb_bytes).expect("hb deserializes");
        prop_assert_eq!(hb_rt.to_bytes(), hb_bytes);

        let fields = |s: DriftSlack| (s.anchor, s.anchor_drift, s.slack);
        prop_assert_eq!(
            drift_slack(&graph).map(fields),
            drift_slack(&rebuilt).map(fields)
        );
    }
}
