//! MPGA compiled-arena format & artifact-cache fallback properties.
//!
//! Three contracts, exercised over random deadlock-free SPMD programs:
//!
//! 1. **Round-trip**: `encode_arena → decode_arena` is lossless — the
//!    re-encoded bytes are bit-identical, and a graph rebuilt from the
//!    decoded arena yields the same critical path as the recorded one.
//! 2. **Corruption falls back cold**: a truncated, bit-flipped, or
//!    version-bumped arena artifact in the cache is *detected* (either by
//!    the MPGC envelope or by MPGA validation) and
//!    [`cached_recorded_graph`] silently re-records, returning a graph
//!    bit-identical to the cold one — never an error, never wrong output.
//! 3. **Derived artifacts agree**: the [`HbIndex`] and [`DriftSlack`] of
//!    the rebuilt graph equal the recorded graph's, and the clock blob is
//!    a stable fixed point (`from_bytes ∘ to_bytes` re-serializes to the
//!    same bytes).
//!
//! Forged artifacts, which must also reach no panic in the analyzer, are
//! the workspace's `tests/forged_mpga.rs`.

use mpg_core::{
    cached_recorded_graph, critical_path, decode_arena, drift_slack, encode_arena, CacheStore,
    DriftSlack, EventGraph, HbIndex, ReplayConfig,
};
use proptest::prelude::*;

#[path = "shared/spmd.rs"]
mod spmd;
use spmd::{model, record, round_strategy, simulate};

fn temp_store(tag: &str) -> CacheStore {
    let d = std::env::temp_dir().join(format!("mpg-mpgaprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    CacheStore::open(&d).unwrap()
}

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
        rounds in prop::collection::vec(round_strategy(), 1..6),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let cfg = ReplayConfig::new(model(sim_seed)).seed(replay_seed).record_graph(true);
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

    /// A damaged cached arena — truncated, bit-flipped, or version-bumped —
    /// never reaches the caller: the warm path detects it, re-records cold,
    /// and returns a bit-identical graph (then repairs the cache entry).
    #[test]
    fn corrupt_cached_arena_falls_back_bit_identical(
        p in 2u32..6,
        sim_seed in 0u64..500,
        flip_pos in any::<u64>(),
        rounds in prop::collection::vec(round_strategy(), 1..5),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let cfg = ReplayConfig::new(model(sim_seed)).seed(7).record_graph(true);
        let cold = record(&trace, &cfg);
        let cold_bytes = encode_arena(cold.arena());

        let store = temp_store(&format!("fallback-{p}-{sim_seed}"));
        let trace_key = "prop-trace-key";
        let arena_key = CacheStore::artifact_key(
            trace_key,
            mpg_core::ArtifactKind::Arena,
            &cfg.fingerprint(),
        );

        // Three damage modes, all published as *valid MPGC envelopes* so
        // the MPGA validation layer (not just the envelope CRC) is what
        // must catch them.
        let truncated = cold_bytes[..cold_bytes.len() - 1 - (flip_pos % 8) as usize].to_vec();
        let mut flipped = cold_bytes.clone();
        let i = (flip_pos % flipped.len() as u64) as usize;
        flipped[i] ^= 0x10;
        let mut bumped = cold_bytes.clone();
        bumped[4] = bumped[4].wrapping_add(1); // version u32le low byte
        for damaged in [truncated, flipped, bumped] {
            store
                .put(&arena_key, mpg_core::ArtifactKind::Arena, &damaged)
                .unwrap();
            let (graph, hit, _) = cached_recorded_graph(&store, trace_key, &trace, cfg.clone())
                .expect("fallback never errors");
            // The whole-file CRC is part of the MPGA payload, so every
            // damage mode above misses; the returned graph must be
            // bit-identical to the cold recording.
            prop_assert_eq!(&encode_arena(graph.arena()), &cold_bytes);
            if !hit {
                // The cold fallback repaired the entry: a second call hits
                // and still agrees.
                let (again, hit2, _) =
                    cached_recorded_graph(&store, trace_key, &trace, cfg.clone())
                        .expect("repaired entry loads");
                prop_assert!(hit2);
                prop_assert_eq!(&encode_arena(again.arena()), &cold_bytes);
            }
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}
