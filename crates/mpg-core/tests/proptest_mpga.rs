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
//! 3. **Derived-artifact round-trips**: the [`HbIndex`] and [`DriftSlack`]
//!    serializations are stable fixed points (`from_bytes ∘ to_bytes`
//!    re-serializes to the same bytes).
//! 4. **Forged node identities**: an artifact whose `node_seq` column was
//!    rewritten (and the checksum re-sealed) to `u64::MAX`, `2^40`, or a
//!    value around the edge of the index's dense window decodes without
//!    sizing anything by the forged number, to an arena whose index finds
//!    every node — or to a typed error; two nodes forged to one identity
//!    are always `Malformed("duplicate node identity")`.

use mpg_core::{
    cached_recorded_graph, critical_path, decode_arena, drift_slack, encode_arena, CacheStore,
    DriftSlack, EventGraph, HbIndex, MpgaError, NodeIdx, PerturbationModel, ReplayConfig, Replayer,
};
use mpg_noise::{Dist, PlatformSignature};
use mpg_sim::RankCtx;
use mpg_trace::frame::crc32c;
use mpg_trace::MemTrace;
use proptest::prelude::*;

/// One deadlock-free SPMD round (every rank runs the same sequence).
#[derive(Debug, Clone)]
enum Round {
    Compute(u64),
    Ring { tag: u32, bytes: u64 },
    Barrier,
    Allreduce { bytes: u64 },
}

fn run_round(ctx: &mut RankCtx, round: &Round) {
    let p = ctx.size();
    let me = ctx.rank();
    match *round {
        Round::Compute(work) => ctx.compute(work),
        Round::Ring { tag, bytes } => {
            let r = ctx.irecv((me + p - 1) % p, tag);
            let s = ctx.isend((me + 1) % p, tag, bytes);
            ctx.waitall(&[r, s]);
        }
        Round::Barrier => ctx.barrier(),
        Round::Allreduce { bytes } => ctx.allreduce(bytes),
    }
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (1u64..10_000).prop_map(Round::Compute),
        (0u32..4, 1u64..2_048).prop_map(|(tag, bytes)| Round::Ring { tag, bytes }),
        Just(Round::Barrier),
        (1u64..1_024).prop_map(|bytes| Round::Allreduce { bytes }),
    ]
}

fn simulate(p: u32, sim_seed: u64, rounds: &[Round]) -> MemTrace {
    mpg_sim::Simulation::new(p, PlatformSignature::quiet("mpga-prop"))
        .ideal_clocks()
        .seed(sim_seed)
        .run(|ctx| {
            for round in rounds {
                run_round(ctx, round);
            }
        })
        .expect("generated program simulates")
        .trace
}

/// A mildly noisy model so recorded labels carry nonzero perturbations.
fn model(seed_hint: u64) -> PerturbationModel {
    let mut m = PerturbationModel::quiet("mpga-prop");
    m.os_local = Dist::Exponential {
        mean: 30.0 + (seed_hint % 5) as f64,
    }
    .into();
    m.latency = Dist::Exponential { mean: 90.0 }.into();
    m.per_byte = 0.02;
    m
}

fn record(trace: &MemTrace, cfg: &ReplayConfig) -> EventGraph {
    Replayer::new(cfg.clone())
        .run(trace)
        .expect("recording replay succeeds")
        .graph
        .expect("graph recorded")
}

fn temp_store(tag: &str) -> CacheStore {
    let d = std::env::temp_dir().join(format!("mpg-mpgaprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    CacheStore::open(&d).unwrap()
}

/// Overwrites entry `node` of an MPGA artifact's `node_seq` column (header
/// 40 bytes, kind table, `node_rank:u32[nodes]` padded to 8, then
/// `node_seq:u64[nodes]` — the layout in `mpga.rs`) and re-seals the CRC,
/// so only the structural validation stands between the forgery and the
/// caller.
fn forge_node_seq(bytes: &mut [u8], node: usize, seq: u64) {
    let u32_at = |b: &[u8], o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap()) as usize;
    let nodes = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    assert!(node < nodes);
    let mut pos = 48;
    for _ in 0..u32_at(bytes, 40) {
        pos += 4 + u32_at(bytes, pos);
    }
    pos = pos.next_multiple_of(8) + (nodes * 4).next_multiple_of(8) + node * 8;
    bytes[pos..pos + 8].copy_from_slice(&seq.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = crc32c(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// A forged `node_seq` either decodes to an arena whose index maps
    /// every node back to itself (and re-encodes to the forged bytes), or
    /// is a typed error — and returns at all, which a table sized by the
    /// forged number (`2^40` slots) would not.
    #[test]
    fn forged_node_seq_decodes_or_errors(
        p in 2u32..6,
        sim_seed in 0u64..500,
        pick in any::<u64>(),
        forged in prop_oneof![
            Just(u64::MAX),
            Just(1u64 << 40),
            // Around the edge of the dense window of a row this size.
            (0u64..600).prop_map(|d| 20 + d),
        ],
        rounds in prop::collection::vec(round_strategy(), 1..5),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let cfg = ReplayConfig::new(model(sim_seed)).seed(3).record_graph(true);
        let graph = record(&trace, &cfg);
        let mut bytes = encode_arena(graph.arena());
        let node = (pick % graph.arena().num_nodes() as u64) as usize;
        forge_node_seq(&mut bytes, node, forged);
        match decode_arena(&bytes) {
            Ok(arena) => {
                prop_assert_eq!(arena.node_id(node as NodeIdx).seq, forged);
                for i in 0..arena.num_nodes() as NodeIdx {
                    prop_assert_eq!(arena.node_index(&arena.node_id(i)), Some(i));
                }
                prop_assert_eq!(&encode_arena(&arena), &bytes);
            }
            Err(e) => prop_assert_eq!(
                e,
                MpgaError::Malformed("duplicate node identity".into())
            ),
        }
    }

    /// Two nodes forged to one identity are rejected wherever the first
    /// of them was stored: in the dense table (a sequence number the row
    /// already covers) or in the side map (`2^40`, `u64::MAX`).
    #[test]
    fn duplicate_identity_is_rejected_dense_or_far(
        p in 2u32..6,
        sim_seed in 0u64..500,
        pick in any::<u64>(),
        seq in prop_oneof![Just(None), Just(Some(1u64 << 40)), Just(Some(u64::MAX))],
        rounds in prop::collection::vec(round_strategy(), 1..5),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let cfg = ReplayConfig::new(model(sim_seed)).seed(3).record_graph(true);
        let graph = record(&trace, &cfg);
        let arena = graph.arena();
        // Two distinct nodes differing in `seq` alone: same rank, point, hub.
        let a = (pick % arena.num_nodes() as u64) as NodeIdx;
        let id = arena.node_id(a);
        let twin = (0..arena.num_nodes() as NodeIdx).find(|&b| {
            let other = arena.node_id(b);
            b != a && (other.rank, other.point, other.hub) == (id.rank, id.point, id.hub)
        });
        if let Some(b) = twin {
            let seq = seq.unwrap_or(id.seq);
            let mut bytes = encode_arena(arena);
            forge_node_seq(&mut bytes, a as usize, seq);
            forge_node_seq(&mut bytes, b as usize, seq);
            prop_assert_eq!(
                decode_arena(&bytes).err(),
                Some(MpgaError::Malformed("duplicate node identity".into()))
            );
        }
    }

    /// Encode → decode → re-encode is bit-identical, and the rebuilt graph
    /// carries the same critical path and the same serialized
    /// happens-before clocks and drift-slack table as the recorded one.
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

        let slack = drift_slack(&graph);
        let slack2 = drift_slack(&rebuilt);
        prop_assert_eq!(
            slack.as_ref().map(DriftSlack::to_bytes),
            slack2.as_ref().map(DriftSlack::to_bytes)
        );
        if let Some(s) = &slack {
            let b = s.to_bytes();
            let rt = DriftSlack::from_bytes(&b).expect("slack deserializes");
            prop_assert_eq!(rt.to_bytes(), b);
        }
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
            let (graph, hit) = cached_recorded_graph(&store, trace_key, &trace, cfg.clone())
                .expect("fallback never errors");
            // The whole-file CRC is part of the MPGA payload, so every
            // damage mode above misses; the returned graph must be
            // bit-identical to the cold recording.
            prop_assert_eq!(&encode_arena(graph.arena()), &cold_bytes);
            if !hit {
                // The cold fallback repaired the entry: a second call hits
                // and still agrees.
                let (again, hit2) =
                    cached_recorded_graph(&store, trace_key, &trace, cfg.clone())
                        .expect("repaired entry loads");
                prop_assert!(hit2);
                prop_assert_eq!(&encode_arena(again.arena()), &cold_bytes);
            }
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}
