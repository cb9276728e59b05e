//! Forged MPGA artifacts never reach a panic. The cache directory is
//! untrusted (DESIGN.md §17.2): an artifact whose count table, hub table,
//! node flags, kind codes, edge endpoints, label times or edge weights
//! were rewritten (and the checksum re-sealed) either is a typed error or
//! decodes to an arena that the slack sweep, `analyze_graph` and the
//! happens-before build all run on. Two forgeries that crashed the v1
//! consumer — a node on rank 99 of an 8-rank artifact, and a header of
//! `2^40` ranks — are named cases. This lives in the workspace crate
//! because `analyze_graph` belongs to the lint crate, downstream of the
//! core crate that owns the format.

use mpg::core::{
    decode_arena, encode_arena, EventGraph, GraphArena, HbIndex, MpgaError, NodeIdx, ReplayConfig,
    SlackSweep,
};
use mpg::trace::frame::crc32c;
use mpg::trace::MemTrace;
use proptest::prelude::*;

#[path = "../crates/mpg-core/tests/shared/spmd.rs"]
mod spmd;
use spmd::{model, record, round_strategy, simulate, Round};

/// Where each section of an MPGA artifact starts (the layout in
/// `mpga.rs`), read from its header.
struct Sections {
    ranks: usize,
    hubs: usize,
    nodes: usize,
    edges: usize,
    counts: usize,
    hub_rank: usize,
    hub_seq: usize,
    flags: usize,
    codes: usize,
    label_t: usize,
    edge_src: usize,
    edge_dst: usize,
    edge_base: usize,
}

impl Sections {
    fn of(bytes: &[u8]) -> Self {
        let word = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
        let (ranks, hubs, edges) = (word(8), word(16), word(24));
        let counts = 32;
        let nodes = hubs + (0..ranks).map(|r| 2 * word(counts + 8 * r)).sum::<usize>();
        let hub_rank = counts + 8 * ranks;
        let hub_seq = hub_rank + (4 * hubs).next_multiple_of(8);
        let flags = hub_seq + 8 * hubs;
        let codes = flags + nodes.next_multiple_of(8);
        let label_t = codes + nodes.next_multiple_of(8);
        let edge_src = label_t + 8 * nodes;
        let edge_dst = edge_src + (4 * edges).next_multiple_of(8);
        let edge_base = edge_dst + (4 * edges).next_multiple_of(8);
        Self {
            ranks,
            hubs,
            nodes,
            edges,
            counts,
            hub_rank,
            hub_seq,
            flags,
            codes,
            label_t,
            edge_src,
            edge_dst,
            edge_base,
        }
    }
}

/// Overwrites `value` at byte `at` and re-seals the CRC, so only the
/// structural validation stands between the forgery and the caller.
fn forge(bytes: &mut [u8], at: usize, value: &[u8]) {
    bytes[at..at + value.len()].copy_from_slice(value);
    let body = bytes.len() - 4;
    let crc = crc32c(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
}

/// Every consumer of a decoded arena runs on it without a panic, and its
/// nodes are ones the layout holds.
fn consume(arena: GraphArena, trace: &MemTrace) {
    for i in 0..arena.num_nodes() as NodeIdx {
        let id = arena.node_id(i);
        assert!((id.rank as usize) < arena.num_ranks(), "{id:?}");
        if arena.is_touched(i) {
            assert_eq!(arena.node_index(&id), Some(i));
        }
    }
    let graph = EventGraph::from_arena(arena);
    let sweep = SlackSweep::sweep(&graph);
    sweep.static_critical_path(&graph);
    mpg::lint::analyze_graph(trace, &graph).to_json();
    HbIndex::build(&graph);
}

/// An 8-rank recording with collectives (so the artifact has hubs).
fn eight_rank_artifact() -> (MemTrace, Vec<u8>) {
    let rounds = [
        Round::Compute(500),
        Round::Ring { tag: 1, bytes: 64 },
        Round::Barrier,
        Round::Allreduce { bytes: 8 },
    ];
    let trace = simulate(8, 1, &rounds);
    let cfg = ReplayConfig::new(model(1)).seed(3).record_graph(true);
    let bytes = encode_arena(record(&trace, &cfg).arena());
    (trace, bytes)
}

/// The v1 crash at `feasible.rs`' sweep ("index out of bounds: the len is
/// 8 but the index is 99"): a node claiming rank 99 of an 8-rank artifact.
/// v2 stores no per-node rank; the only rank a blob still names is a
/// hub's anchor, and a hub past the layout is refused.
#[test]
fn forged_node_on_rank_99_of_8_is_refused() {
    let (trace, mut bytes) = eight_rank_artifact();
    let at = Sections::of(&bytes);
    assert!(at.hubs > 0 && at.ranks == 8);
    forge(&mut bytes, at.hub_rank, &99u32.to_le_bytes());
    assert_eq!(
        decode_arena(&bytes).err(),
        Some(MpgaError::Malformed(
            "hub names no event of the layout".into()
        ))
    );
    // The unforged artifact feeds every consumer.
    let (_, good) = eight_rank_artifact();
    consume(decode_arena(&good).unwrap(), &trace);
}

/// The v1 abort in the sweep ("memory allocation of 17592186044416 bytes
/// failed"): a header claiming `2^40` ranks. v2's rank count is the
/// length of a table the blob must hold, so it is refused before anything
/// is sized by it.
#[test]
fn forged_header_of_2_pow_40_ranks_is_refused() {
    let (_, mut bytes) = eight_rank_artifact();
    forge(&mut bytes, 8, &(1u64 << 40).to_le_bytes());
    assert_eq!(decode_arena(&bytes).err(), Some(MpgaError::Truncated));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Each structural field and each weight column, rewritten in one
    /// picked entry to each hostile value in turn: every forgery is a typed
    /// error, or an artifact every consumer runs on.
    #[test]
    fn forged_artifacts_are_refused_or_safe_to_consume(
        p in 2u32..6,
        sim_seed in 0u64..500,
        pick in any::<u64>(),
        noise in any::<u64>(),
        rounds in prop::collection::vec(round_strategy(), 1..5),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let cfg = ReplayConfig::new(model(sim_seed)).seed(3).record_graph(true);
        let good = encode_arena(record(&trace, &cfg).arena());
        let at = Sections::of(&good);
        let k = |n: usize| (pick % n.max(1) as u64) as usize;
        let fields = [
            (8, 8),
            (at.counts + 8 * k(at.ranks), 8),
            (at.hub_rank + 4 * k(at.hubs), 4 * usize::from(at.hubs > 0)),
            (at.hub_seq + 8 * k(at.hubs), 8 * usize::from(at.hubs > 0)),
            (at.flags + k(at.nodes), 1),
            (at.codes + k(at.nodes), 1),
            (at.edge_src + 4 * k(at.edges), 4 * usize::from(at.edges > 0)),
            (at.edge_dst + 4 * k(at.edges), 4 * usize::from(at.edges > 0)),
            (at.label_t + 8 * k(at.nodes), 8),
            (at.edge_base + 8 * k(at.edges), 8 * usize::from(at.edges > 0)),
        ];
        let values = [0, 1, 99, u64::from(u32::MAX), 1 << 40, u64::MAX - 1, u64::MAX, noise];
        for (offset, width) in fields {
            for value in values {
                let mut bytes = good.clone();
                forge(&mut bytes, offset, &value.to_le_bytes()[..width]);
                if let Ok(arena) = decode_arena(&bytes) {
                    prop_assert_eq!(&encode_arena(&arena), &bytes);
                    consume(arena, &trace);
                }
            }
        }
    }

    /// Two hubs forged to one identity are refused, whether the forged
    /// one lands on another hub's event or past its rank's events.
    #[test]
    fn duplicate_or_stray_hub_identity_is_refused(
        sim_seed in 0u64..500,
        past in any::<bool>(),
    ) {
        let trace = simulate(4, sim_seed, &[Round::Barrier, Round::Compute(10), Round::Barrier]);
        let cfg = ReplayConfig::new(model(sim_seed)).seed(3).record_graph(true);
        let mut bytes = encode_arena(record(&trace, &cfg).arena());
        let at = Sections::of(&bytes);
        prop_assert_eq!(at.hubs, 2);
        let first_seq = bytes[at.hub_seq..at.hub_seq + 8].to_vec();
        let forged = if past { u64::MAX.to_le_bytes().to_vec() } else { first_seq };
        forge(&mut bytes, at.hub_seq + 8, &forged);
        let want = if past { "hub names no event of the layout" } else { "duplicate hub" };
        prop_assert_eq!(decode_arena(&bytes).err(), Some(MpgaError::Malformed(want.into())));
    }
}
