//! The arena's structural layout against a plain set-of-ids oracle.
//!
//! A node's index is arithmetic — `base[rank] + 2·seq + point`, ranks in
//! order, hubs numbered after every event slot in the order first
//! touched — and a slot nothing named is a hole. Whatever subset of a
//! random layout the edges and labels reach, every slot must round-trip
//! to its `(rank, seq, point)`, and every id-level view must see exactly
//! the reached nodes: `node_index`, `nodes()`, `node_count()`,
//! `final_drifts()` and the happens-before index's per-rank event counts.
//!
//! A recorded graph, in turn, must answer what replay computes:
//! [`drift_timeline`] at stride 1 is every event the rank completed, at
//! its traced end time, ending on the rank's `final_drifts()` entry, and
//! at stride `k` every `k`-th sample of that. That last drift is also the
//! final drift a replay of the same config without a graph reports, under
//! negated OS noise and arrival-bound receives too: the recorder writes
//! each local edge's delta with the engine's floor folded in.

use std::collections::{BTreeMap, BTreeSet};

use mpg_core::{
    drift_timeline, DeltaClass, Edge, EventGraph, HbIndex, NodeId, NodeIdx, Point, ReplayConfig,
    Replayer, SignedDist,
};
use mpg_noise::Dist;
use proptest::prelude::*;

#[path = "shared/spmd.rs"]
mod spmd;
use spmd::{model, record, round_strategy, simulate};

/// A raw structural id: `rank` is reduced modulo the layout's rank count,
/// so generated ids land on every rank and both inside and past each
/// rank's declared events.
type RawId = (u32, u64, bool);

fn id_of((rank, seq, end): RawId, ranks: usize) -> NodeId {
    NodeId {
        rank: rank % ranks as u32,
        seq,
        point: if end { Point::End } else { Point::Start },
        hub: false,
    }
}

fn raw_id() -> impl Strategy<Value = RawId> {
    (0u32..6, 0u64..12, any::<bool>())
}

fn edge(src: NodeId, dst: NodeId) -> Edge {
    Edge {
        src,
        dst,
        base: 1,
        class: DeltaClass::None,
        sampled: 1,
        is_message: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `kind` 0 is an edge `a → b`, 1 an edge from `a`'s start into the
    /// hub it anchors, 2 a label on `a`.
    #[test]
    fn layout_index_roundtrips_and_hides_holes(
        events in prop::collection::vec(0usize..12, 1..6),
        ops in prop::collection::vec((0u8..3, raw_id(), raw_id(), 0u64..1_000), 0..60),
    ) {
        let in_layout = |n: &NodeId| (n.seq as usize) < events[n.rank as usize];
        let mut g = EventGraph::new(&events);
        let mut touched: BTreeSet<NodeId> = BTreeSet::new();
        let mut labels: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut hubs: Vec<NodeId> = Vec::new();
        for &(kind, a, b, t) in &ops {
            let (a, b) = (id_of(a, events.len()), id_of(b, events.len()));
            if !in_layout(&a) {
                continue;
            }
            match kind {
                0 if in_layout(&b) => {
                    g.add_edge(edge(a, b));
                    touched.extend([a, b]);
                }
                1 => {
                    let hub = NodeId::hub(a.rank, a.seq);
                    g.add_edge(edge(NodeId::start(a.rank, a.seq), hub));
                    touched.insert(NodeId::start(a.rank, a.seq));
                    if !hubs.contains(&hub) {
                        hubs.push(hub);
                    }
                }
                2 => {
                    g.label(a, "compute", t);
                    touched.insert(a);
                    labels.entry(a).or_insert(t);
                }
                _ => {}
            }
        }
        let arena = g.arena();
        let slots: usize = events.iter().map(|n| 2 * n).sum();
        prop_assert_eq!(arena.num_nodes(), slots + hubs.len());

        // Every event slot is its (rank, seq, point), rank-major.
        let mut i: NodeIdx = 0;
        for (rank, &n) in events.iter().enumerate() {
            for seq in 0..n as u64 {
                for node in [NodeId::start(rank as u32, seq), NodeId::end(rank as u32, seq)] {
                    prop_assert_eq!(arena.node_id(i), node);
                    let seen = touched.contains(&node);
                    prop_assert_eq!(arena.is_touched(i), seen);
                    prop_assert_eq!(arena.node_index(&node), seen.then_some(i), "{:?}", node);
                    i += 1;
                }
            }
        }
        // Hubs follow, in first-touch order.
        for (k, hub) in hubs.iter().enumerate() {
            let at = (slots + k) as NodeIdx;
            prop_assert_eq!(arena.node_id(at), *hub);
            prop_assert_eq!(arena.node_index(hub), Some(at));
            prop_assert_eq!(arena.hub_ordinal(at), Some(k));
        }
        // Ids the layout has no slot for have no index.
        for (rank, &n) in events.iter().enumerate() {
            let past = NodeId::end(rank as u32, n as u64);
            prop_assert_eq!(arena.node_index(&past), None);
        }
        prop_assert_eq!(arena.node_index(&NodeId::start(events.len() as u32, 0)), None);

        // The id-level views see the reached nodes only.
        let listed: BTreeMap<NodeId, u64> = g.nodes().map(|(n, l)| (n, l.t)).collect();
        prop_assert_eq!(&listed, &labels);
        prop_assert_eq!(g.node_count(), labels.len());
        let drifts = g.propagate();
        let finals: Vec<i64> = (0..events.len() as u32)
            .map(|r| {
                labels
                    .keys()
                    .filter(|n| n.rank == r && n.point == Point::End)
                    .max_by_key(|n| n.seq)
                    .map_or(0, |n| *drifts.get(n).expect("a labeled node is reached"))
            })
            .collect();
        prop_assert_eq!(g.final_drifts(), finals);
        let hb = HbIndex::build(&g);
        for r in 0..events.len() as u32 {
            let reached = touched
                .iter()
                .filter(|n| n.rank == r)
                .map(|n| n.seq + 1)
                .max()
                .unwrap_or(0);
            prop_assert_eq!(hb.num_events(r), reached, "rank {}", r);
        }
    }

    /// Random programs under OS noise (negated or not) and latency, with
    /// either receive semantics.
    #[test]
    fn drift_timeline_reads_the_replay_off_the_graph(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..8),
        os_mean in 1u64..3_000,
        negate_os in any::<bool>(),
        lat_mean in 1u64..3_000,
        arrival_bound in any::<bool>(),
        seed in 0u64..1_000,
        stride in 2usize..12,
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let mut m = model(seed);
        let os = Dist::Exponential { mean: os_mean as f64 };
        m.os_local = if negate_os { SignedDist::negative(os) } else { os.into() };
        m.latency = Dist::Exponential { mean: lat_mean as f64 }.into();
        let cfg = ReplayConfig::new(m).seed(seed).arrival_bound(arrival_bound);
        let graph = record(&trace, &cfg.clone().record_graph(true));
        let report = Replayer::new(cfg).run(&trace).expect("replay succeeds");
        let finals = graph.final_drifts().into_iter().zip(report.final_drift);
        for (r, (graph_final, replay_final)) in finals.enumerate() {
            let every = drift_timeline(&graph, r, 1);
            let ends: Vec<u64> = trace.rank(r).iter().map(|e| e.t_end).collect();
            let times: Vec<u64> = every.iter().map(|&(t, _)| t).collect();
            prop_assert_eq!(times, ends, "rank {}", r);
            let last = every.last().map(|&(_, d)| d);
            prop_assert_eq!(last, Some(graph_final), "rank {}", r);
            prop_assert_eq!(last, Some(replay_final), "rank {}", r);
            let strided: Vec<_> = every.iter().copied().skip(stride - 1).step_by(stride).collect();
            prop_assert_eq!(drift_timeline(&graph, r, stride), strided, "rank {}", r);
        }
    }
}
