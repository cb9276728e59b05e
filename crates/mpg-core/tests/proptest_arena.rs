//! The arena's structural layout against a plain set-of-ids oracle.
//!
//! A node's index is arithmetic — `base[rank] + 2·seq + point`, ranks in
//! order, hubs numbered after every event slot in the order first
//! touched — and a slot nothing named is a hole. Whatever subset of a
//! random layout the edges and labels reach, every slot must round-trip
//! to its `(rank, seq, point)`, and every id-level view must see exactly
//! the reached nodes: `node_index`, `nodes()`, `node_count()`,
//! `final_drifts()` and the happens-before index's per-rank event counts.

use std::collections::{BTreeMap, BTreeSet};

use mpg_core::{DeltaClass, Edge, EventGraph, HbIndex, NodeId, NodeIdx, Point};
use proptest::prelude::*;

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
}
