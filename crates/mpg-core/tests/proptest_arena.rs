//! The arena's id → index table against a `HashMap<NodeId, NodeIdx>` oracle.
//!
//! The table is a per-rank slot array with a side map for ids it will not
//! grow to reach; which of the two an id lands in depends on what was
//! interned before it. Whatever the interleaving, the arena must behave as
//! a plain map would: first sight assigns the next index, every later
//! sight returns the same one, and an id never interned is absent.

use std::collections::HashMap;

use mpg_core::{GraphArena, NodeId, NodeIdx, Point};
use proptest::prelude::*;

fn id_strategy() -> impl Strategy<Value = NodeId> {
    let rank = prop_oneof![0u32..6, 0u32..6, Just(5_000u32), Just(u32::MAX)];
    let seq = prop_oneof![
        // Dense: a small range, so ids repeat and rows fill up.
        0u64..40,
        0u64..40,
        // Gapped: strides that cross the growth window back and forth.
        (0u64..60).prop_map(|k| 30 + 17 * k),
        // Far out, including the values whose slot arithmetic overflows.
        prop_oneof![
            Just(1u64 << 40),
            Just(u64::MAX),
            Just(u64::MAX / 3),
            Just(u64::MAX / 3 + 1),
            (1u64 << 40)..(1u64 << 41),
        ],
    ];
    (rank, seq, any::<bool>(), any::<bool>()).prop_map(|(rank, seq, end, hub)| NodeId {
        rank,
        seq,
        point: if end { Point::End } else { Point::Start },
        hub,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn index_agrees_with_hashmap_oracle(
        ops in prop::collection::vec((id_strategy(), any::<bool>()), 1..400),
    ) {
        let mut arena = GraphArena::new(6);
        let mut oracle: HashMap<NodeId, NodeIdx> = HashMap::new();
        for &(id, lookup_only) in &ops {
            if lookup_only {
                prop_assert_eq!(arena.node_index(&id), oracle.get(&id).copied(), "{:?}", id);
                continue;
            }
            let next = oracle.len() as NodeIdx;
            let want = *oracle.entry(id).or_insert(next);
            prop_assert_eq!(arena.intern(id), want, "{:?}", id);
        }
        prop_assert_eq!(arena.num_nodes(), oracle.len());
        for (id, &i) in &oracle {
            prop_assert_eq!(arena.node_index(id), Some(i), "{:?}", id);
            prop_assert_eq!(arena.node_id(i), *id);
        }
    }
}
