//! Property test: the chain walks of one sweep follow its `pred` column,
//! and that changes nothing.
//!
//! [`rank_chains`] walks one tight chain per rank over one [`SlackSweep`],
//! stepping back along each node's preferred tight arm, which the sweep
//! picks once per node in a forward pass over the edges. The reference
//! here is the walk as it was before that column existed: the same
//! tie-breaks, written against the sweep's public accessors, over an
//! `arena.incoming()` built afresh for every anchor. Over random SPMD
//! programs the two must agree chain for chain.

use std::collections::BTreeSet;

use mpg_core::{EventGraph, NodeId, NodeIdx, Point, SlackSweep};
use mpg_lint::{rank_chains, ChainSummary, LintContext};
use mpg_noise::PlatformSignature;
use mpg_sim::RankCtx;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Round {
    /// Rank-dependent work, so ranks reach the next round at different
    /// times and the sweep has waits to chain through.
    Compute(u64),
    Ring {
        tag: u32,
        bytes: u64,
    },
    Shift {
        shift: u32,
        bytes: u64,
    },
    Barrier,
    Allreduce(u64),
}

fn run_round(ctx: &mut RankCtx, round: &Round) {
    let p = ctx.size();
    let me = ctx.rank();
    match *round {
        Round::Compute(work) => ctx.compute(work * u64::from(1 + me % 3)),
        Round::Ring { tag, bytes } => {
            let r = ctx.irecv((me + p - 1) % p, tag);
            let s = ctx.isend((me + 1) % p, tag, bytes);
            ctx.waitall(&[r, s]);
        }
        Round::Shift { shift, bytes } => {
            let shift = 1 + shift % (p - 1).max(1);
            ctx.sendrecv((me + shift) % p, 9, bytes, (me + p - shift) % p, 9);
        }
        Round::Barrier => ctx.barrier(),
        Round::Allreduce(bytes) => ctx.allreduce(bytes),
    }
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (1u64..20_000).prop_map(Round::Compute),
        (0u32..3, 1u64..2_048).prop_map(|(tag, bytes)| Round::Ring { tag, bytes }),
        (0u32..8, 1u64..2_048).prop_map(|(shift, bytes)| Round::Shift { shift, bytes }),
        Just(Round::Barrier),
        (1u64..1_024).prop_map(Round::Allreduce),
    ]
}

/// The tight chain back from `anchor`, over a CSR built for this walk alone.
fn chain_over_fresh_csr(graph: &EventGraph, sweep: &SlackSweep, anchor: NodeId) -> ChainSummary {
    let arena = graph.arena();
    let incoming = arena.incoming();
    let earliest = |i: NodeIdx| sweep.earliest(arena.node_id(i));
    let mut ranks = BTreeSet::from([anchor.rank]);
    let (mut steps, mut message_hops, mut wait_cycles) = (0, 0, 0);
    let mut cur = arena.node_index(&anchor).expect("anchor is a graph node");
    loop {
        let e_cur = earliest(cur);
        if e_cur == 0 {
            break;
        }
        let tight = |i: usize| earliest(arena.edge_src(i)) + sweep.cost(i) == e_cur;
        let cur_id = arena.node_id(cur);
        let bound = sweep.binding_arm(cur_id);
        let chosen = match bound {
            Some(b) if tight(b) => Some(b),
            _ => incoming
                .of(cur)
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| tight(i))
                .max_by_key(|&i| (arena.edge_is_message(i), earliest(arena.edge_src(i)), i)),
        };
        let Some(i) = chosen else {
            break;
        };
        message_hops += usize::from(arena.edge_is_message(i));
        if bound == Some(i) {
            wait_cycles += sweep.wait(cur_id);
        }
        let src = arena.edge_src(i);
        if !arena.is_hub(src) {
            ranks.insert(arena.node_id(src).rank);
        }
        steps += 1;
        cur = src;
    }
    ChainSummary {
        rank: anchor.rank,
        finish: sweep.earliest(anchor),
        steps,
        message_hops,
        ranks_touched: ranks.len(),
        wait_cycles,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn pred_chains_equal_fresh_csr_chains(
        p in 2u32..9,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..8),
    ) {
        let trace = mpg_sim::Simulation::new(p, PlatformSignature::quiet("prop-chains"))
            .seed(sim_seed)
            .run(|ctx| {
                for round in &rounds {
                    run_round(ctx, round);
                }
            })
            .expect("generated program simulates")
            .trace;
        let ctx = LintContext::build(&trace);
        let graph = ctx.graph.as_ref().expect("graph recorded for a clean trace");
        let sweep = SlackSweep::sweep(graph);

        // Each rank's last labeled end subevent, as `rank_chains` picks it.
        let mut anchors: Vec<Option<NodeId>> = vec![None; graph.num_ranks()];
        for (node, _) in graph.nodes() {
            let slot = &mut anchors[node.rank as usize];
            if !node.hub && node.point == Point::End && slot.is_none_or(|a| node.seq > a.seq) {
                *slot = Some(node);
            }
        }
        let mut want: Vec<ChainSummary> = anchors
            .into_iter()
            .flatten()
            .map(|anchor| chain_over_fresh_csr(graph, &sweep, anchor))
            .collect();
        want.sort_by(|a, b| b.finish.cmp(&a.finish).then_with(|| a.rank.cmp(&b.rank)));

        let got = rank_chains(graph, &sweep);
        prop_assert_eq!(got.len(), p as usize);
        prop_assert!(got[0].steps > 0, "critical chain is empty: {:?}", got[0]);
        prop_assert_eq!(&got, &want);
        // Walking again over the same sweep repeats the answer.
        prop_assert_eq!(&rank_chains(graph, &sweep), &want);
    }
}
