//! Property tests: the epoch-compressed happens-before index equals
//! brute-force transitive closure.
//!
//! Random deadlock-free SPMD programs (the same round shapes the lane
//! proptest uses, plus a wildcard-receive gather) are simulated, replayed
//! with graph recording, and the [`HbIndex`] built from the recorded graph
//! is checked against a DFS reachability oracle over the raw edge list,
//! for **every** ordered pair of events:
//!
//! * `happens_before(a, b)`  ⟺  `start(a) ⇝ start(b)` in the graph,
//! * `completes_before(a, b)` ⟺  `end(a) ⇝ start(b)` in the graph,
//!
//! under both send models (`ack_arm` on and off), so the index is exact —
//! not just sound — on graphs with hubs, acknowledgement arms, gap edges
//! and nonblocking completion edges. The oracle is the only reference:
//! there is no second clock implementation to compare against.
//!
//! Four legs: dense rounds on a few ranks; sparse hand-offs (rendezvous
//! sends among them) and collectives on up to 24 ranks, where long runs of
//! events share one epoch row; [`HbIndex::build_bypassing`] against the
//! closure of the graph with that hub rewritten by hand; and indexes that
//! store a random [`HbColumns`] map, plain and with every hub bypassed in
//! turn, whose every query the map covers must equal the closure and every
//! other must answer "nothing known". Every case also pins the
//! compression: no more epoch rows than joins.
//!
//! All legs check the threshold reading of a row as well
//! ([`check_horizons`]): `issue_horizon(q, b)` / `completion_horizon(q, b)`
//! are the *number* of `q`'s events the oracle orders before `b`, those
//! events are a prefix of `q`'s program order, the boolean queries are the
//! one comparison against them — unknown events and ranks past the last
//! included — and rows never decrease along a rank's program order.

use mpg_core::{EventGraph, HbColumns, HbIndex, NodeId, PerturbationModel, ReplayConfig, Replayer};
use mpg_noise::PlatformSignature;
use mpg_sim::RankCtx;
use mpg_trace::ANY_SOURCE;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// One deadlock-free communication round; every rank executes the same
/// sequence, so blocking calls always have a matching partner.
#[derive(Debug, Clone)]
enum Round {
    Compute(u64),
    /// Nonblocking ring: irecv from the left, isend to the right, waitall.
    Ring {
        tag: u32,
        bytes: u64,
    },
    /// Blocking sendrecv shifted by `shift` ranks.
    Shift {
        shift: u32,
        tag: u32,
        bytes: u64,
    },
    /// Even/odd paired blocking exchange (odd rank out sits idle).
    Pair {
        tag: u32,
        bytes: u64,
    },
    /// Wildcard gather: everyone sends to the root, which posts
    /// `p − 1` ANY_SOURCE receives — the shape race detection cares about.
    GatherAny {
        root: u32,
        tag: u32,
        bytes: u64,
    },
    /// One message between two ranks while everyone else computes — the
    /// sparse shape where most events inherit their predecessor's epoch.
    /// `sync` makes it a rendezvous send, which always records an
    /// acknowledgement edge back to the sender.
    Handoff {
        from: u32,
        hop: u32,
        tag: u32,
        bytes: u64,
        sync: bool,
    },
    Barrier,
    Allreduce {
        bytes: u64,
    },
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
        Round::Shift { shift, tag, bytes } => {
            let shift = 1 + shift % (p - 1).max(1);
            ctx.sendrecv((me + shift) % p, tag, bytes, (me + p - shift) % p, tag);
        }
        Round::Pair { tag, bytes } => {
            if me.is_multiple_of(2) {
                if me + 1 < p {
                    ctx.send(me + 1, tag, bytes);
                    ctx.recv(me + 1, tag);
                }
            } else {
                ctx.recv(me - 1, tag);
                ctx.send(me - 1, tag, bytes);
            }
        }
        Round::GatherAny { root, tag, bytes } => {
            let root = root % p;
            if me == root {
                for _ in 1..p {
                    ctx.recv(ANY_SOURCE, tag);
                }
            } else {
                ctx.send(root, tag, bytes);
            }
        }
        Round::Handoff {
            from,
            hop,
            tag,
            bytes,
            sync,
        } => {
            let from = from % p;
            let to = (from + 1 + hop % (p - 1)) % p;
            if me == from && sync {
                ctx.ssend(to, tag, bytes);
            } else if me == from {
                ctx.send(to, tag, bytes);
            } else if me == to {
                ctx.recv(from, tag);
            } else {
                ctx.compute(bytes);
            }
        }
        Round::Barrier => ctx.barrier(),
        Round::Allreduce { bytes } => ctx.allreduce(bytes),
    }
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (1u64..20_000).prop_map(Round::Compute),
        (0u32..4, 1u64..4_096).prop_map(|(tag, bytes)| Round::Ring { tag, bytes }),
        (0u32..8, 0u32..4, 1u64..4_096).prop_map(|(shift, tag, bytes)| Round::Shift {
            shift,
            tag,
            bytes
        }),
        (0u32..4, 1u64..4_096).prop_map(|(tag, bytes)| Round::Pair { tag, bytes }),
        (0u32..8, 0u32..4, 1u64..4_096).prop_map(|(root, tag, bytes)| Round::GatherAny {
            root,
            tag,
            bytes
        }),
        Just(Round::Barrier),
        (1u64..2_048).prop_map(|bytes| Round::Allreduce { bytes }),
    ]
}

/// Rounds for the wide leg: mostly sparse hand-offs, so most of a rank's
/// events sit between joins, with the occasional collective or ring to
/// join everybody at once.
fn sparse_round_strategy() -> impl Strategy<Value = Round> {
    let handoff = || {
        (0u32..24, 0u32..24, 0u32..4, 1u64..4_096, any::<bool>()).prop_map(
            |(from, hop, tag, bytes, sync)| Round::Handoff {
                from,
                hop,
                tag,
                bytes,
                sync,
            },
        )
    };
    prop_oneof![
        handoff(),
        handoff(),
        handoff(),
        (1u64..20_000).prop_map(Round::Compute),
        (0u32..4, 1u64..4_096).prop_map(|(tag, bytes)| Round::Ring { tag, bytes }),
        Just(Round::Barrier),
        (1u64..2_048).prop_map(|bytes| Round::Allreduce { bytes }),
    ]
}

/// Simulates `rounds` on `p` ranks and records the replayed graph. Returns
/// it with the number of events per rank.
fn record(p: u32, sim_seed: u64, rounds: &[Round], ack_arm: bool) -> (EventGraph, Vec<u64>) {
    let trace = mpg_sim::Simulation::new(p, PlatformSignature::quiet("prop-hb"))
        .ideal_clocks()
        .seed(sim_seed)
        .run(|ctx| {
            for round in rounds {
                run_round(ctx, round);
            }
        })
        .expect("generated program simulates")
        .trace;
    let cfg = ReplayConfig::new(PerturbationModel::quiet("prop-hb"))
        .seed(0)
        .ack_arm(ack_arm)
        .record_graph(true);
    let report = Replayer::new(cfg).run(&trace).expect("valid trace replays");
    let counts = (0..p as usize)
        .map(|r| trace.rank(r).len() as u64)
        .collect();
    (report.graph.expect("graph recorded"), counts)
}

/// All nodes reachable from `from` by one or more edges.
fn reachable(adj: &HashMap<NodeId, Vec<NodeId>>, from: NodeId) -> HashSet<NodeId> {
    let mut seen = HashSet::new();
    let mut stack: Vec<NodeId> = adj.get(&from).cloned().unwrap_or_default();
    while let Some(n) = stack.pop() {
        if seen.insert(n) {
            if let Some(next) = adj.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
    }
    seen
}

/// Checks both relations of `hb` against DFS reachability over `edges`,
/// for every ordered pair of events its [`HbColumns`] cover; a pair they do
/// not cover must answer `false` (and its horizons `0`).
fn check_against_closure(
    hb: &HbIndex,
    edges: impl Iterator<Item = (NodeId, NodeId)>,
    counts: &[u64],
    what: &str,
) -> Result<(), String> {
    let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (src, dst) in edges {
        adj.entry(src).or_default().push(dst);
    }
    let p = counts.len() as u32;
    // Per `(b, rank of a)`: how many `a` the oracle orders before `b`, by
    // issue and by completion.
    let mut ordered_before: HashMap<((u32, u64), u32), (u64, u64)> = HashMap::new();
    for ra in 0..p {
        for sa in 0..counts[ra as usize] {
            let from_start = reachable(&adj, NodeId::start(ra, sa));
            let from_end = reachable(&adj, NodeId::end(ra, sa));
            for rb in 0..p {
                for sb in 0..counts[rb as usize] {
                    let a = (ra, sa);
                    let b = (rb, sb);
                    if !hb.columns().covers(rb, ra) {
                        if hb.happens_before(a, b) || hb.completes_before(a, b) {
                            return Err(format!(
                                "{a:?} is ordered before {b:?} outside the index's columns ({what})"
                            ));
                        }
                        continue;
                    }
                    let oracle_hb = from_start.contains(&NodeId::start(rb, sb));
                    ordered_before.entry((b, ra)).or_default().0 += u64::from(oracle_hb);
                    if hb.happens_before(a, b) != oracle_hb {
                        return Err(format!(
                            "happens_before({a:?}, {b:?}) = {} disagrees with closure ({what})",
                            !oracle_hb
                        ));
                    }
                    let oracle_cb = from_end.contains(&NodeId::start(rb, sb));
                    ordered_before.entry((b, ra)).or_default().1 += u64::from(oracle_cb);
                    if hb.completes_before(a, b) != oracle_cb {
                        return Err(format!(
                            "completes_before({a:?}, {b:?}) = {} disagrees with closure ({what})",
                            !oracle_cb
                        ));
                    }
                    // `concurrent` is definitionally derived; check the
                    // relational properties on the same pairs.
                    if a != b {
                        if hb.concurrent(a, b) != hb.concurrent(b, a) {
                            return Err(format!("concurrent not symmetric at {a:?}/{b:?}"));
                        }
                        if hb.happens_before(a, b) && hb.happens_before(b, a) {
                            return Err(format!("HB must be antisymmetric at {a:?}/{b:?}"));
                        }
                    }
                }
            }
        }
    }
    // The booleans above agree with the oracle pair by pair, so a horizon
    // that equals the oracle's count is also where the ordered prefix ends.
    for (&(b, q), &oracle) in &ordered_before {
        let horizons = (hb.issue_horizon(q, b), hb.completion_horizon(q, b));
        let oracle = if hb.columns().covers(b.0, q) {
            oracle
        } else {
            (0, 0)
        };
        if horizons != oracle {
            return Err(format!(
                "rank {q}'s issue/completion horizons over {b:?} are {horizons:?}, closure counts {oracle:?} ({what})"
            ));
        }
    }
    check_horizons(hb, counts, what)
}

/// The threshold contract of [`HbIndex`], needing no oracle: each boolean
/// query is `a.seq < horizon(a.rank, b)` for every pair — events one and
/// two past a rank's last and two ranks the graph does not have included —
/// and along each rank's program order no horizon ever decreases.
fn check_horizons(hb: &HbIndex, counts: &[u64], what: &str) -> Result<(), String> {
    let p = counts.len() as u32;
    let events = |r: u32| 0..counts.get(r as usize).copied().unwrap_or(0) + 2;
    for rb in 0..p + 2 {
        for sb in events(rb) {
            let b = (rb, sb);
            for ra in 0..p + 2 {
                let (issue, complete) = (hb.issue_horizon(ra, b), hb.completion_horizon(ra, b));
                for sa in events(ra) {
                    let a = (ra, sa);
                    if hb.happens_before(a, b) != (sa < issue)
                        || hb.completes_before(a, b) != (sa < complete)
                    {
                        return Err(format!(
                            "queries on ({a:?}, {b:?}) disagree with horizons {issue}/{complete} ({what})"
                        ));
                    }
                }
                if rb < p && sb > 0 && sb < counts[rb as usize] {
                    let before = (rb, sb - 1);
                    if hb.issue_horizon(ra, before) > issue
                        || hb.completion_horizon(ra, before) > complete
                    {
                        return Err(format!(
                            "rank {ra}'s horizon decreases from {before:?} to {b:?} ({what})"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Nodes whose clock can differ from their program-order predecessor's:
/// those with an in-edge from another rank or from a hub.
fn join_nodes(graph: &EventGraph) -> usize {
    graph
        .edges()
        .filter(|e| !e.dst.hub && (e.src.hub || e.src.rank != e.dst.rank))
        .map(|e| e.dst)
        .collect::<HashSet<_>>()
        .len()
}

/// The compression invariant: an epoch row exists only because some join
/// raised a clock (plus the all-zero row every rank starts on).
fn check_compression(hb: &HbIndex, graph: &EventGraph) -> Result<(), String> {
    let joins = join_nodes(graph);
    if hb.epoch_rows() > joins + graph.num_ranks() {
        return Err(format!(
            "{} epoch rows for {joins} joins on {} ranks",
            hb.epoch_rows(),
            graph.num_ranks()
        ));
    }
    Ok(())
}

/// A map over `p` ranks naming column `c` for rank `r` where
/// `mask[r * 9 + c]` is set (`p <= 9`).
fn masked_columns(p: u32, mask: &[bool]) -> HbColumns {
    HbColumns::new(
        p as usize,
        (0..p).map(|r| (0..p).filter(move |&c| mask[(r * 9 + c) as usize])),
    )
}

fn plain_edges(graph: &EventGraph) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    graph.edges().map(|e| (e.src, e.dst))
}

/// The edge list `build_bypassing(graph, hub)` promises to be equivalent
/// to: the hub's exits removed, each entry passed through to the entering
/// event's own end.
fn bypassed_edges(graph: &EventGraph, hub: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    graph.edges().filter_map(move |e| {
        if e.src == hub {
            None
        } else if e.dst == hub {
            Some((e.src, NodeId::end(e.src.rank, e.src.seq)))
        } else {
            Some((e.src, e.dst))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn hb_index_equals_transitive_closure(
        p in 2u32..7,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..6),
        ack_arm in any::<bool>(),
    ) {
        let (graph, counts) = record(p, sim_seed, &rounds, ack_arm);
        let hb = HbIndex::build(&graph);
        let what = format!("ack_arm={ack_arm}");
        prop_assert_eq!(check_against_closure(&hb, plain_edges(&graph), &counts, &what), Ok(()));
        prop_assert_eq!(check_compression(&hb, &graph), Ok(()));
    }

    /// Wide and sparse: up to 24 ranks where a round usually touches two
    /// of them, so almost every event inherits its epoch — the case the
    /// compressed representation exists for, and where a wrongly shared or
    /// wrongly raised row would show.
    #[test]
    fn wide_sparse_index_equals_transitive_closure(
        p in 8u32..25,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(sparse_round_strategy(), 2..7),
        ack_arm in any::<bool>(),
    ) {
        let (graph, counts) = record(p, sim_seed, &rounds, ack_arm);
        let hb = HbIndex::build(&graph);
        let what = format!("p={p} ack_arm={ack_arm}");
        prop_assert_eq!(check_against_closure(&hb, plain_edges(&graph), &counts, &what), Ok(()));
        prop_assert_eq!(check_compression(&hb, &graph), Ok(()));
    }

    /// Bypassing a hub equals the closure of the graph with that hub's
    /// exits removed and its entries passed through, for every hub the
    /// program recorded.
    #[test]
    fn bypassed_index_equals_closure_without_the_hub(
        p in 2u32..9,
        sim_seed in 0u64..1_000,
        before in prop::collection::vec(sparse_round_strategy(), 0..4),
        after in prop::collection::vec(sparse_round_strategy(), 0..4),
        ack_arm in any::<bool>(),
    ) {
        // At least one collective, wherever the generated rounds put it.
        let rounds: Vec<Round> = before
            .into_iter()
            .chain([Round::Barrier])
            .chain(after)
            .collect();
        let (graph, counts) = record(p, sim_seed, &rounds, ack_arm);
        let mut hubs: Vec<NodeId> = graph.edges().map(|e| e.dst).filter(|n| n.hub).collect();
        hubs.sort_unstable();
        hubs.dedup();
        prop_assert!(!hubs.is_empty());
        for hub in hubs {
            let hb = HbIndex::build_bypassing(&graph, hub, &HbColumns::all(p as usize));
            let what = format!("bypassing {hub:?}, ack_arm={ack_arm}");
            prop_assert_eq!(
                check_against_closure(&hb, bypassed_edges(&graph, hub), &counts, &what),
                Ok(())
            );
        }
    }

    /// An index storing a random column map — dense rounds, wildcard
    /// gathers and collectives on up to 8 ranks — answers every query the
    /// map covers as the closure does and no other, built plainly and with
    /// each hub bypassed in turn; its blob round-trips with the map.
    #[test]
    fn projected_index_equals_closure_on_its_columns(
        p in 2u32..9,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..6),
        mask in prop::collection::vec(any::<bool>(), 81),
        ack_arm in any::<bool>(),
    ) {
        let (graph, counts) = record(p, sim_seed, &rounds, ack_arm);
        let columns = masked_columns(p, &mask);
        let hb = HbIndex::build_for(&graph, &columns, None).expect("no token");
        prop_assert_eq!(hb.columns(), &columns);
        let what = format!("columns {columns:?}, ack_arm={ack_arm}");
        prop_assert_eq!(check_against_closure(&hb, plain_edges(&graph), &counts, &what), Ok(()));
        prop_assert_eq!(check_compression(&hb, &graph), Ok(()));
        let bytes = hb.to_bytes();
        let back = HbIndex::from_bytes(&bytes).expect("own blob decodes");
        prop_assert_eq!(back.columns(), &columns);
        prop_assert_eq!(back.to_bytes(), bytes);
        let mut hubs: Vec<NodeId> = graph.edges().map(|e| e.dst).filter(|n| n.hub).collect();
        hubs.sort_unstable();
        hubs.dedup();
        for hub in hubs {
            let hb = HbIndex::build_bypassing(&graph, hub, &columns);
            let what = format!("bypassing {hub:?} under {what}");
            prop_assert_eq!(
                check_against_closure(&hb, bypassed_edges(&graph, hub), &counts, &what),
                Ok(())
            );
        }
    }
}
