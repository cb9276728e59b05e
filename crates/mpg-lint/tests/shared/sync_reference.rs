//! The synchronization pass as it was before it read happens-before rows
//! as thresholds: every `(receive, send)` pair asked one at a time. Kept
//! verbatim as the reference `lint_sync` is checked against — by
//! `proptest_sync.rs` on random programs and by the workspace's
//! `tests/fuzz_robustness.rs` on mutated traces (each includes this file
//! with `#[path]`). Quadratic in the messages of a receiver, and
//! `forbidden_matches` holds every forbidden pair at once: small inputs
//! only.

use mpg_core::arena::NO_NODE;
use mpg_core::{EventGraph, HbIndex, NodeId, NodeIdx};
use mpg_lint::{Matching, SendRec, SyncOptions};
use mpg_trace::{Diagnostic, EventKind, MemTrace, Rank, Rule, Seq, Tag, ANY_SOURCE, ANY_TAG};
use std::collections::{BTreeMap, HashMap};

/// A collective hub and its per-rank entry events, in resolution order.
struct Hub {
    node: NodeId,
    entries: Vec<(Rank, Seq)>,
}

fn collect_hubs(graph: &EventGraph) -> Vec<Hub> {
    let arena = graph.arena();
    // Hub node index → its position in `hubs`.
    let mut slot = vec![NO_NODE; arena.num_nodes()];
    let mut hubs: Vec<Hub> = Vec::new();
    for e in 0..arena.num_edges() {
        let dst = arena.edge_dst(e);
        if !arena.is_hub(dst) {
            continue;
        }
        if slot[dst as usize] == NO_NODE {
            slot[dst as usize] = hubs.len() as NodeIdx;
            hubs.push(Hub {
                node: arena.node_id(dst),
                entries: Vec::new(),
            });
        }
        let src = arena.node_id(arena.edge_src(e));
        hubs[slot[dst as usize] as usize]
            .entries
            .push((src.rank, src.seq));
    }
    for hub in &mut hubs {
        hub.entries.sort_unstable();
    }
    hubs
}

/// The matches the recorded graph forbids: envelope-compatible
/// `(receive-completion event, send event)` pairs where the receive must
/// complete before the send can issue.
fn forbidden_matches(
    trace: &MemTrace,
    matching: &Matching,
    hb: &HbIndex,
) -> Vec<((Rank, Seq), (Rank, Seq))> {
    // Sends bucketed by destination once, in `matching.sends` order, so
    // each receive scans only the sends addressed to its rank.
    let mut sends_to: Vec<Vec<&SendRec>> = vec![Vec::new(); trace.num_ranks()];
    for s in &matching.sends {
        if let Some(bucket) = sends_to.get_mut(s.dst as usize) {
            bucket.push(s);
        }
    }
    let mut out = Vec::new();
    for pair in &matching.pairs {
        let (rrank, rseq) = pair.recv;
        let Some(ev) = trace.rank(rrank as usize).get(rseq as usize) else {
            continue;
        };
        let (src_pat, tag_pat): (Rank, Tag) = match ev.kind {
            EventKind::Recv {
                peer,
                tag,
                posted_any,
                ..
            }
            | EventKind::Irecv {
                peer,
                tag,
                posted_any,
                ..
            } => (if posted_any { ANY_SOURCE } else { peer }, tag),
            _ => continue,
        };
        let completion = (rrank, pair.completion);
        for s in &sends_to[rrank as usize] {
            if (src_pat != ANY_SOURCE && s.src != src_pat)
                || (tag_pat != ANY_TAG && s.tag != tag_pat)
            {
                continue;
            }
            if hb.completes_before(completion, (s.src, s.seq)) {
                out.push((completion, (s.src, s.seq)));
            }
        }
    }
    out
}

/// `MPG-REDUNDANT-SYNC` over every barrier epoch in the graph.
fn redundant_barriers(
    trace: &MemTrace,
    graph: &EventGraph,
    hb: &HbIndex,
    matching: &Matching,
) -> Vec<Diagnostic> {
    let hubs = collect_hubs(graph);
    let barriers: Vec<&Hub> = hubs
        .iter()
        .filter(|h| {
            !h.entries.is_empty()
                && h.entries.iter().all(|&(r, s)| {
                    matches!(
                        trace.rank(r as usize).get(s as usize).map(|e| &e.kind),
                        Some(EventKind::Barrier { .. })
                    )
                })
        })
        .collect();
    if barriers.is_empty() {
        return Vec::new();
    }
    let forbidden = forbidden_matches(trace, matching, hb);
    let mut diags = Vec::new();
    for hub in barriers {
        // Scoped to the iteration: each bypassed index is dropped before
        // the next barrier's is built, so at most one is alive at a time.
        let without = HbIndex::build_bypassing(graph, hub.node, hb.columns());
        let preserved = forbidden
            .iter()
            .all(|&(recv, send)| without.completes_before(recv, send));
        if preserved {
            let (rank, seq) = (hub.node.rank, hub.node.seq);
            diags.push(
                Diagnostic::new(
                    Rule::RedundantSync,
                    format!(
                        "barrier (seq {seq} on rank {rank}) orders no communication: every \
                         send/receive match it forbids is already forbidden by the rest of \
                         the graph, so this barrier alone can be removed without enabling \
                         any new schedule"
                    ),
                )
                .at(rank, seq)
                .involving(hub.entries.iter().map(|&(r, _)| r)),
            );
        }
    }
    diags
}

/// `MPG-BUFFER-WATERMARK` per receiving rank.
fn buffer_watermarks(hb: &HbIndex, matching: &Matching, opts: &SyncOptions) -> Vec<Diagnostic> {
    let send_info: HashMap<(Rank, Seq), &SendRec> =
        matching.sends.iter().map(|s| ((s.src, s.seq), s)).collect();
    // Eager matched traffic per receiver: (completion seq, send event).
    type EagerMsg = (Seq, (Rank, Seq));
    let mut per_dst: BTreeMap<Rank, Vec<EagerMsg>> = BTreeMap::new();
    for pair in &matching.pairs {
        if send_info
            .get(&pair.send)
            .is_some_and(|s| s.eager && s.src != pair.recv.0)
        {
            per_dst
                .entry(pair.recv.0)
                .or_default()
                .push((pair.completion, pair.send));
        }
    }
    let mut diags = Vec::new();
    for (dst, msgs) in per_dst {
        let mut peak = 0usize;
        let mut peak_at: Seq = 0;
        let mut peak_srcs: Vec<Rank> = Vec::new();
        for &(c_i, _) in &msgs {
            let resident: Vec<(Rank, Seq)> = msgs
                .iter()
                .filter(|&&(c_j, send_j)| c_j >= c_i && !hb.completes_before((dst, c_i), send_j))
                .map(|&(_, send_j)| send_j)
                .collect();
            if resident.len() > peak {
                peak = resident.len();
                peak_at = c_i;
                peak_srcs = resident.iter().map(|&(r, _)| r).collect();
            }
        }
        if peak > opts.watermark {
            diags.push(
                Diagnostic::new(
                    Rule::BufferWatermark,
                    format!(
                        "rank {dst} may hold up to {peak} in-flight eager sends at once \
                         (high-water at receive completing seq {peak_at}, advisory \
                         threshold {}); senders outrun the receiver's consumption",
                        opts.watermark
                    ),
                )
                .at(dst, peak_at)
                .involving(peak_srcs),
            );
        }
    }
    diags
}

/// Pass 7 entry point.
pub fn lint_sync(
    trace: &MemTrace,
    graph: &EventGraph,
    hb: &HbIndex,
    matching: &Matching,
    opts: &SyncOptions,
) -> Vec<Diagnostic> {
    let mut diags = redundant_barriers(trace, graph, hb, matching);
    diags.extend(buffer_watermarks(hb, matching, opts));
    diags
}
