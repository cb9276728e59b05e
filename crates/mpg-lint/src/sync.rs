//! Pass 7: HB-powered synchronization findings.
//!
//! **`MPG-REDUNDANT-SYNC`** — a barrier is *removable* when deleting it
//! cannot enlarge the set of feasible matchings. A barrier constrains
//! matching in exactly one way: a receive that completes before the
//! barrier can never match a send issued after it. The pass takes every
//! envelope-compatible `(receive, send)` pair whose match is forbidden by
//! the full graph's completion order, then rebuilds the happens-before
//! index with the barrier's hub bypassed ([`HbIndex::build_bypassing`],
//! over the columns of the index it is compared with); if every forbidden
//! pair stays forbidden, the barrier orders no communication and is
//! flagged. With no forbidden pair at all every barrier is flagged and no
//! index is rebuilt. Consecutive barriers are each tested with
//! the other still present, so two back-to-back barriers are *individually*
//! removable even though removing both could differ — the diagnostic says
//! as much. Data-carrying collectives (bcast, reduce, …) are never
//! flagged: they move payload, so removal is not a pure-synchronization
//! question.
//!
//! **`MPG-BUFFER-WATERMARK`** — eager sends (standard/buffered/ready and
//! every isend) complete without a rendezvous; until the matching receive
//! completes, the payload occupies the receiver's eager buffer. For each
//! receiver the pass computes, at every receive-completion point, how many
//! eager messages could simultaneously be resident: message `j` counts
//! when its consuming receive has not yet completed and the happens-before
//! relation does **not** force its send to issue only after this point
//! (`!completes_before`). The per-rank high-water mark above the advisory
//! threshold means senders can outrun the receiver's consumption.
//!
//! # One horizon per send, not one question per pair
//!
//! Both rules ask `completes_before((d, c), send)` with the send fixed and
//! `c` ranging over one rank's receive completions, and the index answers
//! that as `c < completion_horizon(d, send)` ([`HbIndex`], "Rows are
//! thresholds"): the completions a send must wait for are a prefix. So
//! neither rule asks per pair (DESIGN.md §19):
//!
//! * the receives one send is forbidden to match are the compatible ones
//!   completing below its horizon, and whether *all* of them stay
//!   forbidden under another index is decided by the largest alone — the
//!   pass keeps that one value per send, found by binary search in the
//!   receiver's completions grouped by posted pattern, and each barrier
//!   costs one horizon read per send;
//! * message `j` is resident at point `c` exactly on the interval
//!   `horizon_j <= c <= c_j`, so per-point occupancy is a count of
//!   intervals stabbed, read off two sorted endpoint arrays.
//!
//! Both are exact for any index — they use nothing but the prefix shape the
//! comparison has by construction — and `O(n log n)` in a receiver's
//! messages where the pairwise form was `O(n²)` (and, for the forbidden
//! set, `O(n²)` memory).

use crate::progress::Matching;
use mpg_core::arena::NO_NODE;
use mpg_core::{EventGraph, HbIndex, NodeId, NodeIdx};
use mpg_trace::{Diagnostic, EventKind, MemTrace, Rank, Rule, Seq, Tag, ANY_SOURCE, ANY_TAG};
use std::collections::BTreeMap;

/// Tunables for the synchronization pass.
#[derive(Debug, Clone, Copy)]
pub struct SyncOptions {
    /// `MPG-BUFFER-WATERMARK` fires when a receiver's in-flight eager-send
    /// high-water mark strictly exceeds this.
    pub watermark: usize,
}

impl Default for SyncOptions {
    fn default() -> Self {
        SyncOptions { watermark: 8 }
    }
}

/// A collective hub and its per-rank entry events, in resolution order.
struct Hub {
    node: NodeId,
    entries: Vec<(Rank, Seq)>,
}

fn collect_hubs(graph: &EventGraph) -> Vec<Hub> {
    let arena = graph.arena();
    // Hub ordinal → its position in `hubs`.
    let mut slot = vec![NO_NODE; arena.num_hubs()];
    let mut hubs: Vec<Hub> = Vec::new();
    for e in 0..arena.num_edges() {
        let dst = arena.edge_dst(e);
        let Some(ordinal) = arena.hub_ordinal(dst) else {
            continue;
        };
        if slot[ordinal] == NO_NODE {
            slot[ordinal] = hubs.len() as NodeIdx;
            hubs.push(Hub {
                node: arena.node_id(dst),
                entries: Vec::new(),
            });
        }
        let src = arena.node_id(arena.edge_src(e));
        hubs[slot[ordinal] as usize]
            .entries
            .push((src.rank, src.seq));
    }
    for hub in &mut hubs {
        hub.entries.sort_unstable();
    }
    hubs
}

#[cfg(test)]
thread_local! {
    /// Horizon reads made by the current test thread.
    static HORIZON_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Bypassed indexes built by the current test thread.
    static BYPASS_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// [`HbIndex::completion_horizon`], the only happens-before read this pass
/// makes: `(rank, c)` must complete before `b` can start exactly when
/// `c < horizon(hb, rank, b)`.
fn horizon(hb: &HbIndex, rank: Rank, b: (Rank, Seq)) -> Seq {
    #[cfg(test)]
    HORIZON_READS.with(|c| c.set(c.get() + 1));
    hb.completion_horizon(rank, b)
}

/// What the recorded graph forbids one send to match: the receives of
/// `dst` that are envelope-compatible with `send` and complete below its
/// horizon. Only the largest such completion, `last`, is kept — under
/// another index the same receives stay forbidden exactly when `last` is
/// still below the send's horizon there, because a horizon cuts a rank's
/// events at a prefix.
struct Forbidden {
    dst: Rank,
    send: (Rank, Seq),
    last: Seq,
}

/// The matches the recorded graph forbids, one [`Forbidden`] per send that
/// has any: envelope-compatible `(receive-completion event, send event)`
/// pairs where the receive must complete before the send can issue.
fn forbidden_matches(trace: &MemTrace, matching: &Matching, hb: &HbIndex) -> Vec<Forbidden> {
    // Receive completions under (receiving rank, posted source pattern,
    // posted tag pattern), sorted: the completions one pattern admits are
    // a contiguous ascending run.
    type Pattern = (Rank, Rank, Tag);
    let mut posted: Vec<(Pattern, Seq)> = Vec::new();
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
        posted.push(((rrank, src_pat, tag_pat), pair.completion));
    }
    posted.sort_unstable();
    let mut out = Vec::new();
    for s in &matching.sends {
        let send = (s.src, s.seq);
        let below = horizon(hb, s.dst, send);
        // At most four patterns admit this send.
        let mut last = None;
        for src_pat in [s.src, ANY_SOURCE] {
            for tag_pat in [s.tag, ANY_TAG] {
                let pattern = (s.dst, src_pat, tag_pat);
                let end = posted.partition_point(|&e| e < (pattern, below));
                if let Some(&(_, completion)) = posted[..end].last().filter(|e| e.0 == pattern) {
                    last = last.max(Some(completion));
                }
            }
        }
        if let Some(last) = last {
            out.push(Forbidden {
                dst: s.dst,
                send,
                last,
            });
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
        // An empty forbidden set holds under any index, so it needs no
        // bypassed one. Otherwise the bypassed index is scoped to the
        // iteration: each is dropped before the next barrier's is built, so
        // at most one is alive at a time, and it stores the columns `hb`
        // does — the ones read below.
        let preserved = forbidden.is_empty() || {
            #[cfg(test)]
            BYPASS_BUILDS.with(|c| c.set(c.get() + 1));
            let without = HbIndex::build_bypassing(graph, hub.node, hb.columns());
            forbidden
                .iter()
                .all(|f| f.last < horizon(&without, f.dst, f.send))
        };
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
    // Whether each send is eager, by `(src, seq)`: sorted stably, so the
    // last record of a key (an unvalidated trace can repeat one) is the
    // one a lookup finds.
    let mut eager: Vec<((Rank, Seq), bool)> = matching
        .sends
        .iter()
        .map(|s| ((s.src, s.seq), s.eager))
        .collect();
    eager.sort_by_key(|&(send, _)| send);
    let is_eager = |send: (Rank, Seq)| {
        let end = eager.partition_point(|&(k, _)| k <= send);
        end > 0 && eager[end - 1] == (send, true)
    };
    // Eager matched traffic per receiver: (completion seq, send event).
    type EagerMsg = (Seq, (Rank, Seq));
    let mut per_dst: BTreeMap<Rank, Vec<EagerMsg>> = BTreeMap::new();
    for pair in &matching.pairs {
        if is_eager(pair.send) && pair.send.0 != pair.recv.0 {
            per_dst
                .entry(pair.recv.0)
                .or_default()
                .push((pair.completion, pair.send));
        }
    }
    let mut diags = Vec::new();
    for (dst, msgs) in per_dst {
        // Message `j` is resident at receiver point `c` exactly when its
        // consuming receive has not completed (`c <= c_j`) and nothing
        // forces its send to wait for `c` (`c >= K_j`, the send's horizon
        // on `dst`): an interval. Occupancy at `c` is the intervals opened
        // at or before `c` minus those closed before it — empty intervals
        // dropped first, so that closed-before implies opened-before.
        let resident: Vec<(Seq, Seq, Rank)> = msgs
            .iter()
            .map(|&(c_j, send_j)| (horizon(hb, dst, send_j), c_j, send_j.0))
            .filter(|&(k_j, c_j, _)| k_j <= c_j)
            .collect();
        let mut opens: Vec<Seq> = resident.iter().map(|&(k_j, ..)| k_j).collect();
        let mut closes: Vec<Seq> = resident.iter().map(|&(_, c_j, _)| c_j).collect();
        opens.sort_unstable();
        closes.sort_unstable();
        let mut peak = 0usize;
        let mut peak_at: Seq = 0;
        for &(c_i, _) in &msgs {
            let occupancy =
                opens.partition_point(|&k| k <= c_i) - closes.partition_point(|&c| c < c_i);
            if occupancy > peak {
                peak = occupancy;
                peak_at = c_i;
            }
        }
        if peak > opts.watermark {
            // The resident set is materialised for the peak alone.
            let peak_srcs = resident
                .iter()
                .filter(|&&(k_j, c_j, _)| k_j <= peak_at && peak_at <= c_j)
                .map(|&(.., src)| src);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintContext;
    use mpg_noise::PlatformSignature;

    /// A 4-rank ring of 2 000 eager messages per receiver with one barrier
    /// halfway: the pass reads a horizon per message, per send and per
    /// `(barrier, send)` — not one per `(receive, send)` pair, which is
    /// 4 × 2 000² reads here — and holds no more than one forbidden-match
    /// threshold per send.
    #[test]
    fn horizon_reads_are_linear_in_the_messages() {
        const ROUNDS: usize = 2_000;
        let trace = mpg_sim::Simulation::new(4, PlatformSignature::quiet("sync-ring"))
            .run(|ctx| {
                let (me, p) = (ctx.rank(), ctx.size());
                for round in 0..ROUNDS {
                    if round == ROUNDS / 2 {
                        ctx.barrier();
                    }
                    ctx.sendrecv((me + 1) % p, 0, 64, (me + p - 1) % p, 0);
                }
            })
            .expect("ring simulates")
            .trace;
        let ctx = LintContext::build(&trace);
        let graph = ctx.graph.as_ref().expect("clean trace records a graph");
        let hb = ctx.hb.as_ref().expect("and an index over it");
        let matching = &ctx.progress.matching;
        let messages = matching.pairs.len();
        assert_eq!(messages, 4 * ROUNDS);

        let forbidden = forbidden_matches(&trace, matching, hb);
        assert!(!forbidden.is_empty(), "the barrier forbids something");
        assert!(forbidden.len() <= matching.sends.len());

        let before = HORIZON_READS.with(|c| c.get());
        let diags = lint_sync(&trace, graph, hb, matching, &SyncOptions::default());
        let reads = HORIZON_READS.with(|c| c.get()) - before;
        assert!(reads >= messages, "{reads} reads for {messages} messages");
        assert!(
            reads < 16 * messages,
            "{reads} reads for {messages} messages"
        );
        // The ring keeps every sender within a few rounds of its receiver,
        // and the barrier shields each earlier receive from the later sends.
        assert_eq!(diags, Vec::new());
    }

    /// Barriers between compute phases and no message at all: nothing is
    /// forbidden, so every barrier is removable — reported, as a rebuild
    /// per barrier would report it, with no bypassed index built.
    #[test]
    fn no_forbidden_match_no_bypassed_index() {
        const BARRIERS: u64 = 5;
        let trace = mpg_sim::Simulation::new(3, PlatformSignature::quiet("sync-barriers"))
            .run(|ctx| {
                for _ in 0..BARRIERS {
                    ctx.compute(1_000 * u64::from(ctx.rank() + 1));
                    ctx.barrier();
                }
            })
            .expect("barrier program simulates")
            .trace;
        let ctx = LintContext::build(&trace);
        let graph = ctx.graph.as_ref().expect("clean trace records a graph");
        let hb = ctx.hb.as_ref().expect("and an index over it");
        let matching = &ctx.progress.matching;
        assert!(forbidden_matches(&trace, matching, hb).is_empty());

        let before = BYPASS_BUILDS.with(|c| c.get());
        let diags = lint_sync(&trace, graph, hb, matching, &SyncOptions::default());
        assert_eq!(BYPASS_BUILDS.with(|c| c.get()), before);
        assert_eq!(diags.len() as u64, BARRIERS);
        assert!(diags.iter().all(|d| d.rule == Rule::RedundantSync));
        let mut at: Vec<_> = diags.iter().map(|d| d.span).collect();
        at.dedup();
        assert_eq!(at.len() as u64, BARRIERS, "one finding per barrier: {at:?}");
    }
}
