//! Zero-drift feasibility sweep: earliest/latest times and per-edge slack.
//!
//! The replay pipeline answers "where is this program sensitive?"
//! *dynamically* — inject noise, propagate, walk the binding chain
//! ([`crate::critical`]). This module answers the same question
//! *statically*, from the recorded graph alone, Scalasca-style: a forward
//! sweep reconstructs every subevent's earliest feasible time from
//! effective edge costs, a backward sweep computes the latest time each
//! subevent may occur without growing the makespan, and the difference
//! assigns every edge a **slack** — the largest delay that edge can absorb
//! before the run as a whole gets slower. Zero-slack edges form the static
//! critical path.
//!
//! All sweep state lives in flat columns indexed by the graph arena's
//! dense [`NodeIdx`] / edge positions — the sweep allocates no per-node
//! maps and does no hashing after the initial anchor lookups.
//!
//! # Time space, not drift space
//!
//! Unlike replay (which works in per-rank drift space and never compares
//! timestamps across ranks, §4.1), slack is inherently a *time-space*
//! notion: "how late may this message arrive?" only makes sense on a
//! common clock. The sweep therefore re-times the trace first: each rank's
//! timestamps are shifted so its first subevent sits at 0. Because every
//! rank enters `Init` at the same global instant, this cancels constant
//! clock offsets exactly; only oscillator *rate* error (±100 ppm on real
//! hardware) survives, and any resulting causality violation (a message
//! "arriving" before it was sent, or after its receiver completed) is
//! clamped and counted in [`SlackSweep::causality_clamps`] — the analyzer's
//! honesty counter, in the same spirit as
//! [`AbsorptionMode::MeasuredSlack`](crate::replay::AbsorptionMode)'s
//! documented clock trust.
//!
//! # Effective costs
//!
//! Raw local-edge weights include time spent *blocked*, so scheduling the
//! graph against them would be tautologically tight everywhere. The sweep
//! instead derives effective costs that separate work from waiting:
//!
//! * a blocking operation's intra edge costs its duration **minus** the
//!   wait interval (the part spent blocked on the latest incoming message
//!   arm);
//! * every incoming message arm costs the op window's post-wait residue,
//!   so exactly the latest-arriving arm is tight;
//! * collective entry edges cost 0 (only the last rank into the hub is
//!   tight) and hub→exit edges cost the member's post-hub residue.
//!
//! Under these costs the forward sweep reproduces the observed schedule
//! exactly (checked per node; [`SlackSweep::retime_mismatches`] counts
//! violations), which is what makes the backward sweep's slack a faithful
//! "maximum absorbable delay" — a property the test suite brute-forces.
//!
//! # Static ⇄ dynamic equivalence oracle
//!
//! For *constant* perturbation models the drift a replay would sample on
//! each edge is a deterministic function of the edge's [`DeltaClass`]
//! alone, so the whole replay can be predicted without running it:
//! [`predicted_graph`] stamps the predicted deltas onto a quiet-recorded
//! graph, and [`critical_path`](crate::critical::critical_path) over the
//! prediction must equal the critical path of a real replay under that
//! model. Together with [`drift_slack`] (zero drift-slack ⇔ on the binding
//! chain) this is the correctness oracle tying the static analyzer to the
//! dynamic engine.

use std::collections::BTreeSet;

use mpg_noise::Dist;

use crate::arena::{GraphArena, NodeIdx};
use crate::cancel::{CancelReason, CancelToken, CHECK_INTERVAL};
use crate::graph::{EventGraph, NodeId, Point};
use crate::perturb::{DeltaClass, PerturbSampler, PerturbationModel, SignedDist};
use crate::{Cycles, Drift};

/// Sentinel for "no edge" in the dense binding and `pred` columns.
const NO_ARM: u32 = u32::MAX;

/// Result of the zero-drift forward/backward feasibility sweep. Borrows
/// the swept graph's arena so queries by [`NodeId`] resolve through the
/// arena's layout onto flat columns.
#[derive(Debug, Clone)]
pub struct SlackSweep<'g> {
    arena: &'g GraphArena,
    /// Per-rank re-timing offset: the rank's earliest label time. A
    /// labeled event node's observed time is its label time minus this.
    rank_base: Vec<Cycles>,
    /// Observed time of each hub, by hub ordinal: the max of its entry
    /// times (`None` for a hub no entry edge reaches).
    hub_time: Vec<Option<Cycles>>,
    /// Earliest feasible time per node under the effective costs.
    earliest: Vec<Cycles>,
    /// Latest feasible time per node that keeps the makespan.
    latest: Vec<Cycles>,
    /// Effective cost per edge (parallel to edge positions).
    cost: Vec<Cycles>,
    /// Wait interval per event, read at its end subevent (0 ⇒ none).
    wait: Vec<Cycles>,
    /// Binding incoming message arm per event, into its end subevent: the
    /// edge position whose source time defines the wait interval
    /// (`NO_ARM` ⇒ none).
    binding: Vec<u32>,
    /// Preferred tight incoming edge per node — the step a chain walk
    /// takes back from it (`NO_ARM` ⇒ none; see DESIGN.md §17.3).
    pred: Vec<u32>,
    /// Number of zero-slack edges.
    zero_slack: usize,
    /// Re-timed finish of the whole run: max over final end nodes.
    pub makespan: Cycles,
    /// The final end node realizing the makespan (ties: lowest rank).
    /// `None` for an empty graph.
    pub anchor: Option<NodeId>,
    /// Labeled nodes whose forward-sweep time differs from the observed
    /// (re-timed) time — nonzero only when clocks lie about causality.
    pub retime_mismatches: usize,
    /// Cross-rank time comparisons that violated causality and were
    /// clamped (message later than its receiving window, or earlier than
    /// its send).
    pub causality_clamps: usize,
}

/// A chain of tight (zero-residue) edges extracted by walking backwards
/// from an anchor node along the static schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticPath {
    /// The end node the walk started from.
    pub anchor: NodeId,
    /// Earliest feasible (== observed) time of the anchor.
    pub finish: Cycles,
    /// Edge positions (creation order), anchor-first (reverse order).
    pub edges: Vec<usize>,
    /// Distinct non-hub ranks the chain traverses (anchor included).
    pub ranks_touched: usize,
    /// How many chain edges are message edges (cross-rank or hub).
    pub message_hops: usize,
    /// Total wait-state cycles absorbed along the chain: for every chain
    /// node whose binding message arm is the chain edge, the node's wait
    /// interval.
    pub wait_cycles: Cycles,
}

/// The event whose end subevent node `i` is: its position in the
/// per-event `wait` and `binding` columns. `None` for a start subevent or
/// a hub — a start's op window is empty, so it has no wait interval.
fn end_event(arena: &GraphArena, i: NodeIdx) -> Option<usize> {
    // Every rank's slots start at an even index, so an end is odd.
    (i & 1 == 1 && !arena.is_hub(i)).then_some((i >> 1) as usize)
}

/// Re-timed observed time of node `i`: a labeled event node's label time
/// less its rank's offset, a hub's entry maximum; `None` otherwise.
fn observed(
    arena: &GraphArena,
    rank_base: &[Cycles],
    hub_time: &[Option<Cycles>],
    i: NodeIdx,
) -> Option<Cycles> {
    match arena.hub_ordinal(i) {
        Some(h) => hub_time[h],
        None => arena
            .label_time(i)
            .map(|t| t - rank_base[arena.node_rank[i as usize] as usize]),
    }
}

impl<'g> SlackSweep<'g> {
    /// Runs the forward/backward sweep over a recorded graph.
    pub fn sweep(graph: &'g EventGraph) -> Self {
        let arena = graph.arena();
        let n_nodes = arena.num_nodes();
        let n_edges = arena.num_edges();
        let (src_of, dst_of) = (|e: usize| arena.edge_src(e), |e: usize| arena.edge_dst(e));

        // -- Re-time: per-rank offset removal -------------------------------
        let rank_base: Vec<Cycles> = (0..arena.num_ranks())
            .map(|r| {
                arena
                    .rank_nodes(r)
                    .filter_map(|i| arena.label_time(i))
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        // Hub times: max over entry-edge sources. Entry edges precede the
        // hub's outgoing edges in creation order, so one pass suffices.
        let mut hub_time = vec![None; arena.num_hubs()];
        for e in 0..n_edges {
            let (src, dst) = (src_of(e), dst_of(e));
            if let (Some(h), false) = (arena.hub_ordinal(dst), arena.is_hub(src)) {
                // An event node's time reads no hub time.
                let src_t = observed(arena, &rank_base, &[], src).unwrap_or(0);
                let slot: &mut Option<Cycles> = &mut hub_time[h];
                *slot = Some(slot.unwrap_or(0).max(src_t));
            }
        }
        let time = |i: NodeIdx| observed(arena, &rank_base, &hub_time, i);

        // -- Wait intervals & binding arms ----------------------------------
        // An incoming message arm is remote when its source is another
        // rank's node or a collective hub; an acknowledgement edge from the
        // rank's *own* send-start (arrival-resolved ack) is not a cause of
        // waiting and is excluded. The binding arm is the latest-arriving
        // one (the first of equals).
        let n_events = (n_nodes - arena.num_hubs()) / 2;
        let mut wait = vec![0 as Cycles; n_events];
        let mut binding = vec![NO_ARM; n_events];
        let mut causality_clamps = 0usize;
        for e in 0..n_edges {
            let (src, dst) = (src_of(e), dst_of(e));
            let Some(ev) = end_event(arena, dst).filter(|_| arena.edge_is_message(e)) else {
                continue;
            };
            if !arena.is_hub(src) && arena.node_rank[src as usize] == arena.node_rank[dst as usize]
            {
                continue;
            }
            let b = binding[ev];
            if b == NO_ARM || time(src).unwrap_or(0) > time(src_of(b as usize)).unwrap_or(0) {
                binding[ev] = e as u32;
            }
        }
        for (ev, &b) in binding.iter().enumerate() {
            if b == NO_ARM {
                continue;
            }
            let end = (2 * ev + 1) as NodeIdx;
            let m = time(src_of(b as usize)).unwrap_or(0);
            let (Some(t_start), Some(t_end)) = (time(end - 1), time(end)) else {
                continue;
            };
            if m > t_end {
                causality_clamps += 1;
            }
            wait[ev] = m.saturating_sub(t_start).min(t_end.saturating_sub(t_start));
        }
        let wait_at = |i: NodeIdx| end_event(arena, i).map_or(0, |ev| wait[ev]);

        // -- Effective edge costs -------------------------------------------
        let cost: Vec<Cycles> = (0..n_edges)
            .map(|e| {
                let (src, dst) = (src_of(e), dst_of(e));
                if arena.edge_is_message(e) {
                    if arena.is_hub(dst) {
                        // Entry into the hub: only the last rank in is tight.
                        return 0;
                    }
                    // Post-wait residue of the receiving op's window; the
                    // same for every arm, so tightness is decided by the
                    // arm's source time alone.
                    let dur = match (time(arena.start_of(dst)), time(dst)) {
                        (Some(s), Some(t)) => t.saturating_sub(s),
                        _ => 0,
                    };
                    dur.saturating_sub(wait_at(dst))
                } else if !arena.is_hub(dst) && dst == src + 1 && arena.start_of(dst) == src {
                    // Intra edge of an op: its duration minus time spent
                    // blocked (zero for ops with no remote arm).
                    arena.edge_base(e).saturating_sub(wait_at(dst))
                } else {
                    // Gap edges and other local structure: traced interval.
                    arena.edge_base(e)
                }
            })
            .collect();

        // -- Forward sweep (earliest) ---------------------------------------
        let mut earliest = vec![0 as Cycles; n_nodes];
        for e in 0..n_edges {
            let cand = earliest[src_of(e) as usize].saturating_add(cost[e]);
            let slot = &mut earliest[dst_of(e) as usize];
            *slot = (*slot).max(cand);
        }
        let retime_mismatches = (0..n_nodes as NodeIdx)
            .filter(|&i| time(i).is_some_and(|t| t != earliest[i as usize]))
            .count();

        // -- Preferred tight arms (the chain walk's steps) ------------------
        // The binding message arm when it is tight (it names the true cause
        // of a wait); otherwise any tight arm, message edges first, later
        // sources first, then the later edge — one forward pass, since a
        // later edge wins every tie the first two keys leave.
        let tight = |e: usize| {
            earliest[src_of(e) as usize].saturating_add(cost[e]) == earliest[dst_of(e) as usize]
        };
        let key = |e: usize| (arena.edge_is_message(e), earliest[src_of(e) as usize]);
        let mut pred = vec![NO_ARM; n_nodes];
        for e in (0..n_edges).filter(|&e| tight(e)) {
            let p = &mut pred[dst_of(e) as usize];
            if *p == NO_ARM || key(e) >= key(*p as usize) {
                *p = e as u32;
            }
        }
        for (ev, &b) in binding.iter().enumerate() {
            if b != NO_ARM && tight(b as usize) {
                pred[2 * ev + 1] = b;
            }
        }

        // -- Makespan & anchor ----------------------------------------------
        let mut makespan = 0;
        let mut anchor: Option<NodeId> = None;
        for i in (0..arena.num_ranks()).filter_map(|r| arena.last_end(r)) {
            let t = earliest[i as usize];
            if anchor.is_none() || t > makespan {
                makespan = t;
                anchor = Some(arena.node_id(i));
            }
        }

        // -- Backward sweep (latest) ----------------------------------------
        // Reverse creation order is a reverse topological order, so each
        // node's outgoing edges are all visited before any incoming edge
        // reads its latest time. Every candidate is ≤ makespan, so dense
        // makespan-initialized slots are equivalent to lazy insertion.
        let mut latest = vec![makespan; n_nodes];
        for e in (0..n_edges).rev() {
            let cand = latest[dst_of(e) as usize].saturating_sub(cost[e]);
            let slot = &mut latest[src_of(e) as usize];
            *slot = (*slot).min(cand);
        }

        let mut sweep = Self {
            arena,
            rank_base,
            hub_time,
            earliest,
            latest,
            cost,
            wait,
            binding,
            pred,
            zero_slack: 0,
            makespan,
            anchor,
            retime_mismatches,
            causality_clamps,
        };
        sweep.zero_slack = (0..n_edges).filter(|&e| sweep.slack(e) == 0).count();
        sweep
    }

    fn idx(&self, node: &NodeId) -> Option<NodeIdx> {
        self.arena.node_index(node)
    }

    /// Wait interval and binding arm of node `i`: those of the event whose
    /// end subevent it is, `(0, NO_ARM)` for any other node.
    fn wait_state(&self, i: NodeIdx) -> (Cycles, u32) {
        end_event(self.arena, i).map_or((0, NO_ARM), |ev| (self.wait[ev], self.binding[ev]))
    }

    /// Re-timed observed time of a node (offset-normalized local clock).
    pub fn time(&self, node: NodeId) -> Option<Cycles> {
        observed(
            self.arena,
            &self.rank_base,
            &self.hub_time,
            self.idx(&node)?,
        )
    }

    /// Earliest feasible time of a node (equals the observed time when the
    /// trace clocks respect causality).
    pub fn earliest(&self, node: NodeId) -> Cycles {
        self.idx(&node).map_or(0, |i| self.earliest[i as usize])
    }

    /// Latest time the node may occur without growing the makespan.
    pub fn latest(&self, node: NodeId) -> Cycles {
        self.idx(&node)
            .map_or(self.makespan, |i| self.latest[i as usize])
    }

    /// Effective cost of edge `i` (creation-order position).
    pub fn cost(&self, i: usize) -> Cycles {
        self.cost[i]
    }

    /// Slack of edge `i`: the largest delay injectable on that edge alone
    /// that leaves the makespan unchanged.
    pub fn slack(&self, i: usize) -> Cycles {
        let dst_l = self.latest[self.arena.edge_dst(i) as usize];
        let src_e = self.earliest[self.arena.edge_src(i) as usize];
        dst_l.saturating_sub(src_e.saturating_add(self.cost[i]))
    }

    /// Wait interval of a blocking op's end node: the part of its duration
    /// spent blocked on the latest incoming message arm. Zero for nodes
    /// with no remote arm.
    pub fn wait(&self, end: NodeId) -> Cycles {
        self.idx(&end).map_or(0, |i| self.wait_state(i).0)
    }

    /// The binding incoming message arm of an end node: the edge whose
    /// source time defines the node's wait interval.
    pub fn binding_arm(&self, end: NodeId) -> Option<usize> {
        let b = self.wait_state(self.idx(&end)?).1;
        (b != NO_ARM).then_some(b as usize)
    }

    /// Number of zero-slack edges (the static critical network).
    pub fn zero_slack_edges(&self) -> usize {
        self.zero_slack
    }

    /// How many edges a perturbation of `magnitude` cycles could propagate
    /// through (slack below the magnitude) — the "analyze first, then only
    /// sweep where it matters" count.
    pub fn perturbable_edges(&self, magnitude: Cycles) -> usize {
        (0..self.cost.len())
            .filter(|&i| self.slack(i) < magnitude)
            .count()
    }

    /// Walks the static critical path: from the makespan anchor backwards
    /// along tight arms to time zero. Returns `None` for an empty graph.
    pub fn static_critical_path(&self, graph: &EventGraph) -> Option<StaticPath> {
        Some(self.chain_from(graph, self.anchor?))
    }

    /// Walks a tight chain backwards from an arbitrary anchor node. Every
    /// edge on the chain satisfies `earliest(src) + cost == earliest(dst)`;
    /// when the anchor realizes the makespan these are exactly zero-slack
    /// edges. `graph` is the graph this sweep was run over.
    pub fn chain_from(&self, graph: &EventGraph, anchor: NodeId) -> StaticPath {
        let arena = graph.arena();
        debug_assert_eq!(
            arena.num_edges(),
            self.arena.num_edges(),
            "not the swept graph"
        );
        let n_edges = arena.num_edges();
        let mut chain = Vec::new();
        let mut ranks = BTreeSet::new();
        let mut message_hops = 0usize;
        let mut wait_cycles = 0;
        if !anchor.hub {
            ranks.insert(anchor.rank);
        }
        let finish = self.earliest(anchor);
        let mut current = arena.node_index(&anchor);
        while let Some(cur) = current {
            let cur = cur as usize;
            if self.earliest[cur] == 0 || self.pred[cur] == NO_ARM {
                break;
            }
            let i = self.pred[cur] as usize;
            if arena.edge_is_message(i) {
                message_hops += 1;
            }
            let (wait, binding) = self.wait_state(cur as NodeIdx);
            if binding == i as u32 {
                wait_cycles += wait;
            }
            let src = arena.edge_src(i);
            if !arena.is_hub(src) {
                ranks.insert(arena.node_rank[src as usize]);
            }
            chain.push(i);
            current = Some(src);
            if chain.len() > n_edges {
                break; // defensive: a cycle would indicate a recording bug
            }
        }
        StaticPath {
            anchor,
            finish,
            edges: chain,
            ranks_touched: ranks.len(),
            message_hops,
            wait_cycles,
        }
    }
}

/// True when every delta a replay under `model` would sample is a
/// deterministic constant: all component distributions are `Zero` or
/// `Constant` and no quantum scaling is configured (quantum scaling reads
/// each edge's *work*, which the recorded graph does not carry).
pub fn predictable(model: &PerturbationModel) -> bool {
    fn constant(d: &SignedDist) -> bool {
        matches!(d.dist, Dist::Zero | Dist::Constant(_))
    }
    constant(&model.os_local)
        && constant(&model.os_remote)
        && constant(&model.latency)
        && constant(&model.transfer_jitter)
        && model.os_quantum.is_none()
}

/// Predicts the graph a recording replay under `model` would produce,
/// without replaying: the quiet-recorded `graph`'s structure with every
/// edge's sampled delta replaced by the constant the engine's sampler
/// would draw for its [`DeltaClass`]. Exact because constant draws are
/// independent of stream and order — the same property that lets lane
/// batching share one traversal across models.
///
/// Returns `None` when the model is not [`predictable`], or when the graph
/// contains an arrival-resolved acknowledgement edge (a `Lambda`-classed
/// message edge leaving a *start* subevent, whose delta composes the full
/// forward path) and the model has a size-dependent `per_byte` term — the
/// edge does not carry the payload size needed to predict it.
pub fn predicted_graph(graph: &EventGraph, model: &PerturbationModel) -> Option<EventGraph> {
    if !predictable(model) {
        return None;
    }
    let mut sampler = PerturbSampler::new(model.clone(), 1, 0);
    let mut out = graph.clone();
    let arena = out.arena_mut();
    for i in 0..arena.num_edges() {
        let src = arena.node_id(arena.edge_src(i));
        let sampled = match arena.edge_class(i) {
            DeltaClass::None => 0,
            // An acknowledgement arm anchored at the sender's own start
            // subevent stands for the full forward path plus the return
            // hop (the engine records `d_msg − d_src + λ_ack` on it).
            DeltaClass::Lambda if src.point == Point::Start && !src.hub => {
                if model.per_byte != 0.0 {
                    return None;
                }
                sampler.sample(0, DeltaClass::MessagePath { bytes: 0 })
                    + sampler.sample(0, DeltaClass::Lambda)
            }
            class => sampler.sample(0, class),
        };
        arena.set_edge_sampled(i, sampled);
    }
    Some(out)
}

/// Per-edge slack in *drift space*: how much more delta an edge could have
/// sampled before the binding chain into the maximally drifted final node
/// would run through it. Edges on the replay critical path have zero
/// drift-slack; edges that cannot reach the anchor at all have `None`
/// (infinite slack). Returns `None` when no drift accumulated (quiet
/// replay — every chain is trivial).
pub fn drift_slack(graph: &EventGraph) -> Option<DriftSlack> {
    drift_slack_inner(graph, None).expect("uncancellable slack sweep completes")
}

/// [`drift_slack`] with a cooperative [`CancelToken`] polled every
/// [`CHECK_INTERVAL`] edges of the backward reach pass. A partial slack
/// table would silently mislabel edges as critical, so a fired token
/// aborts the computation instead of degrading.
pub fn drift_slack_cancellable(
    graph: &EventGraph,
    cancel: &CancelToken,
) -> Result<Option<DriftSlack>, CancelReason> {
    drift_slack_inner(graph, Some(cancel))
}

fn drift_slack_inner(
    graph: &EventGraph,
    cancel: Option<&CancelToken>,
) -> Result<Option<DriftSlack>, CancelReason> {
    let arena = graph.arena();
    let drifts = arena.propagate_dense();
    let finals = graph.final_drifts();
    let Some((anchor_rank, &anchor_drift)) = finals.iter().enumerate().max_by_key(|&(_, &d)| d)
    else {
        return Ok(None);
    };
    if anchor_drift <= 0 {
        return Ok(None);
    }
    let Some(anchor_idx) = arena.last_end(anchor_rank) else {
        return Ok(None);
    };
    let anchor = arena.node_id(anchor_idx);
    // Best achievable delta-sum from each node to the anchor, dense over
    // the arena's index space (`None` ⇔ cannot reach the anchor).
    let mut reach: Vec<Option<Drift>> = vec![None; arena.num_nodes()];
    reach[anchor_idx as usize] = Some(0);
    let n_edges = arena.num_edges();
    let mut slack = vec![None; n_edges];
    for i in (0..n_edges).rev() {
        if let Some(token) = cancel {
            if (i as u64).is_multiple_of(CHECK_INTERVAL) {
                if let Some(reason) = token.fired() {
                    return Err(reason);
                }
            }
        }
        let (src, dst) = (arena.edge_src(i), arena.edge_dst(i));
        if let Some(r_dst) = reach[dst as usize] {
            let through = arena.edge_sampled(i) + r_dst;
            let slot = &mut reach[src as usize];
            *slot = Some(slot.map_or(through, |r| r.max(through)));
            let f_src = drifts[src as usize].max(0);
            slack[i] = Some(anchor_drift - (f_src + through));
        }
    }
    Ok(Some(DriftSlack {
        anchor,
        anchor_drift,
        slack,
    }))
}

/// Result of [`drift_slack`].
#[derive(Debug, Clone)]
pub struct DriftSlack {
    /// The maximally drifted final end node.
    pub anchor: NodeId,
    /// Its drift.
    pub anchor_drift: Drift,
    /// Per-edge drift-slack (parallel to edge positions); `None` when the
    /// edge cannot reach the anchor.
    pub slack: Vec<Option<Drift>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Edge;
    use std::collections::HashMap;

    /// Hand-built two-rank late-sender scenario:
    ///
    /// ```text
    /// rank 0: [init 0..10] [compute 10..100] [send 100..110]
    /// rank 1: [init 0..10] [recv 10..115]
    /// ```
    ///
    /// Rank 1 posts its receive at 10 but the message only leaves rank 0
    /// at 100; the receive's 105-cycle duration is mostly wait.
    fn late_sender_graph() -> EventGraph {
        let mut g = EventGraph::new(&[3, 2]);
        let e = |src, dst, base, is_message| Edge {
            src,
            dst,
            base,
            class: DeltaClass::None,
            sampled: 0,
            is_message,
        };
        // rank 0
        g.label(NodeId::start(0, 0), "init", 0);
        g.label(NodeId::end(0, 0), "init", 10);
        g.label(NodeId::start(0, 1), "compute", 10);
        g.label(NodeId::end(0, 1), "compute", 100);
        g.label(NodeId::start(0, 2), "send", 100);
        g.label(NodeId::end(0, 2), "send", 110);
        g.add_edge(e(NodeId::start(0, 0), NodeId::end(0, 0), 10, false));
        g.add_edge(e(NodeId::end(0, 0), NodeId::start(0, 1), 0, false));
        g.add_edge(e(NodeId::start(0, 1), NodeId::end(0, 1), 90, false));
        g.add_edge(e(NodeId::end(0, 1), NodeId::start(0, 2), 0, false));
        g.add_edge(e(NodeId::start(0, 2), NodeId::end(0, 2), 10, false));
        // rank 1 (clock offset +1000 to exercise re-timing)
        g.label(NodeId::start(1, 0), "init", 1000);
        g.label(NodeId::end(1, 0), "init", 1010);
        g.label(NodeId::start(1, 1), "recv", 1010);
        g.label(NodeId::end(1, 1), "recv", 1115);
        g.add_edge(e(NodeId::start(1, 0), NodeId::end(1, 0), 10, false));
        g.add_edge(e(NodeId::end(1, 0), NodeId::start(1, 1), 0, false));
        g.add_edge(e(NodeId::start(1, 1), NodeId::end(1, 1), 105, false));
        // message edge: send start -> recv end
        g.add_edge(e(NodeId::start(0, 2), NodeId::end(1, 1), 0, true));
        g
    }

    #[test]
    fn late_sender_wait_and_slack() {
        let g = late_sender_graph();
        let s = SlackSweep::sweep(&g);
        assert_eq!(s.retime_mismatches, 0);
        assert_eq!(s.causality_clamps, 0);
        // Re-timing removed rank 1's offset.
        assert_eq!(s.time(NodeId::start(1, 1)), Some(10));
        // The receive blocked from 100 (send start) with a 15-cycle
        // post-wait residue: wait = 100 - 10 = 90.
        assert_eq!(s.wait(NodeId::end(1, 1)), 90);
        let arm = s.binding_arm(NodeId::end(1, 1)).expect("binding arm");
        assert!(g.edge(arm).is_message);
        // Makespan anchored on rank 1's receive end.
        assert_eq!(s.makespan, 115);
        assert_eq!(s.anchor, Some(NodeId::end(1, 1)));
        // The message arm is tight; rank 1's intra edge has slack (its
        // effective cost is 105 - 90 = 15, placed after the wait).
        assert_eq!(s.slack(arm), 0);
        assert_eq!(s.cost(arm), 15);
        // Rank 0's send local edge is NOT on the critical path: the chain
        // leaves rank 0 at the send *start*.
        let path = s.static_critical_path(&g).expect("path");
        assert_eq!(path.finish, 115);
        assert_eq!(path.ranks_touched, 2);
        assert_eq!(path.message_hops, 1);
        assert_eq!(path.wait_cycles, 90);
        // Chain: recv_end <- msg <- send_start <- gap <- compute ...
        assert!(path.edges.len() >= 4, "{path:?}");
        // Rank 1's early phases are off the path: its init intra edge has
        // slack (it could run 90 cycles later).
        let init1 = g
            .edges()
            .position(|e| e.src == NodeId::start(1, 0) && !e.is_message)
            .unwrap();
        assert_eq!(s.slack(init1), 90);
    }

    #[test]
    fn chains_follow_tight_arms_from_any_anchor() {
        let g = late_sender_graph();
        let s = SlackSweep::sweep(&g);
        let from_send = s.chain_from(&g, NodeId::end(0, 2));
        let from_recv = s.chain_from(&g, NodeId::end(1, 1));
        assert_eq!(s.static_critical_path(&g), Some(from_recv.clone()));
        assert_eq!(from_send.finish, 110);
        // The receive steps back through its binding arm, not its local
        // start, and every step is tight.
        assert_eq!(Some(from_recv.edges[0]), s.binding_arm(NodeId::end(1, 1)));
        for path in [&from_send, &from_recv] {
            for &i in &path.edges {
                let e = g.edge(i);
                assert_eq!(s.earliest(e.src) + s.cost(i), s.earliest(e.dst), "edge {i}");
            }
        }
        // The walk ends at time zero, on rank 0's init.
        let last = *from_recv.edges.last().unwrap();
        assert_eq!(s.earliest(g.edge(last).src), 0);
    }

    /// Ranks 0 and 1 each send at 100 into rank 2's one `waitall`: two
    /// tight remote arms of equal arrival. The binding arm is the first;
    /// the chain must step through it (and count its wait), not through
    /// the later edge the message/source/index order alone would pick.
    #[test]
    fn tied_arms_step_back_through_the_binding_arm() {
        let mut g = EventGraph::new(&[3, 3, 2]);
        let e = |src, dst, base, is_message| Edge {
            src,
            dst,
            base,
            class: DeltaClass::None,
            sampled: 0,
            is_message,
        };
        for r in 0..2 {
            for (seq, kind, t0, t1) in [
                (0, "init", 0, 10),
                (1, "compute", 10, 100),
                (2, "send", 100, 110),
            ] {
                g.label(NodeId::start(r, seq), kind, t0);
                g.label(NodeId::end(r, seq), kind, t1);
                if seq > 0 {
                    g.add_edge(e(NodeId::end(r, seq - 1), NodeId::start(r, seq), 0, false));
                }
                g.add_edge(e(
                    NodeId::start(r, seq),
                    NodeId::end(r, seq),
                    t1 - t0,
                    false,
                ));
            }
        }
        g.label(NodeId::start(2, 0), "init", 0);
        g.label(NodeId::end(2, 0), "init", 10);
        g.label(NodeId::start(2, 1), "waitall", 10);
        g.label(NodeId::end(2, 1), "waitall", 115);
        g.add_edge(e(NodeId::start(2, 0), NodeId::end(2, 0), 10, false));
        g.add_edge(e(NodeId::end(2, 0), NodeId::start(2, 1), 0, false));
        g.add_edge(e(NodeId::start(2, 1), NodeId::end(2, 1), 105, false));
        g.add_edge(e(NodeId::start(0, 2), NodeId::end(2, 1), 0, true));
        g.add_edge(e(NodeId::start(1, 2), NodeId::end(2, 1), 0, true));
        let s = SlackSweep::sweep(&g);
        let arm = s.binding_arm(NodeId::end(2, 1)).expect("binding arm");
        assert_eq!(g.edge(arm).src, NodeId::start(0, 2));
        let path = s.static_critical_path(&g).expect("path");
        assert_eq!(path.anchor, NodeId::end(2, 1));
        assert_eq!(path.edges[0], arm);
        assert_eq!(path.wait_cycles, 90);
        assert_eq!(path.ranks_touched, 2);
    }

    #[test]
    fn slack_is_max_absorbable_delay() {
        // Brute-force the slack semantics: adding exactly slack(e) to an
        // edge's cost keeps the makespan; slack(e)+1 grows it by 1.
        let g = late_sender_graph();
        let s = SlackSweep::sweep(&g);
        let resweep = |extra_on: usize, extra: Cycles| -> Cycles {
            let mut earliest: HashMap<NodeId, Cycles> = HashMap::new();
            for (i, e) in g.edges().enumerate() {
                let c = s.cost(i) + if i == extra_on { extra } else { 0 };
                let cand = earliest.get(&e.src).copied().unwrap_or(0) + c;
                let slot = earliest.entry(e.dst).or_insert(0);
                *slot = (*slot).max(cand);
            }
            [NodeId::end(0, 2), NodeId::end(1, 1)]
                .iter()
                .map(|n| earliest.get(n).copied().unwrap_or(0))
                .max()
                .unwrap()
        };
        for i in 0..g.edge_count() {
            let sl = s.slack(i);
            assert_eq!(resweep(i, sl), s.makespan, "edge {i} slack {sl}");
            assert_eq!(resweep(i, sl + 1), s.makespan + 1, "edge {i}");
        }
    }

    #[test]
    fn collective_hub_wait_classifies_members() {
        // Three ranks into a barrier hub; rank 2 arrives last.
        let mut g = EventGraph::new(&[2, 2, 2]);
        let hub = NodeId::hub(0, 1);
        let e = |src, dst, base, is_message| Edge {
            src,
            dst,
            base,
            class: DeltaClass::None,
            sampled: 0,
            is_message,
        };
        for r in 0..3u32 {
            g.label(NodeId::start(r, 0), "init", 0);
            g.label(NodeId::end(r, 0), "init", 10);
            g.add_edge(e(NodeId::start(r, 0), NodeId::end(r, 0), 10, false));
        }
        let entry = [10, 40, 100];
        for r in 0..3u32 {
            let t = entry[r as usize];
            g.label(NodeId::start(r, 1), "barrier", t);
            g.label(NodeId::end(r, 1), "barrier", 105);
            g.add_edge(e(NodeId::end(r, 0), NodeId::start(r, 1), t - 10, false));
        }
        for r in 0..3u32 {
            g.add_edge(e(NodeId::start(r, 1), hub, 0, true));
        }
        for r in 0..3u32 {
            g.add_edge(e(hub, NodeId::end(r, 1), 0, true));
        }
        let s = SlackSweep::sweep(&g);
        assert_eq!(s.retime_mismatches, 0);
        assert_eq!(s.time(hub), Some(100));
        // Waits: hub(100) - entry, clamped into each member's window.
        assert_eq!(s.wait(NodeId::end(0, 1)), 90);
        assert_eq!(s.wait(NodeId::end(1, 1)), 60);
        assert_eq!(s.wait(NodeId::end(2, 1)), 0);
        // Only the last entrant's entry edge is tight.
        let entry_edge = |r: u32| {
            g.edges()
                .position(|e| e.src == NodeId::start(r, 1) && e.dst == hub)
                .unwrap()
        };
        assert!(s.slack(entry_edge(0)) > 0);
        assert!(s.slack(entry_edge(1)) > 0);
        assert_eq!(s.slack(entry_edge(2)), 0);
        // The critical path runs through rank 2's entry.
        let path = s.static_critical_path(&g).expect("path");
        assert!(path.edges.contains(&entry_edge(2)), "{path:?}");
        assert!(!path.edges.contains(&entry_edge(0)));
    }

    #[test]
    fn predictable_classifies_models() {
        assert!(predictable(&PerturbationModel::quiet("q")));
        assert!(predictable(&PerturbationModel::per_message_constant(
            "c", 700.0
        )));
        let mut m = PerturbationModel::quiet("exp");
        m.os_local = Dist::Exponential { mean: 100.0 }.into();
        assert!(!predictable(&m));
        let mut m = PerturbationModel::quiet("quantum");
        m.os_quantum = Some(1000);
        assert!(!predictable(&m));
    }

    #[test]
    fn predicted_graph_stamps_constants() {
        let mut g = EventGraph::new(&[1, 1]);
        g.label(NodeId::start(0, 0), "send", 0);
        g.label(NodeId::end(1, 0), "recv", 50);
        g.add_edge(Edge {
            src: NodeId::start(0, 0),
            dst: NodeId::end(1, 0),
            base: 0,
            class: DeltaClass::MessagePath { bytes: 64 },
            sampled: 0,
            is_message: true,
        });
        let m = PerturbationModel::per_message_constant("c", 700.0);
        let p = predicted_graph(&g, &m).expect("predictable");
        assert_eq!(p.edge(0).sampled, 700);
        assert_eq!(p.node_count(), 2);
        // Unpredictable model refuses.
        let mut bad = PerturbationModel::quiet("n");
        bad.latency = Dist::Normal {
            mean: 10.0,
            std_dev: 1.0,
        }
        .into();
        assert!(predicted_graph(&g, &bad).is_none());
    }

    /// A collective edge may carry any round count the MPGA decoder
    /// accepts. Under a constant model its delta is one round's times the
    /// count, drawn once: `u32::MAX` rounds predict in well under a
    /// second, even in a debug build.
    #[test]
    fn predicted_graph_prices_a_huge_round_count_at_once() {
        let mut g = EventGraph::new(&[1, 1]);
        g.label(NodeId::end(0, 0), "allreduce", 10);
        g.label(NodeId::end(1, 0), "allreduce", 10);
        g.add_edge(Edge {
            src: NodeId::end(0, 0),
            dst: NodeId::end(1, 0),
            base: 0,
            class: DeltaClass::CollectiveRounds {
                rounds: u32::MAX,
                bytes: 8,
            },
            sampled: 0,
            is_message: false,
        });
        let m = PerturbationModel::per_message_constant("c", 700.0);
        let started = std::time::Instant::now();
        let p = predicted_graph(&g, &m).expect("predictable");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(p.edge(0).sampled, 700 * Drift::from(u32::MAX));
    }

    #[test]
    fn drift_slack_zero_on_binding_chain() {
        let mut g = EventGraph::new(&[1, 2]);
        g.label(NodeId::end(0, 0), "compute", 10);
        g.label(NodeId::end(1, 1), "recv", 50);
        let e = |src, dst, sampled| Edge {
            src,
            dst,
            base: 0,
            class: DeltaClass::Lambda,
            sampled,
            is_message: true,
        };
        // Two arms into the final node: one drifted 100, one 30.
        g.add_edge(e(NodeId::end(0, 0), NodeId::end(1, 1), 100));
        g.add_edge(e(NodeId::start(1, 0), NodeId::end(1, 1), 30));
        let ds = drift_slack(&g).expect("drift accumulated");
        assert_eq!(ds.anchor_drift, 100);
        assert_eq!(ds.slack[0], Some(0));
        assert_eq!(ds.slack[1], Some(70));
    }
}
