//! Wait-state classification: where does the time go?
//!
//! Scalasca-style post-mortem analysis over a quiet-recorded
//! [`EventGraph`]: every cycle of every rank's run is attributed to
//! exactly one bucket — compute, transfer, or one of the five
//! [`WaitClass`]es — and the decomposition is *exact*:
//!
//! ```text
//! compute + transfer + Σ waits  ==  makespan × ranks
//! ```
//!
//! The identity holds by telescoping (each rank's gaps, event windows and
//! exit tail tile its `[0, makespan]` interval) and is asserted by
//! [`PerfReport::identity_holds`]; `mpgtool analyze` refuses to print a
//! report that violates it.
//!
//! Classification rides on the zero-drift slack sweep
//! ([`SlackSweep`]): a blocking operation's wait
//! interval is the part of its window spent blocked on its latest
//! incoming message arm, and the *class* of that arm names the culprit —
//! a message-path arm is a late **sender**, an acknowledgement arm a late
//! **receiver**, a collective hub arm either a single late rank
//! ([`WaitClass::WaitAtCollective`], with the root cause identified) or
//! diffuse entry imbalance ([`WaitClass::ImbalanceAtCollective`]).

use std::collections::HashMap;

use mpg_core::arena::NO_NODE;
use mpg_core::{Cycles, DeltaClass, EventGraph, NodeId, NodeIdx, SlackSweep};
use mpg_trace::{Diagnostic, EventKind, MemTrace, Rule, Tag};

use crate::slack::ChainSummary;

/// Why a rank was blocked, per the standard wait-state taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitClass {
    /// A receive (or receive-completing wait) posted before its message
    /// was sent: time blocked on the sender.
    LateSender,
    /// A synchronous send blocked past its payload transfer because the
    /// receiver had not arrived: time blocked on the acknowledgement.
    LateReceiver,
    /// Blocked in a collective whose cost is dominated by one late rank.
    WaitAtCollective,
    /// Blocked in a collective whose entry times are diffusely spread —
    /// no single rank explains the cost.
    ImbalanceAtCollective,
    /// Time between a rank's last event and the global makespan (ranks
    /// that finish early idle here; a crashed rank idles its whole tail).
    ExitSkew,
}

impl WaitClass {
    /// Every class, in reporting order (also the index order of the
    /// per-class arrays in [`PerfReport`]).
    pub const ALL: [WaitClass; 5] = [
        WaitClass::LateSender,
        WaitClass::LateReceiver,
        WaitClass::WaitAtCollective,
        WaitClass::ImbalanceAtCollective,
        WaitClass::ExitSkew,
    ];

    /// Stable snake_case label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            WaitClass::LateSender => "late_sender",
            WaitClass::LateReceiver => "late_receiver",
            WaitClass::WaitAtCollective => "wait_at_collective",
            WaitClass::ImbalanceAtCollective => "imbalance_at_collective",
            WaitClass::ExitSkew => "exit_skew",
        }
    }

    /// Index into the `[Cycles; 5]` per-class arrays.
    pub fn idx(self) -> usize {
        match self {
            WaitClass::LateSender => 0,
            WaitClass::LateReceiver => 1,
            WaitClass::WaitAtCollective => 2,
            WaitClass::ImbalanceAtCollective => 3,
            WaitClass::ExitSkew => 4,
        }
    }
}

/// One classified wait interval: a blocking operation that spent part of
/// its window blocked on a remote cause.
#[derive(Debug, Clone)]
pub struct WaitInterval {
    /// Rank that waited.
    pub rank: u32,
    /// Sequence number of the blocked event.
    pub seq: u64,
    /// Operation name (the event kind's stable label).
    pub op: &'static str,
    /// Message tag, when the blocked operation carries one (blocking
    /// point-to-point only; wait-family completions have no tag).
    pub tag: Option<Tag>,
    /// Why the rank was blocked.
    pub class: WaitClass,
    /// The rank that caused the wait (sender, receiver, or the last rank
    /// into a collective).
    pub cause: Option<u32>,
    /// Cycles spent blocked.
    pub wait: Cycles,
    /// The operation's full window (wait + transfer residue).
    pub window: Cycles,
    /// Whether the binding arm behind this wait has zero slack — i.e. the
    /// wait sits on the static critical path and shortening it shortens
    /// the run.
    pub on_critical: bool,
}

/// Per-collective-instance wait summary used for the imbalance split and
/// the `MPG-COLLECTIVE-IMBALANCE` rule.
#[derive(Debug, Clone)]
pub struct CollectiveWait {
    /// Operation name (barrier, allreduce, …).
    pub op: &'static str,
    /// `(rank, seq)` of the last rank into the hub — the root cause.
    pub cause: (u32, u64),
    /// Participating ranks.
    pub members: usize,
    /// Σ member wait intervals.
    pub total_wait: Cycles,
    /// Σ member windows (for thresholding the rule).
    pub window_total: Cycles,
    /// Cycles the instance would save if the latest rank entered at the
    /// second-latest rank's time — the single-culprit share of the wait.
    pub saved: Cycles,
    /// True when `saved` explains at least half of `total_wait`: the
    /// members' waits are classified [`WaitClass::WaitAtCollective`];
    /// otherwise [`WaitClass::ImbalanceAtCollective`].
    pub dominated: bool,
}

/// One rank's exact time decomposition.
#[derive(Debug, Clone)]
pub struct RankBreakdown {
    /// The rank.
    pub rank: u32,
    /// Gaps between events plus Init/Finalize/Compute windows.
    pub compute: Cycles,
    /// Communication windows minus their wait intervals.
    pub transfer: Cycles,
    /// Wait cycles per class (indexed by [`WaitClass::idx`]).
    pub wait: [Cycles; 5],
}

impl RankBreakdown {
    /// Total wait cycles across all classes.
    pub fn wait_total(&self) -> Cycles {
        self.wait.iter().sum()
    }
}

/// Wait cycles aggregated under one key (a tag or an operation name).
#[derive(Debug, Clone)]
pub struct KeyedWait {
    /// The aggregation key.
    pub key: String,
    /// Number of wait intervals aggregated.
    pub count: usize,
    /// Σ wait cycles.
    pub wait: Cycles,
}

/// The full static performance report of one trace.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Number of ranks.
    pub ranks: usize,
    /// Re-timed span of the run: max over ranks of (last end − first
    /// start) in each rank's own clock.
    pub makespan: Cycles,
    /// Σ compute cycles (gaps + local windows) across ranks.
    pub compute: Cycles,
    /// Σ transfer cycles (communication windows minus waits).
    pub transfer: Cycles,
    /// Σ wait cycles per class (indexed by [`WaitClass::idx`]).
    pub wait: [Cycles; 5],
    /// Per-rank decomposition.
    pub per_rank: Vec<RankBreakdown>,
    /// Every classified wait interval (sorted by rank, then seq).
    pub waits: Vec<WaitInterval>,
    /// Per-collective-instance summaries, in graph order.
    pub collectives: Vec<CollectiveWait>,
    /// Wait cycles aggregated by message tag (tagged p2p waits only).
    pub by_tag: Vec<KeyedWait>,
    /// Wait cycles aggregated by operation name.
    pub by_op: Vec<KeyedWait>,
    /// Tight chains walked back from each rank's final node, longest
    /// finish first (index 0 is the static critical path).
    pub chains: Vec<ChainSummary>,
    /// Edges with zero slack (the static critical network).
    pub zero_slack_edges: usize,
    /// Total edges in the recorded graph.
    pub edge_count: usize,
    /// Cross-rank causality violations clamped by the sweep (nonzero ⇒
    /// the trace clocks disagree with message order; see DESIGN.md §11).
    pub causality_clamps: usize,
    /// Nodes whose forward-sweep time disagreed with the observed time.
    pub retime_mismatches: usize,
}

impl PerfReport {
    /// Total wait cycles across all classes and ranks.
    pub fn wait_total(&self) -> Cycles {
        self.wait.iter().sum()
    }

    /// Cycles spent doing useful work (compute + transfer).
    pub fn busy(&self) -> Cycles {
        self.compute + self.transfer
    }

    /// The exact accounting identity:
    /// `compute + transfer + Σ waits == makespan × ranks`.
    pub fn identity_holds(&self) -> bool {
        self.busy() + self.wait_total() == self.makespan * self.ranks as Cycles
    }

    /// Share of total rank-time spent busy, in `[0, 1]`.
    pub fn efficiency(&self) -> f64 {
        let total = self.makespan * self.ranks as Cycles;
        if total == 0 {
            return 1.0;
        }
        self.busy() as f64 / total as f64
    }

    /// Critical-path imbalance: share of total rank-time lost to waits
    /// (`1 − efficiency`); 0 for a perfectly packed run.
    pub fn imbalance(&self) -> f64 {
        1.0 - self.efficiency()
    }

    /// Renders the report as one JSON object (hand-rolled, like the
    /// diagnostic path; the workspace takes no serialization dependency).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"ranks\":{},\"makespan\":{},\"compute\":{},\"transfer\":{}",
            self.ranks, self.makespan, self.compute, self.transfer
        );
        s.push_str(",\"wait\":{");
        for (i, class) in WaitClass::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", class.label(), self.wait[class.idx()]);
        }
        let _ = write!(
            s,
            "}},\"wait_total\":{},\"identity_holds\":{},\"efficiency\":{:.6},\"imbalance\":{:.6}",
            self.wait_total(),
            self.identity_holds(),
            self.efficiency(),
            self.imbalance()
        );
        let _ = write!(
            s,
            ",\"zero_slack_edges\":{},\"edge_count\":{},\"causality_clamps\":{},\"retime_mismatches\":{}",
            self.zero_slack_edges, self.edge_count, self.causality_clamps, self.retime_mismatches
        );
        s.push_str(",\"per_rank\":[");
        for (i, r) in self.per_rank.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"rank\":{},\"compute\":{},\"transfer\":{},\"wait\":{}}}",
                r.rank,
                r.compute,
                r.transfer,
                r.wait_total()
            );
        }
        s.push_str("],\"by_tag\":[");
        for (i, k) in self.by_tag.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"tag\":\"{}\",\"count\":{},\"wait\":{}}}",
                k.key, k.count, k.wait
            );
        }
        s.push_str("],\"by_op\":[");
        for (i, k) in self.by_op.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"op\":\"{}\",\"count\":{},\"wait\":{}}}",
                k.key, k.count, k.wait
            );
        }
        s.push_str("],\"collectives\":[");
        for (i, c) in self.collectives.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"op\":\"{}\",\"members\":{},\"total_wait\":{},\"saved\":{},\"cause_rank\":{},\"dominated\":{}}}",
                c.op, c.members, c.total_wait, c.saved, c.cause.0, c.dominated
            );
        }
        s.push_str("],\"chains\":[");
        for (i, c) in self.chains.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"rank\":{},\"finish\":{},\"steps\":{},\"message_hops\":{},\"ranks_touched\":{},\"wait_cycles\":{}}}",
                c.rank, c.finish, c.steps, c.message_hops, c.ranks_touched, c.wait_cycles
            );
        }
        s.push_str("]}");
        s
    }
}

/// Thresholds gating the performance lint rules. The defaults are
/// conservative: a wait must consume a quarter of its window *and* at
/// least `min_cycles` before it is worth a finding.
#[derive(Debug, Clone)]
pub struct PerfThresholds {
    /// A wait must be at least this fraction of its window (or a
    /// collective's total wait this fraction of its window sum).
    pub wait_frac: f64,
    /// …and at least this many cycles (filters trivia on tiny traces).
    pub min_cycles: Cycles,
    /// `MPG-SERIAL-CHAIN`: the critical path must serialize through at
    /// least this many distinct ranks…
    pub serial_ranks: usize,
    /// …with at least this fraction of the makespan spent in chain waits.
    pub serial_wait_frac: f64,
}

impl Default for PerfThresholds {
    fn default() -> Self {
        PerfThresholds {
            wait_frac: 0.25,
            min_cycles: 10_000,
            serial_ranks: 4,
            serial_wait_frac: 0.5,
        }
    }
}

fn tag_of(kind: &EventKind) -> Option<Tag> {
    match kind {
        EventKind::Send { tag, .. }
        | EventKind::Recv { tag, .. }
        | EventKind::Isend { tag, .. }
        | EventKind::Irecv { tag, .. } => Some(*tag),
        _ => None,
    }
}

/// Classifies every wait interval in a quiet-recorded graph and decomposes
/// the whole run into compute / transfer / wait buckets.
///
/// `trace` must be the trace `graph` was recorded from (the trace supplies
/// event windows and gaps; the graph supplies arm structure and the slack
/// sweep). The decomposition tiles each rank's `[0, makespan]` exactly —
/// see [`PerfReport::identity_holds`].
pub fn analyze_graph(trace: &MemTrace, graph: &EventGraph) -> PerfReport {
    let sweep = SlackSweep::sweep(graph);

    // ---- collective instances: dominance split ----------------------------
    // Entries: src → hub edges; members: hub → end edges. The latest
    // entrant is the root cause; `saved` is what would be reclaimed if it
    // entered at the second-latest time.
    // Grouped through a slot per hub ordinal, in order of each hub's first
    // edge — the order the findings are reported in.
    struct HubEdges {
        hub: NodeIdx,
        entries: Vec<NodeIdx>,
        members: Vec<NodeIdx>,
        /// Classification of every member's wait, and the causing rank.
        class: Option<(WaitClass, u32)>,
    }
    let arena = graph.arena();
    let mut hub_slot = vec![NO_NODE; arena.num_hubs()];
    let slot_of = |hub: NodeIdx| arena.hub_ordinal(hub).expect("a hub node");
    let mut hubs: Vec<HubEdges> = Vec::new();
    for e in 0..arena.num_edges() {
        let (src, dst) = (arena.edge_src(e), arena.edge_dst(e));
        let (hub, entering) = match (arena.is_hub(src), arena.is_hub(dst)) {
            (false, true) => (dst, true),
            (true, false) => (src, false),
            _ => continue,
        };
        let slot = &mut hub_slot[slot_of(hub)];
        if *slot == NO_NODE {
            *slot = hubs.len() as NodeIdx;
            hubs.push(HubEdges {
                hub,
                entries: Vec::new(),
                members: Vec::new(),
                class: None,
            });
        }
        let edges = &mut hubs[*slot as usize];
        if entering {
            edges.entries.push(src);
        } else {
            edges.members.push(dst);
        }
    }
    let mut collectives = Vec::new();
    for edges in &mut hubs {
        let (entries, members) = (&edges.entries, &edges.members);
        let hub_t = sweep.time(arena.node_id(edges.hub)).unwrap_or(0);
        // Latest entrant (first wins on ties — entry edges are emitted in
        // rank order, so ties resolve to the lowest rank).
        let mut latest: Option<(NodeId, Cycles)> = None;
        let mut second = 0;
        for src in entries.iter().map(|&i| arena.node_id(i)) {
            let t = sweep.time(src).unwrap_or(0);
            match latest {
                None => latest = Some((src, t)),
                Some((_, lt)) if t > lt => {
                    second = lt;
                    latest = Some((src, t));
                }
                Some(_) => second = second.max(t),
            }
        }
        let Some((cause_node, _)) = latest else {
            continue;
        };
        // Sums saturate: a graph decoded from a forged artifact may carry
        // any label time.
        let mut total_wait: Cycles = 0;
        let mut window_total: Cycles = 0;
        let mut saved: Cycles = 0;
        let mut op = "collective";
        for &mi in members {
            let m = arena.node_id(mi);
            let w = sweep.wait(m);
            total_wait = total_wait.saturating_add(w);
            let start = NodeId::start(m.rank, m.seq);
            if let (Some(s), Some(t)) = (sweep.time(start), sweep.time(m)) {
                window_total = window_total.saturating_add(t.saturating_sub(s));
            }
            saved = saved.saturating_add(w.min(hub_t.saturating_sub(second)));
            if let Some(label) = arena.label_of(mi) {
                op = label.kind;
            }
        }
        let dominated =
            entries.len() >= 2 && saved.saturating_mul(2) >= total_wait && total_wait > 0;
        let class = if dominated {
            WaitClass::WaitAtCollective
        } else {
            WaitClass::ImbalanceAtCollective
        };
        edges.class = Some((class, cause_node.rank));
        collectives.push(CollectiveWait {
            op,
            cause: (cause_node.rank, cause_node.seq),
            members: members.len(),
            total_wait,
            window_total,
            saved,
            dominated,
        });
    }

    // ---- classification of p2p waits --------------------------------------
    // The binding arm's class names the culprit.
    let classify = |end: NodeId| -> Option<(WaitClass, Option<u32>, bool)> {
        let arm = sweep.binding_arm(end)?;
        let e = graph.edge(arm);
        let on_critical = sweep.slack(arm) == 0;
        if e.src.hub {
            // Decided at the instance level, for all members alike.
            let hub = hub_slot[slot_of(arena.edge_src(arm))];
            let (class, cause) = hubs[hub as usize].class?;
            return Some((class, Some(cause), on_critical));
        }
        let class = match e.class {
            DeltaClass::Lambda => WaitClass::LateReceiver,
            _ => WaitClass::LateSender,
        };
        Some((class, Some(e.src.rank), on_critical))
    };

    // ---- exact per-rank decomposition (telescoping walk) ------------------
    // Each rank's [0, makespan] tiles into: gaps between events (compute),
    // event windows (split wait / residue), and the exit tail (ExitSkew).
    // The makespan here is the trace-walk one so the identity holds even
    // on traces whose clocks violate causality.
    let ranks = trace.num_ranks();
    let mut spans: Vec<Cycles> = Vec::with_capacity(ranks);
    for r in 0..ranks {
        let evs = trace.rank(r);
        let span = match (evs.first(), evs.last()) {
            (Some(first), Some(last)) => last.t_end - first.t_start,
            _ => 0,
        };
        spans.push(span);
    }
    let makespan = spans.iter().copied().max().unwrap_or(0);

    let mut per_rank = Vec::with_capacity(ranks);
    let mut waits = Vec::new();
    let mut compute_total = 0;
    let mut transfer_total = 0;
    let mut wait_total = [0; 5];
    let mut by_tag: HashMap<Tag, (usize, Cycles)> = HashMap::new();
    let mut by_op: HashMap<&'static str, (usize, Cycles)> = HashMap::new();
    for (r, &span) in spans.iter().enumerate() {
        let evs = trace.rank(r);
        let mut row = RankBreakdown {
            rank: r as u32,
            compute: 0,
            transfer: 0,
            wait: [0; 5],
        };
        let mut prev_end: Option<Cycles> = None;
        for ev in evs {
            if let Some(p) = prev_end {
                row.compute += ev.t_start.saturating_sub(p);
            }
            prev_end = Some(ev.t_end);
            let dur = ev.duration();
            let end = NodeId::end(ev.rank, ev.seq);
            let w = sweep.wait(end);
            let classified = if w > 0 { classify(end) } else { None };
            match classified {
                Some((class, cause, on_critical)) => {
                    row.wait[class.idx()] += w;
                    // `w` fits the graph's window of this event, which is
                    // the trace's own unless the graph came from elsewhere.
                    let residue = dur.saturating_sub(w);
                    if ev.kind.is_communication() {
                        row.transfer += residue;
                    } else {
                        row.compute += residue;
                    }
                    let tag = tag_of(&ev.kind);
                    if let Some(t) = tag {
                        let slot = by_tag.entry(t).or_insert((0, 0));
                        slot.0 += 1;
                        slot.1 += w;
                    }
                    let slot = by_op.entry(ev.kind.name()).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += w;
                    waits.push(WaitInterval {
                        rank: ev.rank,
                        seq: ev.seq,
                        op: ev.kind.name(),
                        tag,
                        class,
                        cause,
                        wait: w,
                        window: dur,
                        on_critical,
                    });
                }
                None => {
                    if ev.kind.is_communication() {
                        row.transfer += dur;
                    } else {
                        row.compute += dur;
                    }
                }
            }
        }
        // Exit tail: from the rank's last event to the makespan. An empty
        // rank idles the whole run.
        row.wait[WaitClass::ExitSkew.idx()] += makespan - span;
        compute_total += row.compute;
        transfer_total += row.transfer;
        for (acc, w) in wait_total.iter_mut().zip(row.wait.iter()) {
            *acc += w;
        }
        per_rank.push(row);
    }

    let mut by_tag: Vec<KeyedWait> = by_tag
        .into_iter()
        .map(|(tag, (count, wait))| KeyedWait {
            key: tag.to_string(),
            count,
            wait,
        })
        .collect();
    by_tag.sort_by(|a, b| b.wait.cmp(&a.wait).then_with(|| a.key.cmp(&b.key)));
    let mut by_op: Vec<KeyedWait> = by_op
        .into_iter()
        .map(|(op, (count, wait))| KeyedWait {
            key: op.to_string(),
            count,
            wait,
        })
        .collect();
    by_op.sort_by(|a, b| b.wait.cmp(&a.wait).then_with(|| a.key.cmp(&b.key)));

    let chains = crate::slack::rank_chains(graph, &sweep);

    PerfReport {
        ranks,
        makespan,
        compute: compute_total,
        transfer: transfer_total,
        wait: wait_total,
        per_rank,
        waits,
        collectives,
        by_tag,
        by_op,
        chains,
        zero_slack_edges: sweep.zero_slack_edges(),
        edge_count: graph.edge_count(),
        causality_clamps: sweep.causality_clamps,
        retime_mismatches: sweep.retime_mismatches,
    }
}

/// Threshold-gated wait-state rules: `MPG-LATE-SENDER` for critical-path
/// late-sender waits, `MPG-COLLECTIVE-IMBALANCE` for wait-dominated
/// collectives. Both are advisory ([`Severity::Info`](mpg_trace::Severity))
/// — a slow run is not a defective run — but participate in the `--deny`
/// escalation contract like every other rule.
pub fn lint_waitstates(report: &PerfReport, thresholds: &PerfThresholds) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for w in &report.waits {
        if w.class != WaitClass::LateSender || !w.on_critical {
            continue;
        }
        if w.wait < thresholds.min_cycles
            || (w.wait as f64) < thresholds.wait_frac * w.window as f64
        {
            continue;
        }
        let cause = w.cause.unwrap_or(w.rank);
        let mut d = Diagnostic::new(
            Rule::LateSender,
            format!(
                "{} blocked {} of {} cycles on late sender rank {} (zero-slack arm: shortening this wait shortens the run)",
                w.op, w.wait, w.window, cause
            ),
        )
        .at(w.rank, w.seq);
        d = d.involving([cause]);
        diags.push(d);
    }
    for c in &report.collectives {
        if c.total_wait < thresholds.min_cycles
            || (c.total_wait as f64) < thresholds.wait_frac * c.window_total as f64
        {
            continue;
        }
        let msg = if c.dominated {
            format!(
                "{} over {} ranks wasted {} cycles waiting; rank {}'s late entry explains {} of them",
                c.op, c.members, c.total_wait, c.cause.0, c.saved
            )
        } else {
            format!(
                "{} over {} ranks wasted {} cycles to diffuse entry imbalance (no single rank dominates)",
                c.op, c.members, c.total_wait
            )
        };
        diags.push(Diagnostic::new(Rule::CollectiveImbalance, msg).at(c.cause.0, c.cause.1));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_core::{PerturbationModel, ReplayConfig, Replayer};
    use mpg_noise::PlatformSignature;
    use mpg_sim::Simulation;

    fn record(p: u32, f: impl Fn(&mut mpg_sim::RankCtx) + Sync) -> (MemTrace, EventGraph) {
        let trace = Simulation::new(p, PlatformSignature::quiet("t"))
            .ideal_clocks()
            .run(f)
            .unwrap()
            .trace;
        let cfg = ReplayConfig::new(PerturbationModel::quiet("q"))
            .seed(0)
            .record_graph(true);
        let graph = Replayer::new(cfg).run(&trace).unwrap().graph.unwrap();
        (trace, graph)
    }

    fn assert_identity(r: &PerfReport) {
        assert!(
            r.identity_holds(),
            "busy {} + waits {} != makespan {} x ranks {}",
            r.busy(),
            r.wait_total(),
            r.makespan,
            r.ranks
        );
    }

    #[test]
    fn late_sender_classified_with_cause() {
        let (trace, graph) = record(2, |ctx| match ctx.rank() {
            0 => {
                ctx.compute(100_000);
                ctx.send(1, 7, 64);
            }
            _ => {
                ctx.recv(0, 7);
            }
        });
        let report = analyze_graph(&trace, &graph);
        assert_identity(&report);
        let ls = report.wait[WaitClass::LateSender.idx()];
        assert!(ls > 50_000, "late-sender wait {ls}");
        let w = report
            .waits
            .iter()
            .find(|w| w.class == WaitClass::LateSender)
            .expect("late-sender interval");
        assert_eq!(w.rank, 1);
        assert_eq!(w.cause, Some(0));
        assert_eq!(w.tag, Some(7));
        assert!(w.on_critical);
        // The tag aggregation sees it.
        assert_eq!(report.by_tag[0].key, "7");
        assert!(report.by_tag[0].wait >= w.wait);
        // And the rule fires under default thresholds.
        let diags = lint_waitstates(&report, &PerfThresholds::default());
        assert!(
            diags.iter().any(|d| d.rule == Rule::LateSender),
            "{diags:?}"
        );
    }

    #[test]
    fn late_receiver_classified_on_sync_send() {
        let (trace, graph) = record(2, |ctx| match ctx.rank() {
            0 => {
                ctx.ssend(1, 0, 1 << 16);
            }
            _ => {
                ctx.compute(100_000);
                ctx.recv(0, 0);
            }
        });
        let report = analyze_graph(&trace, &graph);
        assert_identity(&report);
        let lr = report.wait[WaitClass::LateReceiver.idx()];
        assert!(lr > 50_000, "late-receiver wait {lr}: {:?}", report.waits);
        let w = report
            .waits
            .iter()
            .find(|w| w.class == WaitClass::LateReceiver)
            .expect("late-receiver interval");
        assert_eq!(w.rank, 0);
        assert_eq!(w.cause, Some(1));
    }

    #[test]
    fn dominated_collective_names_root_cause() {
        let (trace, graph) = record(4, |ctx| {
            if ctx.rank() == 3 {
                ctx.compute(200_000);
            } else {
                ctx.compute(1_000);
            }
            ctx.barrier();
        });
        let report = analyze_graph(&trace, &graph);
        assert_identity(&report);
        assert!(report.wait[WaitClass::WaitAtCollective.idx()] > 100_000);
        assert_eq!(report.wait[WaitClass::ImbalanceAtCollective.idx()], 0);
        let c = report.collectives.iter().find(|c| c.dominated).unwrap();
        assert_eq!(c.cause.0, 3);
        assert_eq!(c.members, 4);
        let diags = lint_waitstates(&report, &PerfThresholds::default());
        assert!(
            diags.iter().any(|d| d.rule == Rule::CollectiveImbalance),
            "{diags:?}"
        );
    }

    #[test]
    fn spread_collective_is_imbalance() {
        let (trace, graph) = record(4, |ctx| {
            ctx.compute([1_000, 100_000, 199_000, 200_000][ctx.rank() as usize]);
            ctx.barrier();
        });
        let report = analyze_graph(&trace, &graph);
        assert_identity(&report);
        // The two latest entrants nearly tie: removing the latest rank's
        // lateness saves only the 1k gap to the second-latest, far under
        // half of the total wait — diffuse imbalance.
        assert!(report.wait[WaitClass::ImbalanceAtCollective.idx()] > 0);
        let c = &report.collectives[0];
        assert!(!c.dominated, "{c:?}");
    }

    #[test]
    fn exit_skew_accounts_for_early_finishers() {
        let (trace, graph) = record(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.compute(100_000);
            }
        });
        let report = analyze_graph(&trace, &graph);
        assert_identity(&report);
        // Rank 1 finishes ~100k cycles early and idles to the makespan.
        assert!(report.wait[WaitClass::ExitSkew.idx()] > 50_000);
        assert!(report.per_rank[1].wait[WaitClass::ExitSkew.idx()] > 50_000);
        assert_eq!(report.per_rank[0].wait[WaitClass::ExitSkew.idx()], 0);
    }

    #[test]
    fn report_json_is_wellformed() {
        let (trace, graph) = record(2, |ctx| match ctx.rank() {
            0 => {
                ctx.compute(100_000);
                ctx.send(1, 7, 64);
            }
            _ => {
                ctx.recv(0, 7);
            }
        });
        let report = analyze_graph(&trace, &graph);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"identity_holds\":true"), "{json}");
        assert!(json.contains("\"late_sender\":"), "{json}");
        assert!(json.contains("\"chains\":["), "{json}");
        // Balanced braces/brackets (no serializer to lean on).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }
}
