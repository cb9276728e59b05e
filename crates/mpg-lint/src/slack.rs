//! Slack-chain extraction: the static critical path and its runners-up.
//!
//! The zero-drift sweep ([`SlackSweep`]) assigns every edge a slack; the
//! zero-slack edges form the static critical network. This pass walks one
//! tight chain back from each rank's final subevent, ranks the chains by
//! finish time (the longest is *the* critical path), and reports
//! `MPG-SERIAL-CHAIN` when that path serializes through many ranks with
//! most of the makespan spent in wait states — the signature of a
//! chain-dominated (pipeline/token-passing) run whose scaling is bounded
//! by a dependence chain rather than by compute.
//!
//! Chains are also the sweep-targeting hint the paper's §4.2 asks for:
//! [`SlackSweep::perturbable_edges`] counts how many edges a perturbation
//! of a given magnitude could even reach, so a replay sweep can skip
//! configurations whose deltas are everywhere absorbable.

use mpg_core::{Cycles, EventGraph, SlackSweep};
use mpg_trace::{Diagnostic, Rule};

use crate::waitstate::{PerfReport, PerfThresholds};

/// Compact description of one tight chain (see
/// [`StaticPath`](mpg_core::StaticPath); this summary is what reports and
/// JSON carry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSummary {
    /// Rank whose final subevent anchors the chain.
    pub rank: u32,
    /// The anchor's earliest feasible (== observed) finish time.
    pub finish: Cycles,
    /// Number of edges on the chain.
    pub steps: usize,
    /// How many of them are message edges (cross-rank or hub).
    pub message_hops: usize,
    /// Distinct non-hub ranks the chain traverses.
    pub ranks_touched: usize,
    /// Wait-state cycles absorbed along the chain (summed where the chain
    /// enters a node through its binding arm).
    pub wait_cycles: Cycles,
}

/// Walks one tight chain back from each rank's final end subevent and
/// returns the summaries sorted by finish time, longest first — so index
/// 0 describes the static critical path of the whole run.
pub fn rank_chains(graph: &EventGraph, sweep: &SlackSweep) -> Vec<ChainSummary> {
    let arena = graph.arena();
    let mut chains: Vec<ChainSummary> = (0..graph.num_ranks())
        .filter_map(|r| arena.last_end(r))
        .map(|i| {
            let anchor = arena.node_id(i);
            let path = sweep.chain_from(graph, anchor);
            ChainSummary {
                rank: anchor.rank,
                finish: path.finish,
                steps: path.edges.len(),
                message_hops: path.message_hops,
                ranks_touched: path.ranks_touched,
                wait_cycles: path.wait_cycles,
            }
        })
        .collect();
    chains.sort_by(|a, b| b.finish.cmp(&a.finish).then_with(|| a.rank.cmp(&b.rank)));
    chains
}

/// `MPG-SERIAL-CHAIN`: fires when the static critical path serializes
/// through at least `thresholds.serial_ranks` distinct ranks and its wait
/// states account for at least `thresholds.serial_wait_frac` of the
/// makespan. Advisory, like the other performance rules.
pub fn lint_chains(report: &PerfReport, thresholds: &PerfThresholds) -> Vec<Diagnostic> {
    let Some(main) = report.chains.first() else {
        return Vec::new();
    };
    if main.ranks_touched < thresholds.serial_ranks
        || (main.wait_cycles as f64) < thresholds.serial_wait_frac * report.makespan as f64
        || main.wait_cycles < thresholds.min_cycles
    {
        return Vec::new();
    }
    vec![Diagnostic::new(
        Rule::SerialChain,
        format!(
            "critical path serializes through {} ranks over {} message hops; \
             its wait states total {} cycles against a {}-cycle makespan \
             (blocked intervals on different ranks overlap in time)",
            main.ranks_touched, main.message_hops, main.wait_cycles, report.makespan
        ),
    )
    .involving([main.rank])]
}
