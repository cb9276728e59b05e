//! Critical-path extraction from a recorded message-passing graph.
//!
//! §4.2 closes with the goal of locating *where* a program is sensitive:
//! beyond per-rank totals, the binding chain of `max()` arms — the path
//! along which injected perturbation actually reached the final node — is
//! the precise answer. Walking the recorded graph backwards from the most
//! drifted finalize, always following the arm that produced each node's
//! drift, yields that chain.

use crate::graph::{Edge, EventGraph};
use crate::perturb::DeltaClass;
use crate::Drift;

/// One step of the critical path (in reverse-walk order: sink first).
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    /// The edge whose arm bound the sink's drift.
    pub edge: Edge,
    /// Drift at the edge's sink.
    pub drift_at_dst: Drift,
}

/// Aggregate description of a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The rank whose final node anchors the path.
    pub rank: u32,
    /// Final drift being explained.
    pub final_drift: Drift,
    /// Steps from the final node back to the first zero-drift node.
    pub steps: Vec<CriticalStep>,
    /// Injected delta along the path attributed to local (OS) edges.
    pub local_contribution: Drift,
    /// Injected delta along the path attributed to message edges.
    pub message_contribution: Drift,
    /// Injected delta along the path attributed to collective edges.
    pub collective_contribution: Drift,
    /// How many distinct ranks the path traverses.
    pub ranks_touched: usize,
}

impl CriticalPath {
    /// Builds a path from its walked steps, deriving every aggregate —
    /// per-class contributions and `ranks_touched` — from the steps plus
    /// the anchor rank. Centralizing the derivation here guarantees the
    /// anchor rank is always counted: a zero-step path (all drift injected
    /// at the final node itself) still touches one rank.
    pub fn from_steps(rank: u32, final_drift: Drift, steps: Vec<CriticalStep>) -> Self {
        let mut local = 0;
        let mut message = 0;
        let mut collective = 0;
        let mut ranks = std::collections::BTreeSet::new();
        ranks.insert(rank);
        for step in &steps {
            let e = &step.edge;
            match e.class {
                DeltaClass::None => {}
                DeltaClass::OsLocal | DeltaClass::OsRemote => local += e.sampled,
                DeltaClass::Lambda
                | DeltaClass::Transfer { .. }
                | DeltaClass::MessagePath { .. } => message += e.sampled,
                DeltaClass::CollectiveRounds { .. } => collective += e.sampled,
            }
            ranks.insert(e.src.rank);
        }
        Self {
            rank,
            final_drift,
            steps,
            local_contribution: local,
            message_contribution: message,
            collective_contribution: collective,
            ranks_touched: ranks.len(),
        }
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "rank {} drift {} over {} steps ({} ranks): local {}, message {}, collective {}",
            self.rank,
            self.final_drift,
            self.steps.len(),
            self.ranks_touched,
            self.local_contribution,
            self.message_contribution,
            self.collective_contribution
        )
    }
}

/// Extracts the critical path explaining the largest final drift in a
/// recorded graph. Returns `None` when no drift was accumulated (identity
/// replay) or the graph is empty.
pub fn critical_path(graph: &EventGraph) -> Option<CriticalPath> {
    let drifts = graph.propagate();
    // Anchor: the maximally drifted final end node.
    let finals = graph.final_drifts();
    let (rank, &final_drift) = finals
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .map(|(r, d)| (r as u32, d))?;
    if final_drift <= 0 {
        return None;
    }
    // Start at that rank's last labeled end node.
    let arena = graph.arena();
    let mut current = arena.last_end(rank as usize)?;

    // Reverse adjacency straight from the arena — no per-pass map.
    let incoming = arena.incoming();

    let mut steps = Vec::new();

    loop {
        let d_cur = drifts.at(current);
        if d_cur <= 0 {
            break;
        }
        // The binding arm: the incoming edge whose source drift + sampled
        // delta reproduces this node's drift.
        let Some(best) = incoming
            .of(current)
            .iter()
            .map(|&e| {
                let i = e as usize;
                let src = arena.edge_src(i);
                let cand = drifts.at(src) + arena.edge_sampled(i);
                (cand, i, src)
            })
            .max_by_key(|&(cand, i, _)| (cand, arena.node_id(arena.edge_src(i))))
            .filter(|&(cand, _, _)| cand >= d_cur)
        else {
            break; // drift came from the zero anchor
        };
        let (_, e, src) = best;
        steps.push(CriticalStep {
            edge: arena.edge(e),
            drift_at_dst: d_cur,
        });
        current = src;
        if steps.len() > graph.edge_count() {
            // Defensive: a cycle would indicate a recording bug.
            break;
        }
    }

    Some(CriticalPath::from_steps(rank, final_drift, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::PerturbationModel;
    use crate::replay::{ReplayConfig, Replayer};
    use mpg_noise::{Dist, PlatformSignature};
    use mpg_sim::Simulation;

    fn replay_graph(
        f: impl Fn(&mut mpg_sim::RankCtx) + Sync,
        model: PerturbationModel,
    ) -> crate::report::ReplayReport {
        let trace = Simulation::new(3, PlatformSignature::quiet("t"))
            .ideal_clocks()
            .run(f)
            .unwrap()
            .trace;
        Replayer::new(ReplayConfig::new(model).seed(1).record_graph(true))
            .run(&trace)
            .unwrap()
    }

    #[test]
    fn empty_step_path_counts_anchor_rank() {
        // A path whose drift was injected entirely at the final node has
        // no steps — it must still report the anchor's own rank.
        let cp = CriticalPath::from_steps(2, 100, Vec::new());
        assert_eq!(cp.ranks_touched, 1);
        assert_eq!(cp.local_contribution, 0);
        assert_eq!(cp.message_contribution, 0);
        assert_eq!(cp.collective_contribution, 0);
        assert!(cp.summary().contains("(1 ranks)"));
    }

    #[test]
    fn identity_has_no_critical_path() {
        let report = replay_graph(|ctx| ctx.compute(1_000), PerturbationModel::quiet("id"));
        assert!(critical_path(report.graph.as_ref().unwrap()).is_none());
    }

    #[test]
    fn local_noise_path_stays_on_one_rank() {
        let mut m = PerturbationModel::quiet("m");
        m.os_local = Dist::Constant(100.0).into();
        let report = replay_graph(
            |ctx| {
                for _ in 0..5 {
                    ctx.compute(1_000);
                }
            },
            m,
        );
        let cp = critical_path(report.graph.as_ref().unwrap()).expect("path exists");
        assert_eq!(cp.final_drift, 500);
        assert_eq!(cp.local_contribution, 500);
        assert_eq!(cp.message_contribution, 0);
        assert_eq!(cp.ranks_touched, 1);
        assert!(cp.summary().contains("local 500"));
    }

    #[test]
    fn message_chain_crosses_ranks() {
        let mut m = PerturbationModel::quiet("m");
        m.latency = Dist::Constant(250.0).into();
        let report = replay_graph(
            |ctx| match ctx.rank() {
                0 => ctx.send(1, 0, 64),
                1 => {
                    ctx.recv(0, 0);
                    ctx.send(2, 0, 64);
                }
                _ => {
                    ctx.recv(1, 0);
                }
            },
            m,
        );
        let cp = critical_path(report.graph.as_ref().unwrap()).expect("path exists");
        // The deepest drift belongs to a sender waiting for acks or the
        // terminal receiver; either way the path crosses ranks and is
        // message-dominated.
        assert!(cp.ranks_touched >= 2, "{}", cp.summary());
        assert!(cp.message_contribution > 0);
        assert_eq!(cp.local_contribution, 0);
    }

    #[test]
    fn collective_contribution_identified() {
        let mut m = PerturbationModel::quiet("m");
        m.latency = Dist::Constant(300.0).into();
        let report = replay_graph(
            |ctx| {
                ctx.compute(1_000);
                ctx.allreduce(64);
            },
            m,
        );
        let cp = critical_path(report.graph.as_ref().unwrap()).expect("path exists");
        assert!(cp.collective_contribution > 0, "{}", cp.summary());
    }
}
