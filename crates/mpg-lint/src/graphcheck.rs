//! Pass 3: causality verification of a recorded [`EventGraph`].
//!
//! The message-passing graph of a run that actually happened is a DAG whose
//! local edges follow each rank's program order (§2's subevent structure,
//! §4.1's completed-run assumption). A graph stitched from corrupt or
//! adversarial traces can violate either property; this pass reports
//! `MPG-CYCLE` for causal cycles and `MPG-CAUSALITY` for same-rank edges
//! that run backwards in per-rank program order. Same-rank *forward*
//! message edges are legitimate — the replayer's acknowledgement arm ties
//! an isend to its own wait, and self-sends tie a send to its receive.

use std::collections::BTreeSet;

use mpg_core::graph::{EventGraph, NodeId, Point};
use mpg_trace::{Diagnostic, Rank, Rule};

fn point_order(p: Point) -> u8 {
    match p {
        Point::Start => 0,
        Point::End => 1,
    }
}

/// Lints a recorded event graph for causality defects.
pub fn lint_graph(graph: &EventGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if let Err(residue) = graph.verify_acyclic() {
        let ranks: BTreeSet<Rank> = residue.iter().map(|n| n.rank).collect();
        let span = residue.first().copied();
        let mut d = Diagnostic::new(
            Rule::Cycle,
            format!(
                "event graph is not a DAG: {} subevent(s) lie on or downstream of a causal cycle",
                residue.len()
            ),
        )
        .involving(ranks);
        if let Some(n) = span {
            d = d.at(n.rank, n.seq);
        }
        diags.push(d);
    }

    for e in graph.edges() {
        // Collective hub nodes sit on the lowest participating rank but are
        // logically global; their edges carry no per-rank order.
        if e.src.hub || e.dst.hub {
            continue;
        }
        if e.src.rank != e.dst.rank {
            continue;
        }
        if key(&e.src) > key(&e.dst) {
            diags.push(
                Diagnostic::new(
                    Rule::Causality,
                    format!(
                        "{} edge runs backwards in rank {}'s program order \
                         (seq {} {:?} -> seq {} {:?})",
                        if e.is_message { "message" } else { "local" },
                        e.src.rank,
                        e.src.seq,
                        e.src.point,
                        e.dst.seq,
                        e.dst.point
                    ),
                )
                .at(e.dst.rank, e.dst.seq),
            );
        }
    }

    diags
}

fn key(n: &NodeId) -> (u64, u8) {
    (n.seq, point_order(n.point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_core::graph::Edge;
    use mpg_core::perturb::DeltaClass;

    fn edge(src: NodeId, dst: NodeId, is_message: bool) -> Edge {
        Edge {
            src,
            dst,
            base: 0,
            class: DeltaClass::None,
            sampled: 0,
            is_message,
        }
    }

    #[test]
    fn clean_graph_passes() {
        let mut g = EventGraph::new(&[2, 2]);
        g.add_edge(edge(NodeId::start(0, 0), NodeId::end(0, 0), false));
        g.add_edge(edge(NodeId::end(0, 0), NodeId::start(0, 1), false));
        g.add_edge(edge(NodeId::start(0, 1), NodeId::end(1, 1), true));
        assert!(lint_graph(&g).is_empty());
    }

    #[test]
    fn cycle_reports_mpg_cycle() {
        let mut g = EventGraph::new(&[2, 2]);
        g.add_edge(edge(NodeId::end(0, 1), NodeId::end(1, 1), true));
        g.add_edge(edge(NodeId::end(1, 1), NodeId::end(0, 1), true));
        let diags = lint_graph(&g);
        assert!(diags.iter().any(|d| d.rule == Rule::Cycle), "{diags:?}");
    }

    #[test]
    fn backward_local_edge_reports_causality() {
        let mut g = EventGraph::new(&[6]);
        g.add_edge(edge(NodeId::end(0, 5), NodeId::start(0, 2), false));
        let diags = lint_graph(&g);
        assert!(diags.iter().any(|d| d.rule == Rule::Causality), "{diags:?}");
    }

    #[test]
    fn backward_same_rank_message_edge_reports_causality() {
        let mut g = EventGraph::new(&[6]);
        g.add_edge(edge(NodeId::end(0, 5), NodeId::end(0, 2), true));
        let diags = lint_graph(&g);
        assert_eq!(
            diags.iter().filter(|d| d.rule == Rule::Causality).count(),
            1
        );
    }

    #[test]
    fn forward_same_rank_message_edge_is_legitimate() {
        // The replayer's acknowledgement arm ties an isend to its own wait
        // with a message-class edge; forward in program order, not a defect.
        let mut g = EventGraph::new(&[6]);
        g.add_edge(edge(NodeId::end(0, 3), NodeId::end(0, 5), true));
        assert!(lint_graph(&g).is_empty());
    }

    #[test]
    fn hub_edges_are_exempt() {
        let mut g = EventGraph::new(&[4, 1]);
        // Hub fan-in/fan-out can touch the hub's own rank "backwards".
        g.add_edge(edge(NodeId::hub(0, 3), NodeId::end(0, 3), false));
        assert!(lint_graph(&g).is_empty());
    }
}
