//! Graphviz export of the message-passing graph (Appendix A / Fig. 5).
//!
//! "We show a message-passing graph generated from a real trace… The graph
//! was generated using our framework and visualized using Graphviz."
//!
//! Ranks become clusters of chronologically-chained subevent nodes; local
//! edges are solid, message edges dashed, and every edge is labeled with its
//! base weight plus any delta annotation.

use std::fmt::Write as _;

use crate::graph::{EventGraph, NodeId};
use crate::perturb::DeltaClass;

fn node_ident(n: &NodeId) -> String {
    format!(
        "r{}s{}{}{}",
        n.rank,
        n.seq,
        match n.point {
            crate::graph::Point::Start => "s",
            crate::graph::Point::End => "e",
        },
        if n.hub { "hub" } else { "" }
    )
}

fn delta_label(class: &DeltaClass) -> Option<String> {
    match class {
        DeltaClass::None => None,
        DeltaClass::OsLocal => Some("δos".into()),
        DeltaClass::OsRemote => Some("δos2".into()),
        DeltaClass::Lambda => Some("δλ".into()),
        DeltaClass::Transfer { bytes } => Some(format!("δt({bytes}B)")),
        DeltaClass::MessagePath { bytes } => Some(format!("δλ1+δt({bytes}B)+δos2")),
        DeltaClass::CollectiveRounds { rounds, bytes } => {
            Some(format!("lδ[{rounds}×(δos+δλ+δt({bytes}B))]"))
        }
    }
}

/// Renders the graph as Graphviz DOT. Deterministic output (nodes and
/// clusters sorted), so golden tests can compare strings.
pub fn to_dot(graph: &EventGraph, title: &str) -> String {
    let mut out = String::new();
    writeln!(out, "digraph \"{title}\" {{").unwrap();
    writeln!(out, "  rankdir=LR;").unwrap();
    writeln!(out, "  node [shape=box, fontsize=9];").unwrap();

    // Cluster per rank, nodes in (seq, point) order: sorted by rank first,
    // so each cluster is one run of the sorted nodes.
    let mut nodes: Vec<(NodeId, crate::graph::NodeLabel)> = graph.nodes().collect();
    nodes.sort_by_key(|(n, _)| (n.rank, n.seq, n.point, n.hub));
    for cluster in nodes.chunk_by(|(a, _), (b, _)| a.rank == b.rank) {
        let rank = cluster[0].0.rank;
        writeln!(out, "  subgraph cluster_rank{rank} {{").unwrap();
        writeln!(out, "    label=\"rank {rank}\";").unwrap();
        for (n, label) in cluster {
            writeln!(
                out,
                "    {} [label=\"{}@{}\"];",
                node_ident(n),
                label.kind,
                label.t
            )
            .unwrap();
        }
        writeln!(out, "  }}").unwrap();
    }

    for e in graph.edges() {
        let style = if e.is_message { "dashed" } else { "solid" };
        let mut label = format!("{}", e.base);
        if let Some(d) = delta_label(&e.class) {
            label.push_str(" + ");
            label.push_str(&d);
        }
        writeln!(
            out,
            "  {} -> {} [style={style}, label=\"{label}\", fontsize=8];",
            node_ident(&e.src),
            node_ident(&e.dst)
        )
        .unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Edge, EventGraph, NodeId};

    fn tiny_graph() -> EventGraph {
        let mut g = EventGraph::new(&[1, 1]);
        let s0 = NodeId::start(0, 0);
        let e0 = NodeId::end(0, 0);
        let e1 = NodeId::end(1, 0);
        g.label(s0, "send", 10);
        g.label(e0, "send", 50);
        g.label(e1, "recv", 60);
        g.add_edge(Edge {
            src: s0,
            dst: e0,
            base: 40,
            class: DeltaClass::OsLocal,
            sampled: 0,
            is_message: false,
        });
        g.add_edge(Edge {
            src: s0,
            dst: e1,
            base: 0,
            class: DeltaClass::MessagePath { bytes: 128 },
            sampled: 0,
            is_message: true,
        });
        g
    }

    #[test]
    fn dot_structure() {
        let dot = to_dot(&tiny_graph(), "test");
        assert!(dot.starts_with("digraph \"test\""));
        assert!(dot.contains("subgraph cluster_rank0"));
        assert!(dot.contains("subgraph cluster_rank1"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("style=solid"));
        assert!(dot.contains("δλ1+δt(128B)+δos2"));
        assert!(dot.contains("send@10"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_is_deterministic() {
        let a = to_dot(&tiny_graph(), "t");
        let b = to_dot(&tiny_graph(), "t");
        assert_eq!(a, b);
    }

    #[test]
    fn balanced_braces() {
        let dot = to_dot(&tiny_graph(), "t");
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
