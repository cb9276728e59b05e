//! The explicit message-passing graph representation (§2, §4.2).
//!
//! "An event is split into two subevents: a start subevent and an end
//! subevent… Each edge connects two subevents with an edge weight equal to
//! the delay incurred between its source and sink subevents."
//!
//! The streaming replayer can optionally *record* the graph it walks; the
//! result is an [`EventGraph`] whose edges carry both the structural
//! annotation ([`DeltaClass`]) and the delta
//! actually sampled for that edge. The graph supports an independent
//! generic propagation pass ([`EventGraph::propagate`]) with no knowledge of
//! MPI semantics — the paper's "semantics embedded in the graph, not the
//! walker" design — which the test suite checks against the streaming
//! engine's drifts.
//!
//! Storage lives in a columnar [`GraphArena`] (see [`crate::arena`]):
//! `EventGraph` is the recorder-facing façade, and analysis passes that
//! want dense index-based access reach the arena through
//! [`EventGraph::arena`].

use crate::arena::{GraphArena, NodeDrifts, NodeIdx};
use crate::perturb::DeltaClass;
use crate::{Cycles, Drift};
use mpg_trace::{EventKind, Rank, Seq};

/// Which subevent of an event a node refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Point {
    /// Entry into the operation.
    Start,
    /// Exit from the operation.
    End,
}

/// A graph node: one subevent. The virtual hub of a collective (Fig. 4's
/// "single processor" junction) is represented as the `End` subevent of the
/// lowest participating rank with `hub == true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Owning rank.
    pub rank: Rank,
    /// Event sequence number on that rank.
    pub seq: Seq,
    /// Start or end subevent.
    pub point: Point,
    /// Marks the synthetic collective hub node.
    pub hub: bool,
}

impl NodeId {
    /// Start subevent of `(rank, seq)`.
    pub fn start(rank: Rank, seq: Seq) -> Self {
        Self {
            rank,
            seq,
            point: Point::Start,
            hub: false,
        }
    }

    /// End subevent of `(rank, seq)`.
    pub fn end(rank: Rank, seq: Seq) -> Self {
        Self {
            rank,
            seq,
            point: Point::End,
            hub: false,
        }
    }

    /// The synthetic hub node for the collective at `(rank, seq)`.
    pub fn hub(rank: Rank, seq: Seq) -> Self {
        Self {
            rank,
            seq,
            point: Point::End,
            hub: true,
        }
    }
}

/// One graph edge, materialized by value from the arena's columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source subevent.
    pub src: NodeId,
    /// Sink subevent.
    pub dst: NodeId,
    /// Original weight: the traced interval for local edges, zero for
    /// message edges (§6).
    pub base: Cycles,
    /// Structural annotation (where Figs. 2–4 place a `δ`).
    pub class: DeltaClass,
    /// The delta actually sampled for this edge during the recording replay.
    pub sampled: Drift,
    /// True for message edges (cross-rank), false for local edges.
    pub is_message: bool,
}

/// Human-readable node label, for DOT export and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLabel {
    /// Event kind name ("send", "recv", "compute", …).
    pub kind: &'static str,
    /// Local timestamp of the subevent.
    pub t: Cycles,
}

/// The recorded message-passing graph — a façade over [`GraphArena`].
#[derive(Debug, Clone)]
pub struct EventGraph {
    arena: GraphArena,
}

impl EventGraph {
    /// Creates an empty graph over ranks holding `events[r]` events each
    /// (see [`GraphArena::new`], whose panic it shares).
    pub fn new(events: &[usize]) -> Self {
        Self {
            arena: GraphArena::new(events),
        }
    }

    /// Wraps an already-built arena — the recorder's, or the warm path's:
    /// a graph decoded from an MPGA artifact (see [`crate::mpga`]) instead
    /// of recorded by replay.
    pub fn from_arena(arena: GraphArena) -> Self {
        Self { arena }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.arena.num_ranks()
    }

    /// The columnar storage, for passes that address nodes and edges by
    /// dense index.
    pub fn arena(&self) -> &GraphArena {
        &self.arena
    }

    pub(crate) fn arena_mut(&mut self) -> &mut GraphArena {
        &mut self.arena
    }

    /// Adds an edge (recorder use).
    pub fn add_edge(&mut self, edge: Edge) {
        self.arena.push_edge(edge);
    }

    /// Attaches a label to a node (idempotent).
    ///
    /// # Panics
    ///
    /// When `kind` is not an [`EventKind::name`], or `node` lies outside
    /// the layout.
    pub fn label(&mut self, node: NodeId, kind: &str, t: Cycles) {
        let code = EventKind::NAMES
            .iter()
            .position(|&k| k == kind)
            .unwrap_or_else(|| panic!("`{kind}` is not an event kind"));
        self.arena.label(node, code as u8, t);
    }

    /// All edges in topological (creation) order, materialized by value
    /// from the columns.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.arena.num_edges()).map(|i| self.arena.edge(i))
    }

    /// Edge at position `i` (creation order).
    pub fn edge(&self, i: usize) -> Edge {
        self.arena.edge(i)
    }

    /// Node label lookup.
    pub fn node_label(&self, node: &NodeId) -> Option<NodeLabel> {
        self.arena
            .node_index(node)
            .and_then(|i| self.arena.label_of(i))
    }

    /// All labeled nodes, in index order: rank by rank, each event's start
    /// then end, hubs last.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, NodeLabel)> + '_ {
        (0..self.arena.num_nodes() as NodeIdx)
            .filter_map(|i| self.arena.label_of(i).map(|l| (self.arena.node_id(i), l)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.arena.num_edges()
    }

    /// Number of labeled nodes.
    pub fn node_count(&self) -> usize {
        self.arena.num_labeled()
    }

    /// Generic perturbation propagation: walks edges in topological order
    /// computing `D(dst) = max over incoming edges of D(src) +
    /// sampled(edge)`, a node with no incoming edge anchored at 0. The
    /// recorder folds the engine's shrink floors into the local edges'
    /// deltas, so these are the streaming replay's drifts.
    ///
    /// This pass knows nothing about MPI: all semantics were baked into the
    /// edge structure when the graph was recorded. It runs over the dense
    /// columns — one flat `Vec` of drifts, no hashing.
    pub fn propagate(&self) -> NodeDrifts<'_> {
        NodeDrifts::new(&self.arena, self.arena.propagate_dense())
    }

    /// Verifies the recorded graph is a DAG (Kahn's algorithm). On failure
    /// returns the residue: every node left with unsatisfied predecessors,
    /// i.e. the nodes on or downstream of a causal cycle, sorted for
    /// deterministic reporting.
    ///
    /// The recorder emits edges in resolution order, which is acyclic by
    /// construction — this check exists for graphs deserialized or stitched
    /// from untrusted traces, where a causal cycle means the trace cannot
    /// describe a run that actually happened (§4.1's completed-run
    /// assumption).
    pub fn verify_acyclic(&self) -> Result<(), Vec<NodeId>> {
        self.arena.verify_acyclic()
    }

    /// The drift of each rank's final (maximum-seq) labeled end node — the
    /// graph-walk equivalent of the streaming report's final drifts; 0 for
    /// a rank with none.
    pub fn final_drifts(&self) -> Vec<Drift> {
        let drifts = self.arena.propagate_dense();
        (0..self.arena.num_ranks())
            .map(|r| self.arena.last_end(r).map_or(0, |i| drifts[i as usize]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: NodeId, dst: NodeId, sampled: Drift) -> Edge {
        Edge {
            src,
            dst,
            base: 0,
            class: DeltaClass::None,
            sampled,
            is_message: false,
        }
    }

    #[test]
    fn propagate_chain() {
        let mut g = EventGraph::new(&[2]);
        let a = NodeId::start(0, 0);
        let b = NodeId::end(0, 0);
        let c = NodeId::end(0, 1);
        g.add_edge(edge(a, b, 10));
        g.add_edge(edge(b, c, 5));
        let d = g.propagate();
        assert_eq!(d.get(&b), Some(&10));
        assert_eq!(d.get(&c), Some(&15));
    }

    #[test]
    fn propagate_max_of_arms() {
        let mut g = EventGraph::new(&[2, 2]);
        let s = NodeId::start(0, 1);
        let r = NodeId::start(1, 1);
        let re = NodeId::end(1, 1);
        g.add_edge(edge(s, re, 100)); // message arm
        g.add_edge(edge(r, re, 30)); // local arm
        let d = g.propagate();
        assert_eq!(d.get(&re), Some(&100));
    }

    #[test]
    fn zero_anchor_holds() {
        // Only a node with no incoming edge sits at the zero anchor; a
        // negative delta pulls its sink below it, as the engine's floored
        // shrink does.
        let mut g = EventGraph::new(&[1]);
        let a = NodeId::start(0, 0);
        let b = NodeId::end(0, 0);
        g.add_edge(edge(a, b, -50));
        let d = g.propagate();
        assert_eq!(d.get(&a), Some(&0));
        assert_eq!(d.get(&b), Some(&-50));
    }

    #[test]
    fn final_drifts_take_last_end() {
        let mut g = EventGraph::new(&[6]);
        let e0 = NodeId::end(0, 0);
        let e5 = NodeId::end(0, 5);
        g.label(e0, "init", 0);
        g.label(e5, "finalize", 100);
        g.add_edge(edge(NodeId::start(0, 0), e0, 7));
        g.add_edge(edge(e0, e5, 3));
        assert_eq!(g.final_drifts(), vec![10]);
    }

    #[test]
    fn labels_idempotent() {
        let mut g = EventGraph::new(&[1]);
        let n = NodeId::start(0, 0);
        g.label(n, "send", 5);
        g.label(n, "recv", 9);
        assert_eq!(g.node_label(&n).unwrap().kind, "send");
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn hub_nodes_distinct() {
        assert_ne!(NodeId::hub(0, 3), NodeId::end(0, 3));
    }

    #[test]
    fn edges_roundtrip_by_index() {
        let mut g = EventGraph::new(&[2, 2]);
        let e = Edge {
            src: NodeId::start(0, 1),
            dst: NodeId::end(1, 1),
            base: 9,
            class: DeltaClass::Transfer { bytes: 64 },
            sampled: 2,
            is_message: true,
        };
        g.add_edge(e);
        assert_eq!(g.edge(0), e);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![e]);
    }

    #[test]
    fn acyclic_graph_verifies() {
        let mut g = EventGraph::new(&[1, 1]);
        let a = NodeId::start(0, 0);
        let b = NodeId::end(0, 0);
        let c = NodeId::end(1, 0);
        g.add_edge(edge(a, b, 1));
        g.add_edge(edge(b, c, 1));
        assert!(g.verify_acyclic().is_ok());
    }

    #[test]
    fn cycle_is_detected_with_residue() {
        let mut g = EventGraph::new(&[2, 3]);
        let a = NodeId::end(0, 1);
        let b = NodeId::end(1, 1);
        let c = NodeId::end(1, 2);
        g.add_edge(edge(a, b, 1));
        g.add_edge(edge(b, a, 1)); // cycle a <-> b
        g.add_edge(edge(b, c, 1)); // downstream of the cycle
        let residue = g.verify_acyclic().unwrap_err();
        assert!(residue.contains(&a) && residue.contains(&b));
    }
}
