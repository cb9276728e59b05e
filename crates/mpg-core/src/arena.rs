//! Columnar graph arena: the single storage layer under every graph
//! consumer.
//!
//! Every pass over a recorded [`EventGraph`](crate::graph::EventGraph) —
//! clocks in `hb`, incoming lists in `critical`, the sweep columns in
//! `feasible` — needs per-node state. Keyed by structural id, that state is
//! a node-keyed map per pass, and at the 10k-rank scale the ROADMAP targets
//! those maps dominate memory and their hashing dominates time.
//!
//! The arena stores the graph once, as flat columns (struct-of-arrays):
//! node identity and label columns indexed by a dense `NodeIdx`, edge
//! endpoint/weight columns indexed by edge position, plus an on-demand CSR
//! of incoming edges. Consumers address nodes by index into plain `Vec`s —
//! no hashing on the hot path, no per-node boxes, and the columns a pass
//! doesn't touch stay cold.
//!
//! Edge order is creation order, which the recorder guarantees is a valid
//! topological order; every traversal here leans on that.
//!
//! Structural ids resolve to dense indices through `NodeIndex`, a
//! per-rank slot table: an array read, not a hash, on every node touch.

use std::collections::HashMap;

use crate::graph::{Edge, NodeId, NodeLabel, Point};
use crate::perturb::DeltaClass;
use crate::{Cycles, Drift};

/// Dense node handle into the arena's node columns.
pub type NodeIdx = u32;

/// Sentinel for "no node".
pub const NO_NODE: NodeIdx = u32::MAX;

pub(crate) const FLAG_END: u8 = 1 << 0;
pub(crate) const FLAG_HUB: u8 = 1 << 1;
pub(crate) const FLAG_LABELED: u8 = 1 << 2;

/// Columnar storage for one recorded message-passing graph.
///
/// Nodes are interned on first touch (as an edge endpoint or a label
/// target) and keep their dense index forever; edges append to parallel
/// columns in creation order. All columns are flat `Vec`s.
#[derive(Debug, Default, Clone)]
pub struct GraphArena {
    pub(crate) ranks: usize,

    // ---- node columns, indexed by NodeIdx ----
    pub(crate) node_rank: Vec<u32>,
    pub(crate) node_seq: Vec<u64>,
    pub(crate) node_flags: Vec<u8>,
    /// Label columns; meaningful only when `FLAG_LABELED` is set.
    pub(crate) label_kind: Vec<&'static str>,
    pub(crate) label_t: Vec<Cycles>,
    pub(crate) labeled: usize,

    /// Interner: structural id → dense index.
    pub(crate) index: NodeIndex,

    // ---- edge columns, indexed by edge position (creation order) ----
    pub(crate) edge_src: Vec<NodeIdx>,
    pub(crate) edge_dst: Vec<NodeIdx>,
    pub(crate) edge_base: Vec<Cycles>,
    pub(crate) edge_class: Vec<DeltaClass>,
    pub(crate) edge_sampled: Vec<Drift>,
    pub(crate) edge_msg: Vec<bool>,
}

impl GraphArena {
    /// An empty arena over `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self {
            ranks,
            ..Self::default()
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks
    }

    /// Number of interned nodes (labeled or not).
    pub fn num_nodes(&self) -> usize {
        self.node_rank.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Number of labeled nodes.
    pub fn num_labeled(&self) -> usize {
        self.labeled
    }

    /// Interns `node`, returning its dense index.
    pub fn intern(&mut self, node: NodeId) -> NodeIdx {
        let (i, fresh) = self.index.intern(node);
        if !fresh {
            return i;
        }
        self.node_rank.push(node.rank);
        self.node_seq.push(node.seq);
        let mut flags = 0u8;
        if node.point == Point::End {
            flags |= FLAG_END;
        }
        if node.hub {
            flags |= FLAG_HUB;
        }
        self.node_flags.push(flags);
        self.label_kind.push("");
        self.label_t.push(0);
        i
    }

    /// Dense index of an already-interned node.
    pub fn node_index(&self, node: &NodeId) -> Option<NodeIdx> {
        self.index.get(node)
    }

    /// Reconstructs the structural id of node `i`.
    pub fn node_id(&self, i: NodeIdx) -> NodeId {
        let flags = self.node_flags[i as usize];
        NodeId {
            rank: self.node_rank[i as usize],
            seq: self.node_seq[i as usize],
            point: if flags & FLAG_END != 0 {
                Point::End
            } else {
                Point::Start
            },
            hub: flags & FLAG_HUB != 0,
        }
    }

    /// True when node `i` is a collective hub.
    pub fn is_hub(&self, i: NodeIdx) -> bool {
        self.node_flags[i as usize] & FLAG_HUB != 0
    }

    /// Attaches a label to a node, interning it if needed. Idempotent: the
    /// first label wins, as recorder call sites rely on.
    pub fn label(&mut self, node: NodeId, kind: &'static str, t: Cycles) {
        let i = self.intern(node) as usize;
        if self.node_flags[i] & FLAG_LABELED == 0 {
            self.node_flags[i] |= FLAG_LABELED;
            self.label_kind[i] = kind;
            self.label_t[i] = t;
            self.labeled += 1;
        }
    }

    /// The label of node `i`, if any.
    pub fn label_of(&self, i: NodeIdx) -> Option<NodeLabel> {
        (self.node_flags[i as usize] & FLAG_LABELED != 0).then(|| NodeLabel {
            kind: self.label_kind[i as usize],
            t: self.label_t[i as usize],
        })
    }

    /// Appends an edge, interning both endpoints.
    pub fn push_edge(&mut self, edge: Edge) {
        let src = self.intern(edge.src);
        let dst = self.intern(edge.dst);
        self.edge_src.push(src);
        self.edge_dst.push(dst);
        self.edge_base.push(edge.base);
        self.edge_class.push(edge.class);
        self.edge_sampled.push(edge.sampled);
        self.edge_msg.push(edge.is_message);
    }

    /// Materializes edge `i` from the columns (cheap: one copy).
    pub fn edge(&self, i: usize) -> Edge {
        Edge {
            src: self.node_id(self.edge_src[i]),
            dst: self.node_id(self.edge_dst[i]),
            base: self.edge_base[i],
            class: self.edge_class[i],
            sampled: self.edge_sampled[i],
            is_message: self.edge_msg[i],
        }
    }

    /// Source node index of edge `i`.
    pub fn edge_src(&self, i: usize) -> NodeIdx {
        self.edge_src[i]
    }

    /// Sink node index of edge `i`.
    pub fn edge_dst(&self, i: usize) -> NodeIdx {
        self.edge_dst[i]
    }

    /// Base weight of edge `i`.
    pub fn edge_base(&self, i: usize) -> Cycles {
        self.edge_base[i]
    }

    /// Delta class of edge `i`.
    pub fn edge_class(&self, i: usize) -> DeltaClass {
        self.edge_class[i]
    }

    /// Sampled delta of edge `i`.
    pub fn edge_sampled(&self, i: usize) -> Drift {
        self.edge_sampled[i]
    }

    /// True when edge `i` is a message (cross-rank) edge.
    pub fn edge_is_message(&self, i: usize) -> bool {
        self.edge_msg[i]
    }

    /// Incoming-edge CSR: for each node, the positions of edges whose sink
    /// it is, in creation order. Built in two counting passes, O(V + E).
    pub fn incoming(&self) -> Csr {
        Csr::build(self.num_nodes(), &self.edge_dst)
    }

    /// Outgoing-edge CSR: for each node, the positions of edges whose
    /// source it is, in creation order.
    pub fn outgoing(&self) -> Csr {
        Csr::build(self.num_nodes(), &self.edge_src)
    }

    /// Dense perturbation propagation: `D(dst) = max(D(dst), D(src) +
    /// sampled)` over edges in creation (topological) order, drifts
    /// anchored at zero. Returns one drift per interned node.
    pub fn propagate_dense(&self) -> Vec<Drift> {
        let mut drift = vec![0i64; self.num_nodes()];
        for i in 0..self.num_edges() {
            let cand = drift[self.edge_src[i] as usize] + self.edge_sampled[i];
            let slot = &mut drift[self.edge_dst[i] as usize];
            if cand > *slot {
                *slot = cand;
            }
        }
        drift
    }

    /// Kahn's algorithm over the dense index space. `Ok` for a DAG;
    /// otherwise the structural ids of every node still blocked by a
    /// cycle, sorted for deterministic reporting.
    pub fn verify_acyclic(&self) -> Result<(), Vec<NodeId>> {
        let n = self.num_nodes();
        let mut indegree = vec![0u32; n];
        for &d in &self.edge_dst {
            indegree[d as usize] += 1;
        }
        let out = self.outgoing();
        let mut ready: Vec<NodeIdx> = (0..n as NodeIdx)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut remaining = n;
        while let Some(i) = ready.pop() {
            remaining -= 1;
            for &e in out.of(i) {
                let dst = self.edge_dst[e as usize];
                indegree[dst as usize] -= 1;
                if indegree[dst as usize] == 0 {
                    ready.push(dst);
                }
            }
        }
        if remaining == 0 {
            return Ok(());
        }
        let mut residue: Vec<NodeId> = (0..n)
            .filter(|&i| indegree[i] > 0)
            .map(|i| self.node_id(i as NodeIdx))
            .collect();
        residue.sort_unstable();
        Err(residue)
    }
}

/// Slots a row spends per event sequence number: start, end, hub.
const SLOTS_PER_SEQ: u64 = 3;

/// Growth rule of [`NodeIndex`], the same for both dimensions: the table
/// grows to reach position `k` only while `k < GROW_FACTOR · n + GROW_SLACK`,
/// `n` being what is already stored there (nodes in the row for a slot, nodes
/// in the whole index for a row). A recorded graph fills two slots in three,
/// in roughly ascending order, and never comes near the limit.
const GROW_FACTOR: usize = 4;
const GROW_SLACK: usize = 64;

/// Structural id → dense index, without hashing.
///
/// One row per rank; within a row, `(seq, point, hub)` sits at slot
/// `3·seq + {start: 0, end: 1, hub: 2}` and holds the node's [`NodeIdx`] or
/// [`NO_NODE`]. Trace validation makes `seq` dense per rank, so for a
/// recorded graph every lookup is two array reads.
///
/// Ids reach this table from untrusted bytes too (an MPGA artifact's
/// `node_rank` / `node_seq` columns), so its size never follows a number
/// read from an id: an id the growth rule above will not reach — a forged
/// `seq` of `2^40`, a rank far past the populated ones — and the one
/// combination the layout has no slot for (a hub *start*) go to the `far`
/// map instead. Rows therefore hold at most `4·filled + 64` slots and the
/// index at most `4·len + 64` rows: O(nodes) memory for any input. An id
/// lives in exactly one of the two places, decided when it is interned;
/// a dense miss consults `far` only when `far` is non-empty.
#[derive(Debug, Default, Clone)]
pub(crate) struct NodeIndex {
    rows: Vec<Row>,
    far: HashMap<NodeId, NodeIdx>,
    len: usize,
}

#[derive(Debug, Default, Clone)]
struct Row {
    slots: Vec<NodeIdx>,
    filled: usize,
}

impl NodeIndex {
    fn slot_of(node: &NodeId) -> Option<usize> {
        let lane = match (node.point, node.hub) {
            (Point::Start, false) => 0,
            (Point::End, false) => 1,
            (Point::End, true) => 2,
            (Point::Start, true) => return None,
        };
        let slot = node.seq.checked_mul(SLOTS_PER_SEQ)?.checked_add(lane)?;
        usize::try_from(slot).ok()
    }

    fn dense(&self, node: &NodeId) -> Option<NodeIdx> {
        let row = self.rows.get(node.rank as usize)?;
        let &i = row.slots.get(Self::slot_of(node)?)?;
        (i != NO_NODE).then_some(i)
    }

    /// Index of `node`, if interned.
    pub(crate) fn get(&self, node: &NodeId) -> Option<NodeIdx> {
        self.dense(node).or_else(|| {
            if self.far.is_empty() {
                None
            } else {
                self.far.get(node).copied()
            }
        })
    }

    /// Index of `node`, assigning the next one (`len`) on first sight;
    /// the flag says whether it was assigned by this call.
    pub(crate) fn intern(&mut self, node: NodeId) -> (NodeIdx, bool) {
        if let Some(i) = self.get(&node) {
            return (i, false);
        }
        let i = self.len as NodeIdx;
        match Self::slot_of(&node).and_then(|s| self.reach(node.rank as usize, s)) {
            Some(cell) => *cell = i,
            None => {
                self.far.insert(node, i);
            }
        }
        self.len += 1;
        (i, true)
    }

    /// The empty cell at `rows[rank].slots[slot]`, growing the table to it
    /// if the growth rule allows; `None` sends the id to the `far` map.
    fn reach(&mut self, rank: usize, slot: usize) -> Option<&mut NodeIdx> {
        let within = |k: usize, stored: usize| {
            k < GROW_FACTOR
                .saturating_mul(stored)
                .saturating_add(GROW_SLACK)
        };
        if rank >= self.rows.len() {
            if !within(rank, self.len) {
                return None;
            }
            self.rows.resize_with(rank + 1, Row::default);
        }
        let row = &mut self.rows[rank];
        if slot >= row.slots.len() {
            if !within(slot, row.filled) {
                return None;
            }
            row.slots.resize(slot + 1, NO_NODE);
        }
        row.filled += 1;
        Some(&mut row.slots[slot])
    }
}

#[cfg(test)]
thread_local! {
    /// CSR builds performed by the current test thread.
    pub(crate) static CSR_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Compressed sparse row adjacency: `items[offsets[v]..offsets[v+1]]` are
/// the edge positions adjacent to node `v`, in creation order.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn build(nodes: usize, keys: &[NodeIdx]) -> Self {
        #[cfg(test)]
        CSR_BUILDS.with(|c| c.set(c.get() + 1));
        let mut offsets = vec![0u32; nodes + 1];
        for &k in keys {
            offsets[k as usize + 1] += 1;
        }
        for v in 0..nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut items = vec![0u32; keys.len()];
        let mut cursor = offsets.clone();
        for (e, &k) in keys.iter().enumerate() {
            items[cursor[k as usize] as usize] = e as u32;
            cursor[k as usize] += 1;
        }
        Self { offsets, items }
    }

    /// Edge positions adjacent to node `v`.
    pub fn of(&self, v: NodeIdx) -> &[u32] {
        let a = self.offsets[v as usize] as usize;
        let b = self.offsets[v as usize + 1] as usize;
        &self.items[a..b]
    }
}

/// Node-indexed drift vector returned by propagation, answering
/// by-`NodeId` queries against a flat column.
#[derive(Debug, Clone)]
pub struct NodeDrifts<'g> {
    arena: &'g GraphArena,
    drift: Vec<Drift>,
}

impl<'g> NodeDrifts<'g> {
    pub(crate) fn new(arena: &'g GraphArena, drift: Vec<Drift>) -> Self {
        Self { arena, drift }
    }

    /// Drift of `node`, or `None` when the graph never saw it.
    pub fn get(&self, node: &NodeId) -> Option<&Drift> {
        self.arena.node_index(node).map(|i| &self.drift[i as usize])
    }

    /// Drift by dense index.
    pub fn at(&self, i: NodeIdx) -> Drift {
        self.drift[i as usize]
    }

    /// The underlying drift column, indexed by `NodeIdx`.
    pub fn column(&self) -> &[Drift] {
        &self.drift
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
    fn intern_is_stable_and_roundtrips() {
        let mut a = GraphArena::new(2);
        let n1 = NodeId::start(0, 3);
        let n2 = NodeId::hub(1, 4);
        let i1 = a.intern(n1);
        let i2 = a.intern(n2);
        assert_ne!(i1, i2);
        assert_eq!(a.intern(n1), i1);
        assert_eq!(a.node_id(i1), n1);
        assert_eq!(a.node_id(i2), n2);
        assert!(a.is_hub(i2));
        assert!(!a.is_hub(i1));
    }

    #[test]
    fn far_ids_take_the_side_map_and_rows_stay_small() {
        let mut a = GraphArena::new(1);
        for seq in 0..10 {
            a.intern(NodeId::start(0, seq));
            a.intern(NodeId::end(0, seq));
        }
        let filled = a.index.rows[0].filled;
        assert_eq!(filled, 20);
        // First slot the growth rule refuses, and the last one it allows.
        let window = (GROW_FACTOR * filled + GROW_SLACK) as u64;
        let past = NodeId::start(0, window.div_ceil(SLOTS_PER_SEQ));
        let inside = NodeId::hub(0, (window - 1) / SLOTS_PER_SEQ - 1);
        let far = [
            past,
            NodeId::end(0, 1 << 40),
            NodeId::hub(0, u64::MAX),
            NodeId::end(u32::MAX, 3),
            NodeId {
                hub: true,
                ..NodeId::start(0, 2)
            },
        ];
        for (k, id) in far.into_iter().enumerate() {
            let i = a.intern(id);
            assert_eq!(a.intern(id), i, "{id:?} re-interned");
            assert_eq!(a.node_index(&id), Some(i));
            assert_eq!(a.node_id(i), id);
            assert_eq!(a.index.far.len(), k + 1, "{id:?} should be far");
        }
        let i = a.intern(inside);
        assert_eq!(a.node_index(&inside), Some(i));
        assert_eq!(a.index.far.len(), far.len(), "{inside:?} should be dense");
        // One more node widens the window past `past`'s slot: `past` is
        // still found where it was put, and an id interned now goes dense.
        let beyond = NodeId::end(0, past.seq);
        a.intern(beyond);
        assert_eq!(a.index.far.len(), far.len(), "{beyond:?} should be dense");
        assert_eq!(a.node_index(&past), Some(20));
        // Nothing was sized by a number read from an id.
        let row = &a.index.rows[0];
        assert_eq!(a.index.rows.len(), 1);
        assert!(row.slots.len() <= GROW_FACTOR * row.filled + GROW_SLACK);
        assert_eq!(a.node_index(&NodeId::end(0, 1 << 41)), None);
    }

    #[test]
    fn edge_columns_roundtrip() {
        let mut a = GraphArena::new(2);
        let e = Edge {
            src: NodeId::start(0, 1),
            dst: NodeId::end(1, 1),
            base: 44,
            class: DeltaClass::Transfer { bytes: 256 },
            sampled: -3,
            is_message: true,
        };
        a.push_edge(e);
        assert_eq!(a.edge(0), e);
        assert_eq!(a.edge_base(0), 44);
        assert!(a.edge_is_message(0));
        assert_eq!(a.edge_sampled(0), -3);
    }

    #[test]
    fn csr_groups_by_node() {
        let mut a = GraphArena::new(1);
        let x = NodeId::start(0, 0);
        let y = NodeId::end(0, 0);
        let z = NodeId::end(0, 1);
        a.push_edge(edge(x, y, 1));
        a.push_edge(edge(x, z, 2));
        a.push_edge(edge(y, z, 3));
        let inc = a.incoming();
        let iz = a.node_index(&z).unwrap();
        assert_eq!(inc.of(iz), &[1, 2]);
        let out = a.outgoing();
        let ix = a.node_index(&x).unwrap();
        assert_eq!(out.of(ix), &[0, 1]);
        assert!(inc.of(ix).is_empty());
    }

    #[test]
    fn dense_propagate_matches_expectation() {
        let mut a = GraphArena::new(1);
        let x = NodeId::start(0, 0);
        let y = NodeId::end(0, 0);
        let z = NodeId::end(0, 1);
        a.push_edge(edge(x, y, 10));
        a.push_edge(edge(y, z, 5));
        a.push_edge(edge(x, z, 100));
        let d = a.propagate_dense();
        assert_eq!(d[a.node_index(&z).unwrap() as usize], 100);
        assert_eq!(d[a.node_index(&y).unwrap() as usize], 10);
    }

    #[test]
    fn label_first_wins() {
        let mut a = GraphArena::new(1);
        let n = NodeId::start(0, 0);
        a.label(n, "send", 5);
        a.label(n, "recv", 9);
        let i = a.node_index(&n).unwrap();
        assert_eq!(a.label_of(i).unwrap().kind, "send");
        assert_eq!(a.num_labeled(), 1);
    }

    #[test]
    fn acyclic_check_finds_cycle_residue() {
        let mut a = GraphArena::new(2);
        let p = NodeId::end(0, 1);
        let q = NodeId::end(1, 1);
        let r = NodeId::end(1, 2);
        a.push_edge(edge(p, q, 1));
        a.push_edge(edge(q, p, 1));
        a.push_edge(edge(q, r, 1));
        let residue = a.verify_acyclic().unwrap_err();
        assert!(residue.contains(&p) && residue.contains(&q) && residue.contains(&r));
        let mut ok = GraphArena::new(2);
        ok.push_edge(edge(p, q, 1));
        ok.push_edge(edge(q, r, 1));
        assert!(ok.verify_acyclic().is_ok());
    }
}
