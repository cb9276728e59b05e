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
//! node label columns indexed by a dense `NodeIdx`, edge endpoint/weight
//! columns indexed by edge position, plus an on-demand CSR of incoming
//! edges. Consumers address nodes by index into plain `Vec`s — no hashing
//! on the hot path, no per-node boxes, and the columns a pass doesn't
//! touch stay cold.
//!
//! Edge order is creation order, which the recorder guarantees is a valid
//! topological order; every traversal here leans on that.
//!
//! # Layout
//!
//! The trace fixes every node: each event has exactly one start and one
//! end subevent (§4.2). So the arena is built over declared per-rank event
//! counts, and a node's index is arithmetic, rank-major:
//! `base[rank] + 2·seq + point` (start 0, end 1). Collective hubs — one
//! node per collective instance, none on point-to-point traces — are
//! numbered after every event slot, in the order they are first touched;
//! a small `(rank, seq) → ordinal` map finds them.
//!
//! A slot the recording never reaches (events past a crash frontier, or
//! the unreplayed tail of a salvaged trace) is a hole: it has an index
//! but no `FLAG_TOUCHED`, and every id-level view — [`GraphArena::node_index`],
//! the graph's `nodes()` and `final_drifts()`, the happens-before event
//! counts — skips it.

use std::collections::HashMap;
use std::ops::Range;

use mpg_trace::{EventKind, Rank, Seq};

use crate::graph::{Edge, NodeId, NodeLabel, Point};
use crate::perturb::DeltaClass;
use crate::{Cycles, Drift};

/// Dense node handle into the arena's node columns.
pub type NodeIdx = u32;

/// Sentinel for "no node".
pub const NO_NODE: NodeIdx = u32::MAX;

/// Set on every node an edge or a label has named.
pub(crate) const FLAG_TOUCHED: u8 = 1 << 0;
/// Set on labeled nodes; their `label_code` / `label_t` are meaningful.
pub(crate) const FLAG_LABELED: u8 = 1 << 1;

/// Edge class tags, one per [`DeltaClass`] variant: the numbering of the
/// MPGA `class_tag` column.
const TAG_NONE: u8 = 0;
const TAG_OS_LOCAL: u8 = 1;
const TAG_OS_REMOTE: u8 = 2;
const TAG_LAMBDA: u8 = 3;
const TAG_TRANSFER: u8 = 4;
const TAG_MESSAGE_PATH: u8 = 5;
const TAG_COLLECTIVE: u8 = 6;
/// Set in an edge's tag byte when it is a message edge.
const TAG_MSG: u8 = 1 << 7;

/// A class as its tag and payload: `(tag, bytes, rounds)`, the payload
/// zero for the classes that carry none.
pub(crate) fn class_parts(c: DeltaClass) -> (u8, u64, u32) {
    match c {
        DeltaClass::None => (TAG_NONE, 0, 0),
        DeltaClass::OsLocal => (TAG_OS_LOCAL, 0, 0),
        DeltaClass::OsRemote => (TAG_OS_REMOTE, 0, 0),
        DeltaClass::Lambda => (TAG_LAMBDA, 0, 0),
        DeltaClass::Transfer { bytes } => (TAG_TRANSFER, bytes, 0),
        DeltaClass::MessagePath { bytes } => (TAG_MESSAGE_PATH, bytes, 0),
        DeltaClass::CollectiveRounds { rounds, bytes } => (TAG_COLLECTIVE, bytes, rounds),
    }
}

/// The class a tag and payload name; `None` for an unknown tag. A payload
/// the tag's class does not carry is ignored.
pub(crate) fn class_of_parts(tag: u8, bytes: u64, rounds: u32) -> Option<DeltaClass> {
    Some(match tag {
        TAG_NONE => DeltaClass::None,
        TAG_OS_LOCAL => DeltaClass::OsLocal,
        TAG_OS_REMOTE => DeltaClass::OsRemote,
        TAG_LAMBDA => DeltaClass::Lambda,
        TAG_TRANSFER => DeltaClass::Transfer { bytes },
        TAG_MESSAGE_PATH => DeltaClass::MessagePath { bytes },
        TAG_COLLECTIVE => DeltaClass::CollectiveRounds { rounds, bytes },
        _ => return None,
    })
}

/// True for the tags whose class carries a payload.
fn has_payload(tag: u8) -> bool {
    matches!(tag, TAG_TRANSFER | TAG_MESSAGE_PATH | TAG_COLLECTIVE)
}

/// 64 edges' payload bits and the number of payload edges before them.
#[derive(Debug, Clone, Copy)]
struct PayloadBlock {
    bits: u64,
    before: u32,
}

/// Columnar storage for one recorded message-passing graph.
///
/// Node columns cover the whole layout from construction; edges append to
/// parallel columns in creation order. All columns are flat `Vec`s.
#[derive(Debug, Clone)]
pub struct GraphArena {
    /// `base[r]` is the index of rank `r`'s `(seq 0, start)` slot;
    /// `base[ranks]` is the first hub's index.
    pub(crate) base: Vec<NodeIdx>,
    /// Hub identities `(rank, seq)`, by ordinal.
    pub(crate) hubs: Vec<(Rank, Seq)>,
    hub_ordinal: HashMap<(Rank, Seq), u32>,

    // ---- node columns, indexed by NodeIdx ----
    /// Owning rank (a hub's anchor rank), read on every edge by `hb` and
    /// the sweep.
    pub(crate) node_rank: Vec<u32>,
    pub(crate) node_flags: Vec<u8>,
    /// Label columns; meaningful only when `FLAG_LABELED` is set. A label
    /// kind is its index into [`EventKind::NAMES`].
    pub(crate) label_code: Vec<u8>,
    pub(crate) label_t: Vec<Cycles>,
    pub(crate) labeled: usize,

    // ---- edge columns, indexed by edge position (creation order) ----
    pub(crate) edge_src: Vec<NodeIdx>,
    pub(crate) edge_dst: Vec<NodeIdx>,
    pub(crate) edge_base: Vec<Cycles>,
    /// Class tag, `TAG_MSG` set on message edges.
    edge_tag: Vec<u8>,
    /// Which edges carry a payload, 64 to a block.
    payload_blocks: Vec<PayloadBlock>,
    /// The payloads, in edge order: `bytes` and `rounds` (0 but for
    /// `CollectiveRounds`).
    payload_bytes: Vec<u64>,
    payload_rounds: Vec<u32>,
    /// Sampled deltas; empty while every one pushed is zero.
    edge_sampled: Vec<Drift>,
}

impl GraphArena {
    /// An empty graph over ranks holding `events[r]` events each.
    ///
    /// # Panics
    ///
    /// When the layout does not fit the `u32` index space: `3·Σ events`
    /// must stay below `u32::MAX`.
    pub fn new(events: &[usize]) -> Self {
        Self::with_layout(events).expect("layout fits the u32 node index space")
    }

    /// An empty graph over ranks holding `events[r]` events each, or
    /// `None` when the layout does not fit the `u32` index space. The
    /// bound leaves room for one hub per event, so no recording over the
    /// layout can run out of indices.
    pub(crate) fn with_layout(events: &[usize]) -> Option<Self> {
        let total = events.iter().try_fold(0usize, |a, &n| a.checked_add(n))?;
        if total.checked_mul(3)? >= NO_NODE as usize {
            return None;
        }
        let mut base = Vec::with_capacity(events.len() + 1);
        let mut node_rank = Vec::with_capacity(2 * total);
        let mut at: NodeIdx = 0;
        for (r, &n) in events.iter().enumerate() {
            base.push(at);
            node_rank.resize(node_rank.len() + 2 * n, r as u32);
            at += 2 * n as NodeIdx;
        }
        base.push(at);
        let slots = at as usize;
        Some(Self {
            base,
            hubs: Vec::new(),
            hub_ordinal: HashMap::new(),
            node_rank,
            node_flags: vec![0; slots],
            label_code: vec![0; slots],
            label_t: vec![0; slots],
            labeled: 0,
            edge_src: Vec::new(),
            edge_dst: Vec::new(),
            edge_base: Vec::new(),
            edge_tag: Vec::new(),
            payload_blocks: Vec::new(),
            payload_bytes: Vec::new(),
            payload_rounds: Vec::new(),
            edge_sampled: Vec::new(),
        })
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.base.len() - 1
    }

    /// Size of the node index space: every event slot, reached or not,
    /// plus every hub. Per-node columns of a pass are this long.
    pub fn num_nodes(&self) -> usize {
        self.node_flags.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Number of labeled nodes.
    pub fn num_labeled(&self) -> usize {
        self.labeled
    }

    /// Number of collective hubs.
    pub fn num_hubs(&self) -> usize {
        self.hubs.len()
    }

    /// Events the layout declares for `rank`.
    pub(crate) fn rank_events(&self, rank: usize) -> usize {
        ((self.base[rank + 1] - self.base[rank]) / 2) as usize
    }

    /// Index range of `rank`'s event slots: start then end subevent of
    /// each event, in sequence order.
    pub(crate) fn rank_nodes(&self, rank: usize) -> Range<NodeIdx> {
        self.base[rank]..self.base[rank + 1]
    }

    /// One past the highest sequence number of `rank` whose start or end
    /// subevent was reached: the rank's event count as the graph saw it.
    pub(crate) fn events_reached(&self, rank: usize) -> u64 {
        let slots = self.rank_nodes(rank);
        slots
            .clone()
            .rev()
            .find(|&i| self.is_touched(i))
            .map_or(0, |i| u64::from((i - slots.start) / 2 + 1))
    }

    fn hub_base(&self) -> NodeIdx {
        self.base[self.num_ranks()]
    }

    /// Layout slot of `node`, reached or not; `None` when the layout has
    /// no slot for it (a rank or sequence number past the declared ones,
    /// a hub never created, a hub *start*).
    fn slot(&self, node: &NodeId) -> Option<NodeIdx> {
        if node.hub {
            if node.point != Point::End {
                return None;
            }
            let &o = self.hub_ordinal.get(&(node.rank, node.seq))?;
            return Some(self.hub_base() + o);
        }
        let r = node.rank as usize;
        let (lo, hi) = (*self.base.get(r)?, *self.base.get(r + 1)?);
        let off = node.seq.checked_mul(2)? + u64::from(node.point == Point::End);
        (off < u64::from(hi - lo)).then(|| lo + off as NodeIdx)
    }

    /// Appends the hub of the collective anchored at event `(rank, seq)`,
    /// or returns its index if it exists. `None` when `(rank, seq)` is not
    /// an event of the layout.
    pub(crate) fn add_hub(&mut self, rank: Rank, seq: Seq) -> Option<NodeIdx> {
        if let Some(&o) = self.hub_ordinal.get(&(rank, seq)) {
            return Some(self.hub_base() + o);
        }
        self.slot(&NodeId::start(rank, seq))?;
        let o = self.hubs.len() as u32;
        self.hubs.push((rank, seq));
        self.hub_ordinal.insert((rank, seq), o);
        self.node_rank.push(rank);
        self.node_flags.push(0);
        self.label_code.push(0);
        self.label_t.push(0);
        Some(self.hub_base() + o)
    }

    /// Marks `node` reached and returns its index.
    ///
    /// # Panics
    ///
    /// When `node` lies outside the layout: the recorder checks every
    /// event against the layout before it touches a node.
    fn touch(&mut self, node: NodeId) -> NodeIdx {
        let i = match node {
            NodeId {
                hub: true,
                point: Point::End,
                rank,
                seq,
            } => self.add_hub(rank, seq),
            _ => self.slot(&node),
        }
        .unwrap_or_else(|| panic!("{node:?} lies outside the graph's layout"));
        self.node_flags[i as usize] |= FLAG_TOUCHED;
        i
    }

    /// Index of a node the graph has reached; `None` for a hole or an id
    /// the layout has no slot for.
    pub fn node_index(&self, node: &NodeId) -> Option<NodeIdx> {
        self.slot(node).filter(|&i| self.is_touched(i))
    }

    /// The structural id of node `i`.
    pub fn node_id(&self, i: NodeIdx) -> NodeId {
        if let Some(o) = self.hub_ordinal(i) {
            let (rank, seq) = self.hubs[o];
            return NodeId::hub(rank, seq);
        }
        let rank = self.node_rank[i as usize];
        let off = i - self.base[rank as usize];
        NodeId {
            rank,
            seq: Seq::from(off / 2),
            point: if off & 1 == 1 {
                Point::End
            } else {
                Point::Start
            },
            hub: false,
        }
    }

    /// True when node `i` is a collective hub.
    pub fn is_hub(&self, i: NodeIdx) -> bool {
        i >= self.hub_base()
    }

    /// The hub ordinal of node `i` (its position among hubs, in the order
    /// they were first touched); `None` for event nodes.
    pub fn hub_ordinal(&self, i: NodeIdx) -> Option<usize> {
        i.checked_sub(self.hub_base()).map(|o| o as usize)
    }

    /// True when an edge or a label has named node `i`.
    pub fn is_touched(&self, i: NodeIdx) -> bool {
        self.node_flags[i as usize] & FLAG_TOUCHED != 0
    }

    /// The start subevent of the event whose subevent `i` is (`i` itself
    /// for a start). `i` must be an event slot, not a hub.
    pub(crate) fn start_of(&self, i: NodeIdx) -> NodeIdx {
        let rank = self.node_rank[i as usize] as usize;
        i - ((i - self.base[rank]) & 1)
    }

    /// Attaches a label, `code` indexing [`EventKind::NAMES`]. Idempotent:
    /// the first label wins, as recorder call sites rely on.
    pub(crate) fn label(&mut self, node: NodeId, code: u8, t: Cycles) {
        debug_assert!((code as usize) < EventKind::NAMES.len());
        let i = self.touch(node) as usize;
        if self.node_flags[i] & FLAG_LABELED == 0 {
            self.node_flags[i] |= FLAG_LABELED;
            self.label_code[i] = code;
            self.label_t[i] = t;
            self.labeled += 1;
        }
    }

    /// The label of node `i`, if any.
    pub fn label_of(&self, i: NodeIdx) -> Option<NodeLabel> {
        (self.node_flags[i as usize] & FLAG_LABELED != 0).then(|| NodeLabel {
            kind: EventKind::NAMES[self.label_code[i as usize] as usize],
            t: self.label_t[i as usize],
        })
    }

    /// The label time of node `i`, if it is labeled.
    pub(crate) fn label_time(&self, i: NodeIdx) -> Option<Cycles> {
        (self.node_flags[i as usize] & FLAG_LABELED != 0).then(|| self.label_t[i as usize])
    }

    /// `rank`'s labeled end subevent with the highest sequence number —
    /// the node the rank's final drift, makespan share and tight chain
    /// are read at.
    pub fn last_end(&self, rank: usize) -> Option<NodeIdx> {
        let slots = self.rank_nodes(rank);
        slots
            .clone()
            .rev()
            .find(|&i| (i - slots.start) & 1 == 1 && self.label_time(i).is_some())
    }

    /// Appends an edge, marking both endpoints reached.
    ///
    /// # Panics
    ///
    /// When an endpoint lies outside the layout.
    pub fn push_edge(&mut self, edge: Edge) {
        let src = self.touch(edge.src);
        let dst = self.touch(edge.dst);
        self.edge_src.push(src);
        self.edge_dst.push(dst);
        self.edge_base.push(edge.base);
        self.push_class(edge.class, edge.is_message);
        self.push_sampled(edge.sampled);
    }

    /// Appends the class and message flag of the next edge to the tag and
    /// payload columns.
    pub(crate) fn push_class(&mut self, class: DeltaClass, is_message: bool) {
        let i = self.edge_tag.len();
        let (tag, bytes, rounds) = class_parts(class);
        if i.is_multiple_of(64) {
            self.payload_blocks.push(PayloadBlock {
                bits: 0,
                before: self.payload_bytes.len() as u32,
            });
        }
        if has_payload(tag) {
            self.payload_blocks.last_mut().expect("pushed above").bits |= 1 << (i % 64);
            self.payload_bytes.push(bytes);
            self.payload_rounds.push(rounds);
        }
        self.edge_tag
            .push(if is_message { tag | TAG_MSG } else { tag });
    }

    /// Appends the sampled delta of the edge whose class was pushed last:
    /// nothing while every delta so far is zero; the first nonzero one
    /// backfills the zeros before it.
    pub(crate) fn push_sampled(&mut self, sampled: Drift) {
        if !self.edge_sampled.is_empty() || sampled != 0 {
            self.edge_sampled.resize(self.edge_tag.len() - 1, 0);
            self.edge_sampled.push(sampled);
        }
    }

    /// Sets the sampled delta of edge `i`, allocating the column on the
    /// first nonzero one.
    pub(crate) fn set_edge_sampled(&mut self, i: usize, sampled: Drift) {
        assert!(i < self.num_edges(), "edge {i} out of range");
        if self.edge_sampled.is_empty() {
            if sampled == 0 {
                return;
            }
            self.edge_sampled = vec![0; self.num_edges()];
        }
        self.edge_sampled[i] = sampled;
    }

    /// The sampled column, dense; `None` while every delta is zero.
    pub(crate) fn sampled_column(&self) -> Option<&[Drift]> {
        (!self.edge_sampled.is_empty()).then_some(&self.edge_sampled[..])
    }

    /// The class tag of edge `i`, message flag cleared.
    pub(crate) fn edge_tag(&self, i: usize) -> u8 {
        self.edge_tag[i] & !TAG_MSG
    }

    /// The payload `(bytes, rounds)` of edge `i`; zeros when its class
    /// carries none.
    pub(crate) fn edge_payload(&self, i: usize) -> (u64, u32) {
        if !has_payload(self.edge_tag(i)) {
            return (0, 0);
        }
        let block = self.payload_blocks[i / 64];
        let below = block.bits & ((1 << (i % 64)) - 1);
        let k = block.before as usize + below.count_ones() as usize;
        (self.payload_bytes[k], self.payload_rounds[k])
    }

    /// Materializes edge `i` from the columns (cheap: one copy).
    pub fn edge(&self, i: usize) -> Edge {
        Edge {
            src: self.node_id(self.edge_src[i]),
            dst: self.node_id(self.edge_dst[i]),
            base: self.edge_base[i],
            class: self.edge_class(i),
            sampled: self.edge_sampled(i),
            is_message: self.edge_is_message(i),
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
        let tag = self.edge_tag(i);
        let (bytes, rounds) = self.edge_payload(i);
        class_of_parts(tag, bytes, rounds).expect("the columns hold known tags only")
    }

    /// Sampled delta of edge `i`.
    pub fn edge_sampled(&self, i: usize) -> Drift {
        match self.edge_sampled.get(i) {
            Some(&d) => d,
            None => {
                assert!(i < self.num_edges(), "edge {i} out of range");
                0
            }
        }
    }

    /// True when edge `i` is a message (cross-rank) edge.
    pub fn edge_is_message(&self, i: usize) -> bool {
        self.edge_tag[i] & TAG_MSG != 0
    }

    /// Heap bytes the edge columns hold: what the graph costs per edge.
    /// Counts lengths, not capacities — the slack a growing `Vec` leaves
    /// is address space no page backs until written.
    #[doc(hidden)]
    pub fn edge_column_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.edge_src[..])
            + size_of_val(&self.edge_dst[..])
            + size_of_val(&self.edge_base[..])
            + size_of_val(&self.edge_tag[..])
            + size_of_val(&self.payload_blocks[..])
            + size_of_val(&self.payload_bytes[..])
            + size_of_val(&self.payload_rounds[..])
            + size_of_val(&self.edge_sampled[..])
    }

    /// Heap bytes the node columns and the hub tables hold, counted like
    /// [`GraphArena::edge_column_bytes`] (the hub map by entry size).
    #[doc(hidden)]
    pub fn node_column_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        size_of_val(&self.base[..])
            + size_of_val(&self.hubs[..])
            + self.hub_ordinal.len() * size_of::<((Rank, Seq), u32)>()
            + size_of_val(&self.node_rank[..])
            + size_of_val(&self.node_flags[..])
            + size_of_val(&self.label_code[..])
            + size_of_val(&self.label_t[..])
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

    /// Dense perturbation propagation: `D(dst) = max over incoming edges of
    /// D(src) + sampled`, over edges in creation (topological) order. Only
    /// a node with no incoming edge is anchored at zero, so a drift the
    /// recorded deltas pull below zero stays negative. Returns one drift
    /// per node index.
    pub fn propagate_dense(&self) -> Vec<Drift> {
        let mut drift = vec![0i64; self.num_nodes()];
        // With every delta zero, every drift is the anchor's.
        let Some(sampled) = self.sampled_column() else {
            return drift;
        };
        for &d in &self.edge_dst {
            drift[d as usize] = Drift::MIN;
        }
        for (i, &d) in sampled.iter().enumerate() {
            let cand = drift[self.edge_src[i] as usize].saturating_add(d);
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

/// Compressed sparse row adjacency: `items[offsets[v]..offsets[v+1]]` are
/// the edge positions adjacent to node `v`, in creation order.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn build(nodes: usize, keys: &[NodeIdx]) -> Self {
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
    fn index_is_structural_and_roundtrips() {
        let mut a = GraphArena::new(&[4, 5]);
        let (n1, n2) = (NodeId::start(0, 3), NodeId::hub(1, 4));
        a.push_edge(edge(n1, n2, 0));
        let (i1, i2) = (a.node_index(&n1).unwrap(), a.node_index(&n2).unwrap());
        // Rank-major arithmetic; the hub comes after all 18 event slots.
        assert_eq!(i1, 6);
        assert_eq!(a.node_index(&NodeId::end(1, 4)), None, "a hole");
        assert_eq!(i2, 18);
        assert_eq!(a.node_id(i1), n1);
        assert_eq!(a.node_id(i2), n2);
        assert_eq!(a.node_id(11), NodeId::end(1, 1));
        assert_eq!(a.start_of(11), 10);
        assert!(a.is_hub(i2) && !a.is_hub(i1));
        assert_eq!((a.hub_ordinal(i2), a.hub_ordinal(i1)), (Some(0), None));
        assert_eq!((a.num_nodes(), a.num_hubs()), (19, 1));
        assert_eq!((a.events_reached(0), a.events_reached(1)), (4, 0));
    }

    #[test]
    fn ids_outside_the_layout_have_no_index() {
        let mut a = GraphArena::new(&[10]);
        a.push_edge(edge(NodeId::start(0, 9), NodeId::end(0, 9), 0));
        for id in [
            NodeId::start(0, 10),
            NodeId::end(0, 1 << 40),
            NodeId::end(0, u64::MAX),
            NodeId::end(u32::MAX, 3),
            NodeId::hub(0, 9),
            NodeId {
                hub: true,
                ..NodeId::start(0, 2)
            },
        ] {
            assert_eq!(a.node_index(&id), None, "{id:?}");
        }
        assert_eq!(a.add_hub(0, 10), None);
        assert_eq!(a.add_hub(1, 0), None);
        assert_eq!(a.num_nodes(), 20);
        assert!(GraphArena::with_layout(&[usize::MAX, 2]).is_none());
        assert!(GraphArena::with_layout(&[1 << 31]).is_none());
    }

    #[test]
    fn edge_columns_roundtrip() {
        let mut a = GraphArena::new(&[2, 2]);
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
        let mut a = GraphArena::new(&[2]);
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
        let mut a = GraphArena::new(&[2]);
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
        let mut a = GraphArena::new(&[1]);
        let n = NodeId::start(0, 0);
        a.label(n, 3, 5);
        a.label(n, 4, 9);
        let i = a.node_index(&n).unwrap();
        assert_eq!(a.label_of(i).unwrap().kind, "send");
        assert_eq!(a.label_of(i).unwrap().t, 5);
        assert_eq!(a.num_labeled(), 1);
    }

    #[test]
    fn acyclic_check_finds_cycle_residue() {
        let mut a = GraphArena::new(&[2, 3]);
        let p = NodeId::end(0, 1);
        let q = NodeId::end(1, 1);
        let r = NodeId::end(1, 2);
        a.push_edge(edge(p, q, 1));
        a.push_edge(edge(q, p, 1));
        a.push_edge(edge(q, r, 1));
        let residue = a.verify_acyclic().unwrap_err();
        assert_eq!(residue, vec![p, q, r]);
        let mut ok = GraphArena::new(&[2, 3]);
        ok.push_edge(edge(p, q, 1));
        ok.push_edge(edge(q, r, 1));
        assert!(ok.verify_acyclic().is_ok());
    }
}
