//! Exact happens-before over a recorded [`EventGraph`].
//!
//! The replayed graph is one *timed* execution, but its edges — program
//! order, message arrivals, collective hubs — encode the *order* constraints
//! every execution consistent with the trace must respect. This module
//! distils those edges into vector clocks so lint passes can ask "must a
//! precede b?" in O(1) after a single forward pass over the edges.
//!
//! Two relations are exposed, both derived from subevent reachability
//! (§4.2 splits each event into a start and an end subevent):
//!
//! * [`HbIndex::happens_before`] — *issue order*: `start(a) ⇝ start(b)`.
//!   `a` must have been issued before `b` could be issued.
//! * [`HbIndex::completes_before`] — *completion order*:
//!   `end(a) ⇝ start(b)`. `a` must have finished before `b` could begin;
//!   this is the relation that constrains which sends a receive can match.
//!
//! # Epoch-compressed clocks
//!
//! A node's clock says, per rank `q`, how many of `q`'s start (resp. end)
//! subevents reach it. Split it in two:
//!
//! * the **own-rank** component of a node `(r, s, point)` is a function of
//!   the node's name — starts `0..=s` and ends `0..s` (`0..=s` at an end
//!   node) of rank `r` reach it through program order — and the queries
//!   never read it: same-rank pairs are answered from sequence numbers;
//! * the **foreign** components can only change at a node with an in-edge
//!   from another rank or from a collective hub (a message arrival, a
//!   rendezvous acknowledgement, a collective exit). Every other node
//!   inherits its program-order predecessor's foreign components unchanged.
//!
//! So clocks are stored once per **epoch** — a maximal program-order run of
//! one rank's nodes between such joins — as a `p`-wide issue row and a
//! `p`-wide completion row whose own-rank slot stays zero, and every event
//! carries a `u32` epoch id. A join that changes nothing starts no epoch.
//!
//! The build walks the arena's edge columns once. Recorded edge order is a
//! valid topological order by construction (see [`EventGraph`]), so a
//! single forward pass of component-wise `max` joins is exact. Each node
//! holds a 4-byte epoch pointer into a growing row store: a same-rank edge
//! into a node nothing has reached yet copies the pointer, a row only one
//! node points at is raised in place, and any other join that raises a
//! component copies the row first (copy-on-write). The source's own-rank
//! components are materialised from its [`NodeId`] only when an edge leaves
//! its rank. Build time is `O(edges + joins · ranks)`, memory
//! `O(events + epochs · ranks)`, a query is two loads and a compare.
//!
//! Nothing here hashes a node except the hub bypass of
//! [`HbIndex::build_bypassing`]; per-node state is indexed by the arena's
//! dense [`NodeIdx`].
//!
//! # Rows are thresholds
//!
//! A clock cell is a *count*, and the query compares it against a sequence
//! number, so for a fixed `b` the events of any one rank that precede it
//! are a **prefix** of that rank's program order, and the cell says where
//! the prefix ends. [`HbIndex::issue_horizon`] and
//! [`HbIndex::completion_horizon`] return that cell (with the own-rank and
//! unknown-event cases filled in), and the boolean queries are
//! `a.seq < horizon(a.rank, b)` — so a caller with many `a` of one rank to
//! test against one `b` reads the horizon once and binary-searches, and the
//! answer is the boolean's by construction, for any index.
//!
//! **Invariant (row monotonicity).** Along one rank's program order no
//! horizon decreases: for `s < t`, `horizon(q, (r, s)) <= horizon(q, (r, t))`
//! for every `q`, in both relations. It holds for every index built from a
//! recorded graph — there `start(r, s) ⇝ end(r, s) ⇝ start(r, s + 1)`, so
//! whatever reaches an event reaches its successors, with or without a
//! bypassed hub — whenever the recorded sequence numbers ascend along each
//! rank's stream (`mpg_trace::validate` rejects the others). So "does `a`
//! precede this one?" over the events of one rank is a *suffix*: callers
//! walking a rank's events in order may stop at the first one `a` precedes.

use crate::arena::{GraphArena, NodeIdx, NO_NODE};
use crate::cancel::{CancelReason, CancelToken, CHECK_INTERVAL};
use crate::graph::{EventGraph, NodeId, Point};
use mpg_trace::{Rank, Seq};

/// An event named positionally, as everywhere else in the codebase:
/// `(rank, per-rank sequence number)`.
pub type EventId = (Rank, Seq);

/// One clock component: a count of one rank's subevents. The arena
/// addresses nodes with a `u32` [`NodeIdx`] and lays out fewer than
/// `u32::MAX / 3` events, so every count fits.
type Clock = u32;

/// First word of [`HbIndex::to_bytes`]: `"HBEP"` then the layout version,
/// little-endian. Read as the rank count that led the earlier dense layout
/// it exceeds any blob's word count, so neither decoder accepts the
/// other's bytes.
const BLOB_MAGIC: u64 = u64::from_le_bytes(*b"HBEP\x01\0\0\0");

/// Epoch-compressed vector clocks answering happens-before queries in
/// O(1).
///
/// Memory is `O(events + epochs · ranks)`: one `u32` epoch id per event and
/// two `u32` clock rows (issue and completion counts) per epoch, where an
/// epoch starts only at an event whose foreign clock components differ
/// from its predecessor's — on a stencil trace, one event in seven.
/// Queries on events outside the graph return `false` (nothing is known
/// to be ordered with them).
#[derive(Debug, Clone)]
pub struct HbIndex {
    p: usize,
    /// Events per rank (max seq + 1 over nodes seen in the graph).
    counts: Vec<u64>,
    /// Prefix sums of `counts` — position of `(r, 0)` in `epoch_of`.
    offsets: Vec<usize>,
    /// Epoch of every event's start subevent; always `< issue.len() / p`.
    epoch_of: Vec<u32>,
    /// `issue[epoch(b)*p + r] >= s+1` ⟺ `start(r, s) ⇝ start(b)`, for
    /// `r` other than `b`'s rank.
    issue: Vec<Clock>,
    /// `complete[epoch(b)*p + r] >= s+1` ⟺ `end(r, s) ⇝ start(b)`.
    complete: Vec<Clock>,
}

/// Why a build stopped short of an index.
enum Abort {
    Cancelled(CancelReason),
    /// A size derived from the graph cannot be allocated.
    Oversized,
}

fn oversized<E>(_: E) -> Abort {
    Abort::Oversized
}

/// `n` default values, unless the allocator refuses the request.
fn filled<T: Clone + Default>(n: usize) -> Result<Vec<T>, Abort> {
    let mut v = Vec::new();
    v.try_reserve_exact(n).map_err(oversized)?;
    v.resize(n, T::default());
    Ok(v)
}

/// The rank whose program order node `n` belongs to. `None` for hubs and
/// for ranks the graph does not declare, which seed to all-zero clocks.
fn rank_of(n: &NodeId, p: usize) -> Option<usize> {
    (!n.hub && (n.rank as usize) < p).then_some(n.rank as usize)
}

/// [`rank_of`] with the node's own-rank issue and completion components.
fn own(n: &NodeId, p: usize) -> Option<(usize, Clock, Clock)> {
    // The layout bounds every sequence number far below `Clock::MAX`, so
    // neither the cast nor the increment can wrap.
    let s = n.seq as Clock;
    let completed = if n.point == Point::End { s + 1 } else { s };
    rank_of(n, p).map(|r| (r, s + 1, completed))
}

/// The transient state of one build: the growing row store and the epoch
/// pointer of every node.
struct Epochs {
    p: usize,
    /// Row `e` is `issue[e*p..(e+1)*p]`; row 0 is all zero, the clock of a
    /// node nothing has reached.
    issue: Vec<Clock>,
    complete: Vec<Clock>,
    /// Per row: the only node pointing at it, or [`NO_NODE`] once a second
    /// node shares it. A sole owner's row may be raised in place.
    sole: Vec<NodeIdx>,
    /// Per node: its row. Seeding is lazy — every node starts on row 0.
    epoch: Vec<u32>,
    /// The source's clock as the sink sees it, rebuilt per join.
    from_issue: Vec<Clock>,
    from_complete: Vec<Clock>,
}

impl Epochs {
    fn new(p: usize, n_nodes: usize) -> Result<Self, Abort> {
        Ok(Self {
            p,
            issue: filled(p)?,
            complete: filled(p)?,
            sole: vec![NO_NODE],
            epoch: filled(n_nodes)?,
            from_issue: filled(p)?,
            from_complete: filled(p)?,
        })
    }

    fn span(&self, row: u32) -> std::ops::Range<usize> {
        // The row is in the store, so its end fits a `usize`.
        row as usize * self.p..(row as usize + 1) * self.p
    }

    /// Appends a copy of `row` for `owner` alone. Row ids are range-checked
    /// here, where they are made.
    fn fork(&mut self, row: u32, owner: NodeIdx) -> Result<u32, Abort> {
        let id = u32::try_from(self.sole.len()).map_err(oversized)?;
        let span = self.span(row);
        for rows in [&mut self.issue, &mut self.complete] {
            rows.try_reserve(self.p).map_err(oversized)?;
            rows.extend_from_within(span.clone());
        }
        self.sole.push(owner);
        Ok(id)
    }

    /// `clock(dst) = max(clock(dst), clock(src))` over the foreign
    /// components of `dst`.
    fn join(&mut self, arena: &GraphArena, src: NodeIdx, dst: NodeIdx) -> Result<(), Abort> {
        let (rs, rd) = (self.epoch[src as usize], self.epoch[dst as usize]);
        let src_own = own(&arena.node_id(src), self.p);
        let dst_rank = rank_of(&arena.node_id(dst), self.p);
        if dst_rank.is_some() && dst_rank == src_own.map(|(r, ..)| r) {
            // Program order: the rows already share their zero own slot.
            if rs == rd || rs == 0 {
                return Ok(());
            }
            if rd == 0 {
                self.epoch[dst as usize] = rs;
                self.sole[rs as usize] = NO_NODE;
                return Ok(());
            }
        }
        let span = self.span(rs);
        self.from_issue.copy_from_slice(&self.issue[span.clone()]);
        self.from_complete.copy_from_slice(&self.complete[span]);
        if let Some((r, issued, completed)) = src_own {
            self.from_issue[r] = issued;
            self.from_complete[r] = completed;
        }
        if let Some(r) = dst_rank {
            self.from_issue[r] = 0;
            self.from_complete[r] = 0;
        }
        let span = self.span(rd);
        let raises = |from: &[Clock], into: &[Clock]| from.iter().zip(into).any(|(a, b)| a > b);
        if !raises(&self.from_issue, &self.issue[span.clone()])
            && !raises(&self.from_complete, &self.complete[span.clone()])
        {
            return Ok(());
        }
        let span = if self.sole[rd as usize] == dst {
            span
        } else {
            let row = self.fork(rd, dst)?;
            self.epoch[dst as usize] = row;
            self.span(row)
        };
        let raise = |from: &[Clock], into: &mut [Clock]| {
            for (a, b) in into.iter_mut().zip(from) {
                *a = (*a).max(*b);
            }
        };
        raise(&self.from_issue, &mut self.issue[span.clone()]);
        raise(&self.from_complete, &mut self.complete[span]);
        Ok(())
    }

    /// Drops every row `epoch_of` does not name, in place, renumbers
    /// `epoch_of` to match and returns the surviving rows. Row 0 stays: it
    /// answers for events whose start node the graph never mentions.
    fn compact(mut self, epoch_of: &mut [u32]) -> Result<(Vec<Clock>, Vec<Clock>), Abort> {
        let mut remap: Vec<u32> = filled(self.sole.len())?;
        for &e in epoch_of.iter() {
            remap[e as usize] = 1;
        }
        remap[0] = 1;
        let mut kept = 0usize;
        for (row, slot) in remap.iter_mut().enumerate() {
            if *slot == 0 {
                continue;
            }
            let (from, to) = (row * self.p..(row + 1) * self.p, kept * self.p);
            self.issue.copy_within(from.clone(), to);
            self.complete.copy_within(from, to);
            // `kept <= row`, and `row` is an id `fork` range-checked.
            *slot = kept as u32;
            kept += 1;
        }
        for e in epoch_of {
            *e = remap[*e as usize];
        }
        for rows in [&mut self.issue, &mut self.complete] {
            rows.truncate(kept * self.p);
            rows.shrink_to_fit();
        }
        Ok((self.issue, self.complete))
    }
}

impl HbIndex {
    /// Builds the index from a recorded graph.
    ///
    /// Per-rank event counts are those the graph reached (holes past a
    /// crash frontier are not events of the index). A graph whose clock
    /// rows cannot be allocated yields an index that knows no events
    /// instead of an abort: every query on it answers `false`.
    pub fn build(graph: &EventGraph) -> Self {
        Self::build_inner(graph, None, None).expect("uncancellable build completes")
    }

    /// [`HbIndex::build`] with a cooperative [`CancelToken`] polled every
    /// [`CHECK_INTERVAL`] edges of the forward pass. Partial clocks are
    /// useless (queries would silently under-order), so a fired token
    /// aborts the build entirely rather than degrading.
    pub fn build_cancellable(
        graph: &EventGraph,
        cancel: &CancelToken,
    ) -> Result<Self, CancelReason> {
        Self::build_inner(graph, None, Some(cancel))
    }

    /// Builds the index with one collective hub *bypassed*: the hub's exit
    /// edges are dropped and each participant's arrival edge is replaced by
    /// a local `start → end` passthrough, i.e. the collective still takes
    /// its turn in program order but synchronizes nobody. Comparing this
    /// index against [`HbIndex::build`] tells whether the collective's
    /// ordering is implied by the rest of the graph (`MPG-REDUNDANT-SYNC`).
    pub fn build_bypassing(graph: &EventGraph, hub: NodeId) -> Self {
        Self::build_inner(graph, Some(hub), None).expect("uncancellable build completes")
    }

    fn build_inner(
        graph: &EventGraph,
        bypass: Option<NodeId>,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, CancelReason> {
        match Self::try_build(graph, bypass, cancel) {
            Ok(hb) => Ok(hb),
            Err(Abort::Cancelled(reason)) => Err(reason),
            Err(Abort::Oversized) => Ok(HbIndex {
                p: 0,
                counts: Vec::new(),
                offsets: vec![0],
                epoch_of: Vec::new(),
                issue: Vec::new(),
                complete: Vec::new(),
            }),
        }
    }

    fn try_build(
        graph: &EventGraph,
        bypass: Option<NodeId>,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, Abort> {
        let arena = graph.arena();
        let p = graph.num_ranks();
        // Events the graph reached, per rank; the layout holds fewer than
        // `u32::MAX / 3` events, so no count reaches `Clock::MAX`.
        let counts: Vec<u64> = (0..p).map(|r| arena.events_reached(r)).collect();
        let mut offsets: Vec<usize> = filled(p + 1)?;
        for r in 0..p {
            offsets[r + 1] = offsets[r] + counts[r] as usize;
        }

        let mut epochs = Epochs::new(p, arena.num_nodes())?;
        let bypass_idx = bypass.and_then(|h| arena.node_index(&h));
        for e in 0..arena.num_edges() {
            if let Some(token) = cancel {
                if (e as u64).is_multiple_of(CHECK_INTERVAL) {
                    if let Some(reason) = token.fired() {
                        return Err(Abort::Cancelled(reason));
                    }
                }
            }
            let (src, mut dst) = (arena.edge_src(e), arena.edge_dst(e));
            if let Some(h) = bypass_idx {
                if src == h {
                    continue;
                }
                if dst == h {
                    // Local passthrough: the collective still takes its
                    // turn in program order but synchronizes nobody.
                    let s = arena.node_id(src);
                    match arena.node_index(&NodeId::end(s.rank, s.seq)) {
                        Some(end) => dst = end,
                        None => continue,
                    }
                }
            }
            epochs.join(arena, src, dst)?;
        }

        // Events whose start node the graph never reached stay on row 0.
        let mut epoch_of: Vec<u32> = filled(offsets[p])?;
        for r in 0..p {
            let starts = arena.rank_nodes(r).step_by(2);
            for (slot, start) in epoch_of[offsets[r]..offsets[r + 1]].iter_mut().zip(starts) {
                *slot = epochs.epoch[start as usize];
            }
        }
        let (issue, complete) = epochs.compact(&mut epoch_of)?;
        Ok(HbIndex {
            p,
            counts,
            offsets,
            epoch_of,
            issue,
            complete,
        })
    }

    /// Number of ranks the index covers.
    pub fn num_ranks(&self) -> usize {
        self.p
    }

    /// Number of stored clock rows: one per epoch, plus the all-zero row.
    /// Exposed so tests can pin the compression.
    #[doc(hidden)]
    pub fn epoch_rows(&self) -> usize {
        self.issue.len().checked_div(self.p).unwrap_or(0)
    }

    /// Serializes the index to a flat little-endian blob for cache
    /// storage: four `u64` header words (the layout magic, `p`, the event
    /// count, the epoch-row count), `counts` as `u64`, then `epoch_of`,
    /// the issue rows and the completion rows as `u32`; `offsets` are
    /// prefix sums and recomputed on load. Integrity is the cache
    /// envelope's job — this layer only guards structure.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = [
            BLOB_MAGIC,
            self.p as u64,
            self.epoch_of.len() as u64,
            self.epoch_rows() as u64,
        ];
        let mut out = Vec::with_capacity(
            (header.len() + self.counts.len()) * 8
                + (self.epoch_of.len() + self.issue.len() + self.complete.len()) * 4,
        );
        for &w in header.iter().chain(&self.counts) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &x in self
            .epoch_of
            .iter()
            .chain(&self.issue)
            .chain(&self.complete)
        {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Rebuilds an index from [`HbIndex::to_bytes`] output. `None` on any
    /// structural inconsistency: another layout (the earlier dense one
    /// included), a length that disagrees with the header or overflows, an
    /// event count that is not the sum of `counts`, an epoch id with no
    /// row.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (header, body) = bytes.split_at_checked(32)?;
        let mut header = header
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        if header.next()? != BLOB_MAGIC {
            return None;
        }
        let p = usize::try_from(header.next()?).ok()?;
        let events = usize::try_from(header.next()?).ok()?;
        let rows = usize::try_from(header.next()?).ok()?;
        let matrix = rows.checked_mul(p)?;
        let words = events.checked_add(matrix.checked_mul(2)?)?;
        if body.len() != p.checked_mul(8)?.checked_add(words.checked_mul(4)?)? {
            return None;
        }
        let (counts, body) = body.split_at(p * 8);
        let counts: Vec<u64> = counts
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        let mut offsets = vec![0usize; p + 1];
        for r in 0..p {
            let c = usize::try_from(counts[r]).ok()?;
            offsets[r + 1] = offsets[r].checked_add(c)?;
        }
        if offsets[p] != events {
            return None;
        }
        let mut body = body
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")));
        let epoch_of: Vec<u32> = body.by_ref().take(events).collect();
        if epoch_of.iter().any(|&e| e as usize >= rows) {
            return None;
        }
        let issue: Vec<Clock> = body.by_ref().take(matrix).collect();
        let complete: Vec<Clock> = body.collect();
        Some(HbIndex {
            p,
            counts,
            offsets,
            epoch_of,
            issue,
            complete,
        })
    }

    /// Number of events of `rank` seen in the graph.
    pub fn num_events(&self, rank: Rank) -> u64 {
        self.counts.get(rank as usize).copied().unwrap_or(0)
    }

    /// Where event `e`'s clock row starts in `issue` / `complete`.
    fn row(&self, e: EventId) -> Option<usize> {
        let r = e.0 as usize;
        if r >= self.p || e.1 >= self.counts[r] {
            return None;
        }
        let row = self.epoch_of[self.offsets[r] + e.1 as usize] as usize * self.p;
        debug_assert!(row + self.p <= self.issue.len());
        Some(row)
    }

    /// How many of `rank`'s subevents counted by `clocks` reach `start(b)`:
    /// the cell `clocks[row(b)][rank]`, with `rank`'s own events answered
    /// from program order — the stored rows hold no own-rank component —
    /// and `0` for an unknown `b` or a rank the index does not cover.
    fn horizon(&self, clocks: &[Clock], rank: Rank, b: EventId) -> Seq {
        match self.row(b) {
            Some(_) if rank == b.0 => b.1,
            Some(row) if (rank as usize) < self.p => Seq::from(clocks[row + rank as usize]),
            _ => 0,
        }
    }

    /// `a.seq < clocks[row(b)][a.rank]`: the one place a clock cell meets
    /// a sequence number.
    fn ordered(&self, clocks: &[Clock], a: EventId, b: EventId) -> bool {
        a.1 < self.horizon(clocks, a.0, b)
    }

    /// The number of `rank`'s events that must have been *issued* before
    /// `b` can start: `happens_before((rank, s), b)` exactly when
    /// `s < issue_horizon(rank, b)`. `0` when `b` is unknown or `rank` is
    /// not a rank of the graph.
    pub fn issue_horizon(&self, rank: Rank, b: EventId) -> Seq {
        self.horizon(&self.issue, rank, b)
    }

    /// The number of `rank`'s events that must have *completed* before `b`
    /// can start: `completes_before((rank, s), b)` exactly when
    /// `s < completion_horizon(rank, b)`. `0` when `b` is unknown or
    /// `rank` is not a rank of the graph.
    pub fn completion_horizon(&self, rank: Rank, b: EventId) -> Seq {
        self.horizon(&self.complete, rank, b)
    }

    /// Issue order: must `a` have started before `b` could start?
    ///
    /// Irreflexive and transitive; same-rank events are ordered by sequence
    /// number (MPI program order). Returns `false` for unknown events.
    pub fn happens_before(&self, a: EventId, b: EventId) -> bool {
        self.ordered(&self.issue, a, b)
    }

    /// Completion order: must `a` have *finished* before `b` could start?
    ///
    /// Stronger than [`Self::happens_before`]: a send's message can be in
    /// flight (issued, not completed) across many of the receiver's events.
    pub fn completes_before(&self, a: EventId, b: EventId) -> bool {
        self.ordered(&self.complete, a, b)
    }

    /// Neither event's issue must precede the other's: the trace admits
    /// executions with either order.
    pub fn concurrent(&self, a: EventId, b: EventId) -> bool {
        a != b && !self.happens_before(a, b) && !self.happens_before(b, a)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::Edge;
    use crate::perturb::DeltaClass;

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

    /// Two ranks, one message 0→1: send (0,1) start reaches recv (1,1) end.
    /// Edges are emitted in a topological order, as the recorder guarantees.
    pub(crate) fn two_rank_message() -> EventGraph {
        let mut g = EventGraph::new(&[3, 3]);
        for s in 0..3u64 {
            for r in 0..2u32 {
                if s > 0 {
                    g.add_edge(edge(NodeId::end(r, s - 1), NodeId::start(r, s), false));
                }
                if (r, s) == (1, 1) {
                    g.add_edge(edge(NodeId::start(0, 1), NodeId::end(1, 1), true));
                }
                g.add_edge(edge(NodeId::start(r, s), NodeId::end(r, s), false));
            }
        }
        g
    }

    /// The same two-rank index in the dense layout earlier versions cached.
    pub(crate) fn dense_layout_blob() -> Vec<u8> {
        let (p, counts) = (2u64, [3u64, 3]);
        let issue = [1, 0, 2, 0, 3, 0, 0, 1, 0, 2, 2, 3u64];
        let complete = [0, 0, 1, 0, 2, 0, 0, 0, 0, 1, 1, 2u64];
        std::iter::once(&p)
            .chain(&counts)
            .chain(&issue)
            .chain(&complete)
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }

    #[test]
    fn program_order_and_message_order() {
        let hb = HbIndex::build(&two_rank_message());
        assert!(hb.happens_before((0, 0), (0, 2)));
        assert!(!hb.happens_before((0, 2), (0, 0)));
        assert!(!hb.happens_before((0, 0), (0, 0)));
        // start(send 0,1) ⇝ end(recv 1,1) ⇝ start(1,2): issue order holds.
        assert!(hb.happens_before((0, 1), (1, 2)));
        // ...but the send's *completion* is not ordered before (1,2)...
        assert!(!hb.completes_before((0, 1), (1, 2)));
        // ...while the send's predecessor completed before issuing it.
        assert!(hb.completes_before((0, 0), (1, 2)));
        // Reverse direction stays concurrent.
        assert!(hb.concurrent((1, 0), (0, 2)));
        assert!(!hb.concurrent((0, 1), (1, 2)));
        // The same facts as thresholds: two of rank 0's events must have
        // been issued and one completed before (1,2) starts; nothing of
        // rank 1 before any event of rank 0; own events by program order.
        assert_eq!(hb.issue_horizon(0, (1, 2)), 2);
        assert_eq!(hb.completion_horizon(0, (1, 2)), 1);
        assert_eq!(hb.issue_horizon(1, (0, 2)), 0);
        assert_eq!(hb.issue_horizon(1, (1, 2)), 2);
        assert_eq!(hb.completion_horizon(1, (1, 2)), 2);
    }

    /// A barrier hub between seq-1 events orders everything across it; the
    /// bypassed build removes exactly that ordering.
    #[test]
    fn hub_orders_and_bypass_removes() {
        let mut g = EventGraph::new(&[3, 3]);
        let hub = NodeId::hub(0, 1);
        for r in 0..2u32 {
            g.add_edge(edge(NodeId::start(r, 0), NodeId::end(r, 0), false));
            g.add_edge(edge(NodeId::end(r, 0), NodeId::start(r, 1), false));
            g.add_edge(edge(NodeId::start(r, 1), hub, true));
            g.add_edge(edge(hub, NodeId::end(r, 1), true));
            g.add_edge(edge(NodeId::end(r, 1), NodeId::start(r, 2), false));
            g.add_edge(edge(NodeId::start(r, 2), NodeId::end(r, 2), false));
        }
        let hb = HbIndex::build(&g);
        assert!(hb.happens_before((0, 0), (1, 2)));
        assert!(hb.completes_before((0, 0), (1, 2)));
        assert!(hb.happens_before((0, 1), (1, 2)));
        let without = HbIndex::build_bypassing(&g, hub);
        assert!(!without.happens_before((0, 0), (1, 2)));
        assert!(!without.completes_before((0, 0), (1, 2)));
        // Program order survives the bypass (passthrough edge).
        assert!(without.happens_before((0, 0), (0, 2)));
        assert!(without.completes_before((0, 1), (0, 2)));
    }

    #[test]
    fn cancellable_build_matches_and_aborts() {
        let g = two_rank_message();
        let live = crate::cancel::CancelToken::new();
        let hb = HbIndex::build_cancellable(&g, &live).expect("live token completes");
        let plain = HbIndex::build(&g);
        for a in 0..3u64 {
            for b in 0..3u64 {
                for (ra, rb) in [(0u32, 1u32), (1, 0), (0, 0)] {
                    assert_eq!(
                        hb.happens_before((ra, a), (rb, b)),
                        plain.happens_before((ra, a), (rb, b)),
                    );
                }
            }
        }
        let fired = crate::cancel::CancelToken::new();
        fired.cancel();
        assert_eq!(
            HbIndex::build_cancellable(&g, &fired).err(),
            Some(crate::cancel::CancelReason::Cancelled),
        );
    }

    /// Rank 1's events before the receive stay on the all-zero row; the
    /// receive's end starts the one epoch the message creates, and the
    /// event after it inherits that row.
    #[test]
    fn epochs_start_only_where_a_join_raises_a_clock() {
        let hb = HbIndex::build(&two_rank_message());
        assert_eq!(hb.epoch_rows(), 2);
        assert_eq!(hb.epoch_of, vec![0, 0, 0, 0, 0, 1]);
        // The second row is rank 1's: its own slot stays zero.
        assert_eq!(hb.issue[2..], [2, 0]);
        assert_eq!(hb.complete[2..], [1, 0]);
    }

    /// Copy-on-write: a join into a node whose row a successor already
    /// shares forks the row instead of raising it under the successor.
    /// (Only an edge list that is not in topological order gets here; the
    /// answer matches the single forward pass, which never revisits.)
    #[test]
    fn shared_row_is_copied_before_it_is_raised() {
        let mut g = EventGraph::new(&[1, 3, 1]);
        g.add_edge(edge(NodeId::start(0, 0), NodeId::end(1, 0), true));
        g.add_edge(edge(NodeId::end(1, 0), NodeId::start(1, 1), false));
        // Late: (1,1) already took end(1,0)'s row.
        g.add_edge(edge(NodeId::start(2, 0), NodeId::end(1, 0), true));
        g.add_edge(edge(NodeId::end(1, 0), NodeId::start(1, 2), false));
        let hb = HbIndex::build(&g);
        assert!(hb.happens_before((0, 0), (1, 1)));
        assert!(!hb.happens_before((2, 0), (1, 1)));
        assert!(hb.happens_before((0, 0), (1, 2)));
        assert!(hb.happens_before((2, 0), (1, 2)));
    }

    /// Events the layout declares but the recording never reached (a
    /// crash frontier) are not events of the index: it counts only the
    /// reached ones, sizes nothing by the layout, and orders nothing with
    /// a sequence number past them — or past the layout.
    #[test]
    fn events_the_graph_never_reached_are_unknown() {
        let mut g = EventGraph::new(&[1, 1 << 16]);
        g.add_edge(edge(NodeId::start(0, 0), NodeId::end(1, 0), true));
        let hb = HbIndex::build(&g);
        assert_eq!((hb.num_events(0), hb.num_events(1)), (1, 1));
        for seq in [1, (1 << 16) - 1, u64::from(u32::MAX), u64::MAX - 1] {
            assert!(!hb.happens_before((0, 0), (1, seq)));
            assert!(!hb.completes_before((0, 0), (1, seq)));
            assert_eq!(hb.issue_horizon(0, (1, seq)), 0);
        }
        let bytes = hb.to_bytes();
        assert!(bytes.len() < 128, "{} bytes", bytes.len());
        assert_eq!(
            HbIndex::from_bytes(&bytes).map(|h| h.to_bytes()),
            Some(bytes)
        );
    }

    fn all_queries(hb: &HbIndex) -> Vec<bool> {
        let mut out = Vec::new();
        for ra in 0..3u32 {
            for rb in 0..3u32 {
                for sa in 0..4u64 {
                    for sb in 0..4u64 {
                        out.push(hb.happens_before((ra, sa), (rb, sb)));
                        out.push(hb.completes_before((ra, sa), (rb, sb)));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn blob_roundtrips_and_damage_never_panics() {
        let hb = HbIndex::build(&two_rank_message());
        let bytes = hb.to_bytes();
        let back = HbIndex::from_bytes(&bytes).expect("own blob decodes");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(all_queries(&back), all_queries(&hb));
        // The length is exact: no proper prefix decodes.
        for len in 0..bytes.len() {
            assert!(HbIndex::from_bytes(&bytes[..len]).is_none(), "prefix {len}");
        }
        // Any single flipped bit either fails to decode or decodes to an
        // index every query can be asked of.
        let mut bad = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Some(hb) = HbIndex::from_bytes(&bad) {
                all_queries(&hb);
            }
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        // An epoch id with no row behind it is structural damage.
        let first_epoch = (4 + hb.p) * 8;
        bad[first_epoch..first_epoch + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(HbIndex::from_bytes(&bad).is_none());
    }

    /// The layout this one replaced: `p`, `counts`, then two dense
    /// `events × p` matrices, all `u64`. Cached copies must read as a miss.
    #[test]
    fn dense_layout_blob_decodes_to_none() {
        assert!(HbIndex::from_bytes(&dense_layout_blob()).is_none());
    }

    #[test]
    fn unknown_events_are_unordered() {
        let hb = HbIndex::build(&two_rank_message());
        assert!(!hb.happens_before((0, 1), (5, 0)));
        assert!(!hb.happens_before((5, 0), (0, 1)));
        assert!(!hb.happens_before((0, 1), (0, 99)));
        // No horizon over an unknown event or for an unknown rank — not
        // even the cell a rank past the last would alias in the next row.
        for (rank, b) in [
            (0, (5, 0)),
            (0, (0, 99)),
            (5, (0, 1)),
            (2, (0, 1)),
            (2, (1, 1)),
        ] {
            assert_eq!(hb.issue_horizon(rank, b), 0, "{rank} {b:?}");
            assert_eq!(hb.completion_horizon(rank, b), 0, "{rank} {b:?}");
        }
        assert_eq!(hb.num_events(0), 3);
        assert_eq!(hb.num_events(7), 0);
    }
}
