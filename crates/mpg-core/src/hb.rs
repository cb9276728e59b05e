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
//! one rank's nodes between such joins — as an issue row and a completion
//! row, and every event carries a `u32` epoch id on its rank. A join that
//! changes nothing starts no epoch.
//!
//! # Columns: only the questions that will be asked
//!
//! A row does not have to be `p` wide. An index is built for an
//! [`HbColumns`] map that names, per rank `r`, the foreign ranks whose
//! horizons over `r`'s events anyone will ask; `r`'s rows store exactly
//! those cells, in column order. [`HbIndex::build`] maps every rank to
//! every other (the oracle tests and the benchmark layer use it). A lint
//! run maps each rank to the ranks its events' questions name, derived
//! from the trace by `mpg-lint` (DESIGN.md §12.1):
//!
//! * the synchronization pass reads `completion_horizon(dst, send)` for
//!   every send, so a sender's row holds each rank it sends to;
//! * the race pass and the explorer compare a wildcard receive's matched
//!   send with the sends of the receiver's other sources, both ways, so a
//!   rank that sends to a wildcard receiver holds every other rank that
//!   sends to it.
//!
//! On a stencil that is the two neighbours a rank sends to. A horizon in a
//! column the map does not name answers `0`, "nothing known": the map is a
//! promise by the caller, not a guess by the index.
//!
//! # The build: full clocks on the frontier only
//!
//! The build walks the arena's edge columns once. Recorded edge order is a
//! valid topological order by construction (see [`EventGraph`]), so a
//! single forward pass of component-wise `max` joins is exact, and a node's
//! clock is final the first time it is an edge's source. Full `p`-wide
//! clocks are needed only while a node can still pass them on:
//!
//! * each node holds a 4-byte pointer into a pool of full clock pairs; a
//!   same-rank edge into a node nothing has reached yet copies the pointer,
//!   a clock only one live node points at is raised in place, and any other
//!   join that raises a component copies the clock first (copy-on-write);
//! * a node is live until its last edge has been walked, and a pool clock
//!   no live node points at goes back to the pool, so the pool holds the
//!   frontier's clocks, not the history's;
//! * when an event's start node is first a source (or dies without being
//!   one) its clock is final, and the build emits the mapped cells as the
//!   event's row. A new epoch starts only when a mapped cell differs from
//!   the rank's last emitted row; a per-clock stamp, renewed on every
//!   change, skips the comparison when nothing changed. (On an edge list
//!   that is not topological — a damaged graph — an event keeps the clock
//!   its start had when first a source: the index under-orders, as the
//!   single forward pass always did there.)
//!
//! The source's own-rank components are materialised from its [`NodeId`]
//! only when an edge leaves its rank. Build time is
//! `O(edges + joins · ranks)`, memory
//! `O(events + epochs · columns + frontier · ranks)` where `columns` is a
//! rank's mapped width. A query reads its rank's layout record, the
//! event's epoch id and one cell, after a column lookup (an index
//! computation on a full row, a binary search otherwise).
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

use crate::arena::{GraphArena, NodeIdx};
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
/// it exceeds any blob's word count, so no decoder accepts another
/// layout's bytes.
const BLOB_MAGIC: u64 = u64::from_le_bytes(*b"HBEP\x02\0\0\0");

/// An event the build has not emitted a row for yet.
const UNSET: u32 = u32::MAX;

/// Which foreign columns an [`HbIndex`] stores for each rank: rank `r`'s
/// rows hold the horizons of exactly the ranks [`HbColumns::of`]`(r)`
/// names. Columns are ascending, distinct, below the rank count and never
/// the rank itself — its own horizon is program order and needs no cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbColumns {
    /// Rank `r`'s columns are `cols[off[r]..off[r + 1]]`.
    off: Vec<usize>,
    cols: Vec<Rank>,
}

impl HbColumns {
    /// Every rank's row holds every other rank: the map under which any
    /// query can be asked.
    pub fn all(p: usize) -> Self {
        Self::new(p, (0..p).map(|_| 0..p as Rank))
    }

    /// A map over `p` ranks from each rank's wanted columns, in rank
    /// order; ranks past the end of `per_rank` get none. Order and
    /// repeats do not matter, and the rank itself and ranks `>= p` are
    /// dropped.
    pub fn new<C: IntoIterator<Item = Rank>>(
        p: usize,
        per_rank: impl IntoIterator<Item = C>,
    ) -> Self {
        let mut per_rank = per_rank.into_iter();
        let mut off = Vec::with_capacity(p + 1);
        let mut cols = Vec::new();
        off.push(0);
        for r in 0..p {
            let mut mine: Vec<Rank> = per_rank
                .next()
                .into_iter()
                .flatten()
                .filter(|&c| (c as usize) < p && c as usize != r)
                .collect();
            mine.sort_unstable();
            mine.dedup();
            cols.extend(mine);
            off.push(cols.len());
        }
        HbColumns { off, cols }
    }

    /// Number of ranks the map covers.
    pub fn num_ranks(&self) -> usize {
        self.off.len() - 1
    }

    /// Rank `rank`'s columns, ascending; empty past the last rank.
    pub fn of(&self, rank: Rank) -> &[Rank] {
        let r = rank as usize;
        match (self.off.get(r), self.off.get(r + 1)) {
            (Some(&lo), Some(&hi)) => &self.cols[lo..hi],
            _ => &[],
        }
    }

    /// Can an index under this map say how much of `column` precedes an
    /// event of `rank`? Always for the rank itself, which program order
    /// answers; never for a rank past the last.
    pub fn covers(&self, rank: Rank, column: Rank) -> bool {
        let (p, r) = (self.num_ranks(), rank as usize);
        r < p && (rank == column || position(self.of(rank), p, r, column).is_some())
    }

    /// Cells per row of rank `r` (`r` a rank of the map).
    fn width(&self, r: usize) -> usize {
        self.off[r + 1] - self.off[r]
    }
}

/// Where `column` sits among `cols`, rank `r`'s columns in a map over `p`
/// ranks.
fn position(cols: &[Rank], p: usize, r: usize, column: Rank) -> Option<usize> {
    let c = column as usize;
    if cols.len() + 1 == p {
        // Every other rank, ascending: the position is arithmetic.
        return (c < p && c != r).then(|| c - usize::from(c > r));
    }
    cols.binary_search(&column).ok()
}

/// Epoch-compressed vector clocks answering happens-before queries in
/// O(1).
///
/// Memory is `O(events + epochs · columns)`: one `u32` epoch id per event
/// and two `u32` rows (issue and completion counts) per epoch, as wide as
/// the rank's [`HbColumns`] entry, where an epoch starts only at an event
/// whose mapped cells differ from its predecessor's — on a stencil trace,
/// one event in seven under the full map. Queries on events outside the
/// graph return `false` (nothing is known to be ordered with them).
#[derive(Debug, Clone)]
pub struct HbIndex {
    /// Per rank: where its events, columns and rows lie.
    ranks: Vec<RankRows>,
    /// Epoch of every event's start subevent among its rank's rows.
    epoch_of: Vec<u32>,
    /// The cells each rank's rows hold.
    columns: HbColumns,
    /// `issue[row(b) + position(r)] >= s+1` ⟺ `start(r, s) ⇝ start(b)`,
    /// for `r` a mapped column of `b`'s rank.
    issue: Vec<Clock>,
    /// `complete[row(b) + position(r)] >= s+1` ⟺ `end(r, s) ⇝ start(b)`.
    complete: Vec<Clock>,
}

/// Where one rank's part of an [`HbIndex`] lies, in one place so a query
/// reads it with one load.
#[derive(Debug, Clone, Copy)]
struct RankRows {
    /// Events of the rank the graph reached (max seq + 1 over its nodes).
    events: u64,
    /// Position of the rank's first event in `epoch_of`; its epoch ids are
    /// all `< rows`.
    first_event: usize,
    /// Position of the rank's first column in the map.
    first_column: usize,
    /// Cells per row: the rank's column count.
    width: usize,
    /// Rows, row 0 (all zero) included.
    rows: usize,
    /// Position of the rank's row 0 in `issue` and `complete`.
    first_cell: usize,
}

/// Ranks with these event, column and row counts, laid out back to back,
/// and the totals `[events, columns, cells]`; `None` when a position
/// overflows.
fn lay_out(
    events: &[u64],
    widths: &[usize],
    rows: &[usize],
) -> Option<(Vec<RankRows>, [usize; 3])> {
    let mut ranks = Vec::with_capacity(events.len());
    let mut next = [0usize; 3];
    for ((&events, &width), &rows) in events.iter().zip(widths).zip(rows) {
        let [first_event, first_column, first_cell] = next;
        ranks.push(RankRows {
            events,
            first_event,
            first_column,
            width,
            rows,
            first_cell,
        });
        next = [
            first_event.checked_add(usize::try_from(events).ok()?)?,
            first_column.checked_add(width)?,
            first_cell.checked_add(rows.checked_mul(width)?)?,
        ];
    }
    Some((ranks, next))
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

/// `n` copies of `value`, unless the allocator refuses the request.
fn filled<T: Clone>(n: usize, value: T) -> Result<Vec<T>, Abort> {
    let mut v = Vec::new();
    v.try_reserve_exact(n).map_err(oversized)?;
    v.resize(n, value);
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

/// Rows in `words` cells of `width`-cell rows; a rank with no columns has
/// its one empty row.
fn rows_in(words: usize, width: usize) -> usize {
    words.checked_div(width).unwrap_or(1)
}

/// The transient state of one build: full clocks for the live nodes, and
/// the projected rows emitted behind them.
struct Build<'a> {
    p: usize,
    columns: &'a HbColumns,
    offsets: &'a [usize],
    // ---- the frontier ----
    /// Pool clock `k` is `issue[k*p..(k+1)*p]` and the same span of
    /// `complete`, its owner's own slot zero. Clock 0 is the all-zero one
    /// every node starts on: shared, never raised, never freed.
    issue: Vec<Clock>,
    complete: Vec<Clock>,
    /// Per pool clock: the live nodes pointing at it. With one, that node
    /// may raise it in place.
    refs: Vec<u32>,
    /// Per pool clock: a stamp unique over the build, renewed whenever the
    /// contents change, so an unchanged stamp means an unchanged clock.
    stamp: Vec<u64>,
    stamps: u64,
    /// Pool clocks no live node points at.
    free: Vec<u32>,
    /// Per node: its pool clock.
    slot: Vec<u32>,
    /// Per node: the edges still to walk that touch it. At zero the node
    /// is dead and lets go of its clock.
    left: Vec<u32>,
    /// The source's clock as the sink sees it, rebuilt per join.
    from_issue: Vec<Clock>,
    from_complete: Vec<Clock>,
    // ---- the projection ----
    /// Per event: its epoch on its rank, [`UNSET`] until emitted.
    epoch_of: Vec<u32>,
    /// Per rank: its rows so far, row 0 all zero.
    rows_issue: Vec<Vec<Clock>>,
    rows_complete: Vec<Vec<Clock>>,
    /// Per rank: the stamp of the pool clock its last emitted event read.
    last_stamp: Vec<u64>,
}

impl<'a> Build<'a> {
    fn new(
        p: usize,
        columns: &'a HbColumns,
        offsets: &'a [usize],
        left: Vec<u32>,
    ) -> Result<Self, Abort> {
        let zero_rows = |r: usize| filled(columns.width(r), 0);
        Ok(Build {
            p,
            columns,
            offsets,
            issue: filled(p, 0)?,
            complete: filled(p, 0)?,
            refs: vec![0],
            stamp: vec![0],
            stamps: 0,
            free: Vec::new(),
            slot: filled(left.len(), 0)?,
            left,
            from_issue: filled(p, 0)?,
            from_complete: filled(p, 0)?,
            epoch_of: filled(offsets[p], UNSET)?,
            rows_issue: (0..p).map(zero_rows).collect::<Result<_, _>>()?,
            rows_complete: (0..p).map(zero_rows).collect::<Result<_, _>>()?,
            last_stamp: filled(p, 0)?,
        })
    }

    fn span(&self, k: u32) -> std::ops::Range<usize> {
        // The clock is in the pool, so its end fits a `usize`.
        k as usize * self.p..(k as usize + 1) * self.p
    }

    /// A fresh stamp for clock `k`, whose contents just changed.
    fn touch(&mut self, k: u32) {
        self.stamps += 1;
        self.stamp[k as usize] = self.stamps;
    }

    /// A pool clock holding a copy of clock `k`, for one node. Pool ids
    /// are range-checked here, where they are made.
    fn fork(&mut self, k: u32) -> Result<u32, Abort> {
        let span = self.span(k);
        let copy = match self.free.pop() {
            Some(reused) => {
                let to = self.span(reused).start;
                self.issue.copy_within(span.clone(), to);
                self.complete.copy_within(span, to);
                reused
            }
            None => {
                let id = u32::try_from(self.refs.len()).map_err(oversized)?;
                for clocks in [&mut self.issue, &mut self.complete] {
                    clocks.try_reserve(self.p).map_err(oversized)?;
                    clocks.extend_from_within(span.clone());
                }
                self.refs.push(0);
                self.stamp.push(0);
                id
            }
        };
        self.refs[copy as usize] = 1;
        self.touch(copy);
        Ok(copy)
    }

    /// One node stops pointing at clock `k`.
    fn release(&mut self, k: u32) {
        if k != 0 {
            self.refs[k as usize] -= 1;
            if self.refs[k as usize] == 0 {
                self.free.push(k);
            }
        }
    }

    /// `epoch_of`'s slot for node `n`, when it is the start of an event of
    /// the index.
    fn event_of(&self, n: &NodeId) -> Option<usize> {
        let r = rank_of(n, self.p).filter(|_| n.point == Point::Start)?;
        let at = self.offsets[r].checked_add(usize::try_from(n.seq).ok()?)?;
        (at < self.offsets[r + 1]).then_some(at)
    }

    /// Gives event `at` of rank `r` the row of node `n`'s clock, which is
    /// final: the rank's last row when no mapped cell differs, a new one
    /// otherwise.
    fn emit(&mut self, n: NodeIdx, r: usize, at: usize) -> Result<(), Abort> {
        let k = self.slot[n as usize];
        let (rows_issue, rows_complete) = (&mut self.rows_issue[r], &mut self.rows_complete[r]);
        if self.stamp[k as usize] != self.last_stamp[r] {
            self.last_stamp[r] = self.stamp[k as usize];
            let cols = self.columns.of(r as Rank);
            let base = k as usize * self.p;
            let tail = rows_issue.len() - cols.len();
            let same = cols.iter().enumerate().all(|(j, &c)| {
                rows_issue[tail + j] == self.issue[base + c as usize]
                    && rows_complete[tail + j] == self.complete[base + c as usize]
            });
            if !same {
                for (rows, clock) in [
                    (&mut *rows_issue, &self.issue),
                    (&mut *rows_complete, &self.complete),
                ] {
                    rows.try_reserve(cols.len()).map_err(oversized)?;
                    rows.extend(cols.iter().map(|&c| clock[base + c as usize]));
                }
            }
        }
        let rows = rows_in(rows_issue.len(), self.columns.width(r));
        // Fewer rows than events, and events fit the `u32` node space.
        self.epoch_of[at] = (rows - 1) as u32;
        Ok(())
    }

    /// The projection, the frontier dropped: every event's epoch (those
    /// whose start node no edge reached on the zero row) and each rank's
    /// rows.
    fn finish(self) -> (Vec<u32>, Vec<Vec<Clock>>, Vec<Vec<Clock>>) {
        let mut epoch_of = self.epoch_of;
        for e in &mut epoch_of {
            if *e == UNSET {
                *e = 0;
            }
        }
        (epoch_of, self.rows_issue, self.rows_complete)
    }

    /// Walks one edge past node `n`; at its last edge the node emits its
    /// row if it is an event start that never was a source, and lets go
    /// of its clock.
    fn retire(&mut self, n: NodeIdx, id: &NodeId) -> Result<(), Abort> {
        self.left[n as usize] -= 1;
        if self.left[n as usize] > 0 {
            return Ok(());
        }
        if let Some(at) = self.event_of(id).filter(|&at| self.epoch_of[at] == UNSET) {
            self.emit(n, id.rank as usize, at)?;
        }
        let k = std::mem::take(&mut self.slot[n as usize]);
        self.release(k);
        Ok(())
    }

    /// The edge `src → dst`: emits `src`'s row if this is the first edge it
    /// is the source of, joins, and retires both ends.
    fn walk(&mut self, arena: &GraphArena, src: NodeIdx, dst: NodeIdx) -> Result<(), Abort> {
        let (src_id, dst_id) = (arena.node_id(src), arena.node_id(dst));
        if let Some(at) = self
            .event_of(&src_id)
            .filter(|&at| self.epoch_of[at] == UNSET)
        {
            self.emit(src, src_id.rank as usize, at)?;
        }
        self.join(src, dst, &src_id, &dst_id)?;
        self.retire(src, &src_id)?;
        self.retire(dst, &dst_id)
    }

    /// `clock(dst) = max(clock(dst), clock(src))` over the foreign
    /// components of `dst`.
    fn join(
        &mut self,
        src: NodeIdx,
        dst: NodeIdx,
        src_id: &NodeId,
        dst_id: &NodeId,
    ) -> Result<(), Abort> {
        let (ks, kd) = (self.slot[src as usize], self.slot[dst as usize]);
        let src_own = own(src_id, self.p);
        let dst_rank = rank_of(dst_id, self.p);
        if dst_rank.is_some() && dst_rank == src_own.map(|(r, ..)| r) {
            // Program order: the clocks already share their zero own slot.
            if ks == kd || ks == 0 {
                return Ok(());
            }
            if kd == 0 {
                self.slot[dst as usize] = ks;
                self.refs[ks as usize] += 1;
                return Ok(());
            }
        }
        let span = self.span(ks);
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
        let span = self.span(kd);
        let raises = |from: &[Clock], into: &[Clock]| from.iter().zip(into).any(|(a, b)| a > b);
        if !raises(&self.from_issue, &self.issue[span.clone()])
            && !raises(&self.from_complete, &self.complete[span.clone()])
        {
            return Ok(());
        }
        let kd = if kd != 0 && self.refs[kd as usize] == 1 {
            kd
        } else {
            let copy = self.fork(kd)?;
            self.release(kd);
            self.slot[dst as usize] = copy;
            copy
        };
        let span = self.span(kd);
        let raise = |from: &[Clock], into: &mut [Clock]| {
            for (a, b) in into.iter_mut().zip(from) {
                *a = (*a).max(*b);
            }
        };
        raise(&self.from_issue, &mut self.issue[span.clone()]);
        raise(&self.from_complete, &mut self.complete[span]);
        self.touch(kd);
        Ok(())
    }
}

impl HbIndex {
    /// Builds the index from a recorded graph under the all-columns map
    /// ([`HbColumns::all`]): every query can be asked of it.
    ///
    /// Per-rank event counts are those the graph reached (holes past a
    /// crash frontier are not events of the index). A graph whose clock
    /// rows cannot be allocated yields an index that knows no events
    /// instead of an abort: every query on it answers `false`.
    pub fn build(graph: &EventGraph) -> Self {
        let columns = HbColumns::all(graph.num_ranks());
        Self::build_inner(graph, &columns, None, None).expect("uncancellable build completes")
    }

    /// [`HbIndex::build`] storing only the cells `columns` names, with a
    /// cooperative [`CancelToken`] polled every [`CHECK_INTERVAL`] edges
    /// of the forward pass. Partial clocks are useless (queries would
    /// silently under-order), so a fired token aborts the build entirely
    /// rather than degrading.
    pub fn build_for(
        graph: &EventGraph,
        columns: &HbColumns,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, CancelReason> {
        Self::build_inner(graph, columns, None, cancel)
    }

    /// Builds the index under `columns` with one collective hub
    /// *bypassed*: the hub's exit edges are dropped and each participant's
    /// arrival edge is replaced by a local `start → end` passthrough, i.e.
    /// the collective still takes its turn in program order but
    /// synchronizes nobody. Comparing this index against the one built
    /// with the hub tells whether the collective's ordering is implied by
    /// the rest of the graph (`MPG-REDUNDANT-SYNC`).
    pub fn build_bypassing(graph: &EventGraph, hub: NodeId, columns: &HbColumns) -> Self {
        Self::build_inner(graph, columns, Some(hub), None).expect("uncancellable build completes")
    }

    fn build_inner(
        graph: &EventGraph,
        columns: &HbColumns,
        bypass: Option<NodeId>,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, CancelReason> {
        let p = graph.num_ranks();
        let fitted;
        let columns = if columns.num_ranks() == p {
            columns
        } else {
            fitted = HbColumns::new(p, (0..p).map(|r| columns.of(r as Rank).iter().copied()));
            &fitted
        };
        match Self::try_build(graph, columns, bypass, cancel) {
            Ok(hb) => Ok(hb),
            Err(Abort::Cancelled(reason)) => Err(reason),
            Err(Abort::Oversized) => Ok(HbIndex {
                ranks: Vec::new(),
                epoch_of: Vec::new(),
                columns: HbColumns::all(0),
                issue: Vec::new(),
                complete: Vec::new(),
            }),
        }
    }

    fn try_build(
        graph: &EventGraph,
        columns: &HbColumns,
        bypass: Option<NodeId>,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, Abort> {
        let arena = graph.arena();
        let p = graph.num_ranks();
        // Events the graph reached, per rank; the layout holds fewer than
        // `u32::MAX / 3` events, so no count reaches `Clock::MAX`.
        let counts: Vec<u64> = (0..p).map(|r| arena.events_reached(r)).collect();
        let mut offsets: Vec<usize> = filled(p + 1, 0)?;
        for r in 0..p {
            offsets[r + 1] = offsets[r] + counts[r] as usize;
        }

        // The edges the build walks: all of them, or, bypassing a hub,
        // none out of it and every one into it passed through.
        let bypass_idx = bypass.and_then(|h| arena.node_index(&h));
        let edge = |e: usize| -> Option<(NodeIdx, NodeIdx)> {
            let (src, dst) = (arena.edge_src(e), arena.edge_dst(e));
            match bypass_idx {
                Some(h) if src == h => None,
                // Local passthrough: the collective still takes its turn
                // in program order but synchronizes nobody.
                Some(h) if dst == h => {
                    let s = arena.node_id(src);
                    Some((src, arena.node_index(&NodeId::end(s.rank, s.seq))?))
                }
                _ => Some((src, dst)),
            }
        };
        let mut left: Vec<u32> = filled(arena.num_nodes(), 0)?;
        for (src, dst) in (0..arena.num_edges()).filter_map(edge) {
            for n in [src, dst] {
                left[n as usize] = left[n as usize].checked_add(1).ok_or(Abort::Oversized)?;
            }
        }

        let mut build = Build::new(p, columns, &offsets, left)?;
        for e in 0..arena.num_edges() {
            if let Some(token) = cancel {
                if (e as u64).is_multiple_of(CHECK_INTERVAL) {
                    if let Some(reason) = token.fired() {
                        return Err(Abort::Cancelled(reason));
                    }
                }
            }
            if let Some((src, dst)) = edge(e) {
                build.walk(arena, src, dst)?;
            }
        }

        let (epoch_of, rows_issue, rows_complete) = build.finish();
        let widths: Vec<usize> = (0..p).map(|r| columns.width(r)).collect();
        let rows: Vec<usize> = rows_issue
            .iter()
            .zip(&widths)
            .map(|(cells, &width)| rows_in(cells.len(), width))
            .collect();
        let (ranks, [_, _, cells]) = lay_out(&counts, &widths, &rows).ok_or(Abort::Oversized)?;
        let (mut issue, mut complete) = (Vec::new(), Vec::new());
        for (flat, per_rank) in [(&mut issue, rows_issue), (&mut complete, rows_complete)] {
            flat.try_reserve_exact(cells).map_err(oversized)?;
            for rank_rows in per_rank {
                flat.extend_from_slice(&rank_rows);
            }
        }
        Ok(HbIndex {
            ranks,
            epoch_of,
            columns: columns.clone(),
            issue,
            complete,
        })
    }

    /// Number of ranks the index covers.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// The cells the index stores: which horizons it can answer.
    pub fn columns(&self) -> &HbColumns {
        &self.columns
    }

    /// Number of stored clock rows: one per epoch, the all-zero row every
    /// rank starts on included. Exposed so tests can pin the compression.
    #[doc(hidden)]
    pub fn epoch_rows(&self) -> usize {
        self.ranks.iter().map(|at| at.rows).sum()
    }

    /// Number of stored clock cells per relation: the rows' total width.
    /// Exposed so tests can pin the column map.
    #[doc(hidden)]
    pub fn clock_cells(&self) -> usize {
        self.issue.len()
    }

    /// Serializes the index to a flat little-endian blob for cache
    /// storage: three `u64` header words (the layout magic, `p`, the event
    /// count), then per rank as `u64` its event count, its column count
    /// and its row count, then as `u32` the columns, `epoch_of`, the issue
    /// rows and the completion rows; offsets are prefix sums and
    /// recomputed on load. Integrity is the cache envelope's job — this
    /// layer only guards structure.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = [
            BLOB_MAGIC,
            self.ranks.len() as u64,
            self.epoch_of.len() as u64,
        ];
        let per_rank = |field: fn(&RankRows) -> u64| self.ranks.iter().map(field);
        let cols = &self.columns.cols;
        let mut out = Vec::with_capacity(
            (header.len() + 3 * self.ranks.len()) * 8
                + (cols.len() + self.epoch_of.len() + 2 * self.issue.len()) * 4,
        );
        for w in header
            .into_iter()
            .chain(per_rank(|at| at.events))
            .chain(per_rank(|at| at.width as u64))
            .chain(per_rank(|at| at.rows as u64))
        {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &x in cols
            .iter()
            .chain(&self.epoch_of)
            .chain(&self.issue)
            .chain(&self.complete)
        {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Rebuilds an index from [`HbIndex::to_bytes`] output. `None` on any
    /// structural inconsistency: another layout (every earlier one
    /// included), a length that disagrees with the header or overflows, an
    /// event count that is not the sum of the per-rank counts, a column
    /// list that is not ascending or names the rank itself or no rank, an
    /// epoch id with no row.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let words = |b: &[u8]| -> Vec<u64> {
            b.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect()
        };
        let (header, body) = bytes.split_at_checked(24)?;
        let header = words(header);
        if header[0] != BLOB_MAGIC {
            return None;
        }
        let p = usize::try_from(header[1]).ok()?;
        let events = usize::try_from(header[2]).ok()?;
        let (tables, body) = body.split_at_checked(p.checked_mul(24)?)?;
        let tables = words(tables);
        let (counts, rest) = tables.split_at(p);
        let as_usize = |w: &[u64]| -> Option<Vec<usize>> {
            w.iter().map(|&x| usize::try_from(x).ok()).collect()
        };
        let (widths, rows) = (as_usize(&rest[..p])?, as_usize(&rest[p..])?);
        let (ranks, [total_events, total_columns, cells]) = lay_out(counts, &widths, &rows)?;
        if total_events != events {
            return None;
        }
        let cells_in_body = total_columns
            .checked_add(events)?
            .checked_add(cells.checked_mul(2)?)?;
        if body.len() != cells_in_body.checked_mul(4)? {
            return None;
        }
        let mut body = body
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")));
        let cols: Vec<Rank> = body.by_ref().take(total_columns).collect();
        let epoch_of: Vec<u32> = body.by_ref().take(events).collect();
        for (r, at) in ranks.iter().enumerate() {
            let mine = &cols[at.first_column..at.first_column + at.width];
            let ascending = mine.windows(2).all(|w| w[0] < w[1]);
            if !ascending || mine.iter().any(|&c| c as usize >= p || c as usize == r) {
                return None;
            }
            let epochs = &epoch_of[at.first_event..][..at.events as usize];
            if epochs.iter().any(|&e| e as usize >= at.rows) {
                return None;
            }
        }
        let issue: Vec<Clock> = body.by_ref().take(cells).collect();
        let complete: Vec<Clock> = body.collect();
        let mut off: Vec<usize> = ranks.iter().map(|at| at.first_column).collect();
        off.push(total_columns);
        Some(HbIndex {
            ranks,
            epoch_of,
            columns: HbColumns { off, cols },
            issue,
            complete,
        })
    }

    /// Number of events of `rank` seen in the graph.
    pub fn num_events(&self, rank: Rank) -> u64 {
        self.ranks.get(rank as usize).map_or(0, |at| at.events)
    }

    /// How many of `rank`'s subevents counted by `clocks` reach `start(b)`:
    /// the cell of column `rank` in `b`'s row, with `rank`'s own events
    /// answered from program order — the stored rows hold no own-rank
    /// component — and `0` for an unknown `b`, a rank the index does not
    /// cover, or a column the map does not name for `b`'s rank.
    fn horizon(&self, clocks: &[Clock], rank: Rank, b: EventId) -> Seq {
        let Some(at) = self.ranks.get(b.0 as usize).filter(|at| b.1 < at.events) else {
            return 0;
        };
        if rank == b.0 {
            return b.1;
        }
        let cols = &self.columns.cols[at.first_column..at.first_column + at.width];
        let Some(column) = position(cols, self.ranks.len(), b.0 as usize, rank) else {
            return 0;
        };
        let epoch = self.epoch_of[at.first_event + b.1 as usize] as usize;
        Seq::from(clocks[at.first_cell + epoch * at.width + column])
    }

    /// `a.seq < horizon(a.rank, b)`: the one place a clock cell meets
    /// a sequence number.
    fn ordered(&self, clocks: &[Clock], a: EventId, b: EventId) -> bool {
        a.1 < self.horizon(clocks, a.0, b)
    }

    /// The number of `rank`'s events that must have been *issued* before
    /// `b` can start: `happens_before((rank, s), b)` exactly when
    /// `s < issue_horizon(rank, b)`. `0` when `b` is unknown, `rank` is
    /// not a rank of the graph, or the index's [`HbColumns`] do not cover
    /// `rank` for `b`'s rank.
    pub fn issue_horizon(&self, rank: Rank, b: EventId) -> Seq {
        self.horizon(&self.issue, rank, b)
    }

    /// The number of `rank`'s events that must have *completed* before `b`
    /// can start: `completes_before((rank, s), b)` exactly when
    /// `s < completion_horizon(rank, b)`. `0` when `b` is unknown, `rank`
    /// is not a rank of the graph, or the index's [`HbColumns`] do not
    /// cover `rank` for `b`'s rank.
    pub fn completion_horizon(&self, rank: Rank, b: EventId) -> Seq {
        self.horizon(&self.complete, rank, b)
    }

    /// Issue order: must `a` have started before `b` could start?
    ///
    /// Irreflexive and transitive; same-rank events are ordered by sequence
    /// number (MPI program order). Returns `false` for unknown events, and
    /// for a pair the index's [`HbColumns`] do not cover.
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

    /// The same two-rank index in the first epoch layout (`"HBEP\x01"`):
    /// four `u64` header words, `counts`, then `epoch_of` and two shared
    /// `p`-wide row stores as `u32`.
    pub(crate) fn v1_layout_blob() -> Vec<u8> {
        let magic = u64::from_le_bytes(*b"HBEP\x01\0\0\0");
        let words = [magic, 2, 6, 2, 3, 3];
        let cells = [0u32, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 1, 0];
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .chain(cells.iter().flat_map(|c| c.to_le_bytes()))
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
        let without = HbIndex::build_bypassing(&g, hub, &HbColumns::all(2));
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
        let all = HbColumns::all(2);
        let hb = HbIndex::build_for(&g, &all, Some(&live)).expect("live token completes");
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
            HbIndex::build_for(&g, &all, Some(&fired)).err(),
            Some(crate::cancel::CancelReason::Cancelled),
        );
    }

    /// Rank 1's events before the receive stay on its all-zero row; the
    /// receive's end starts the one epoch the message creates, and the
    /// event after it inherits that row.
    #[test]
    fn epochs_start_only_where_a_join_raises_a_clock() {
        let hb = HbIndex::build(&two_rank_message());
        let rows: Vec<usize> = hb.ranks.iter().map(|at| at.rows).collect();
        assert_eq!(rows, [1, 2]);
        assert_eq!(hb.epoch_of, vec![0, 0, 0, 0, 0, 1]);
        // One cell per row, the other rank's: rank 0's zero row, then rank
        // 1's zero row and its epoch.
        assert_eq!(hb.issue, [0, 0, 2]);
        assert_eq!(hb.complete, [0, 0, 1]);
    }

    /// A map that names no column for rank 0 stores no cell for it, and
    /// every query the map covers answers as under the full map.
    #[test]
    fn rows_hold_the_mapped_columns_only() {
        let g = two_rank_message();
        let full = HbIndex::build(&g);
        let narrow = HbColumns::new(2, [vec![], vec![0, 0, 1, 7]]);
        assert_eq!(narrow.of(0), [0u32; 0]);
        assert_eq!(narrow.of(1), [0]);
        assert!(narrow.covers(0, 0) && narrow.covers(1, 0) && !narrow.covers(0, 1));
        assert!(!narrow.covers(2, 2));
        let hb = HbIndex::build_for(&g, &narrow, None).expect("no token");
        assert_eq!(hb.columns(), &narrow);
        assert_eq!((hb.issue.len(), hb.complete.len()), (2, 2));
        for b in (0..2u32).flat_map(|r| (0..3u64).map(move |s| (r, s))) {
            for q in 0..2u32 {
                if narrow.covers(b.0, q) {
                    assert_eq!(hb.issue_horizon(q, b), full.issue_horizon(q, b));
                    assert_eq!(hb.completion_horizon(q, b), full.completion_horizon(q, b));
                } else {
                    assert_eq!(hb.issue_horizon(q, b), 0);
                }
            }
        }
        let bytes = hb.to_bytes();
        assert!(bytes.len() < full.to_bytes().len());
        let back = HbIndex::from_bytes(&bytes).expect("own blob decodes");
        assert_eq!((back.columns(), back.to_bytes()), (&narrow, bytes));
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
        let g = two_rank_message();
        let narrow = HbColumns::new(2, [vec![], vec![0]]);
        let projected = HbIndex::build_for(&g, &narrow, None).expect("no token");
        for hb in [HbIndex::build(&g), projected] {
            let bytes = hb.to_bytes();
            let back = HbIndex::from_bytes(&bytes).expect("own blob decodes");
            assert_eq!(back.to_bytes(), bytes);
            assert_eq!(all_queries(&back), all_queries(&hb));
            // The length is exact: no proper prefix decodes.
            for len in 0..bytes.len() {
                assert!(HbIndex::from_bytes(&bytes[..len]).is_none(), "prefix {len}");
            }
            // Any single flipped bit either fails to decode or decodes to
            // an index every query can be asked of.
            let mut bad = bytes.clone();
            for bit in 0..bytes.len() * 8 {
                bad[bit / 8] ^= 1 << (bit % 8);
                if let Some(hb) = HbIndex::from_bytes(&bad) {
                    all_queries(&hb);
                }
                bad[bit / 8] ^= 1 << (bit % 8);
            }
            // An epoch id with no row behind it is structural damage (rank
            // 0 has its zero row only).
            let first_epoch = 24 + 24 * hb.num_ranks() + 4 * hb.columns.cols.len();
            bad[first_epoch..first_epoch + 4].copy_from_slice(&1u32.to_le_bytes());
            assert!(HbIndex::from_bytes(&bad).is_none());
        }
        // So is a column naming the rank itself.
        let mut bad = HbIndex::build(&g).to_bytes();
        bad[48..52].copy_from_slice(&0u32.to_le_bytes());
        assert!(HbIndex::from_bytes(&bad).is_none());
    }

    /// The layouts this one replaced: the dense one (`p`, `counts`, then
    /// two `events × p` matrices, all `u64`) and the first epoch layout,
    /// whose rows were `p` wide. Cached copies must read as a miss.
    #[test]
    fn dense_layout_blob_decodes_to_none() {
        assert!(HbIndex::from_bytes(&dense_layout_blob()).is_none());
        let v1 = v1_layout_blob();
        assert!(HbIndex::from_bytes(&v1).is_none());
        // Not even with its layout word rewritten to this one's.
        let mut relabelled = v1;
        relabelled[..8].copy_from_slice(&BLOB_MAGIC.to_le_bytes());
        assert!(HbIndex::from_bytes(&relabelled).is_none());
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
