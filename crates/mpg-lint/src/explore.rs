//! Pass 8: bounded schedule-space exploration (predictive analysis).
//!
//! The recorded trace is *one* point in the space of schedules the
//! program admits: every wildcard receive could have resolved to any
//! envelope-compatible, happens-before-concurrent sender. Pass 4 proves
//! single swaps exist and stops; this pass walks the space those swaps
//! open up, DPOR-style:
//!
//! * **Seeding.** The frontier starts from the pass-4 candidate
//!   enumeration over the recorded matching — including alternates whose
//!   recorded consumer is a *specific* receive, which pass 4 must skip
//!   (they are not single-swap witnesses) but which are exactly where
//!   alternate-schedule deadlocks hide: force the wildcard anyway and
//!   the pinned receive starves.
//! * **Exploration.** A frontier entry is a run of interned resolution
//!   ids in one flat arena (`Frontier`); it becomes a [`MatchPlan`]
//!   when it is popped, is re-replayed through the shared
//!   [`forced_replay`] path and classified. A completed alternate is
//!   branched further: new candidates are enumerated *on the alternate
//!   matching* and appended, up to the depth bound. Only the at most
//!   `budget` popped entries ever exist as plans; an unexplored one costs
//!   a few words.
//! * **Pruning.** A sleep set over order-insensitive plan keys kills every
//!   rediscovery of an already-scheduled resolution set (two discovery
//!   orders of the same swaps are the same schedule). A persistent-set
//!   restriction only branches on receives at or after the deepest
//!   already-forced receive in the current match order — swaps at
//!   earlier receives commute with the suffix and are covered by the
//!   sibling branch seeded at shallower depth. Pruning can only cost
//!   *coverage*, never soundness: every emitted finding is validated by
//!   its own concrete forced replay.
//! * **Honest coverage.** [`ExploreStats`] counts schedules replayed,
//!   plans pruned, and — when the budget runs out or a cancel token
//!   fires — exactly how many frontier entries went unexplored. The
//!   report renders this always; truncation is never silent.
//!
//! Two rules come out: `MPG-MAY-DEADLOCK` when a forced replay reaches a
//! wait-for cycle (the finding names the full forced match sequence, so
//! anyone can re-replay it), and `MPG-SCHEDULE-DIVERGENCE` when a
//! completed alternate shifts the estimated makespan past a threshold —
//! quantifying how schedule-sensitive the paper's replay predictions
//! are. Deeper-than-seed branching reuses the *recorded* happens-before
//! index as a concurrency over-approximation; that is fine for the same
//! reason pruning is: candidates are hypotheses, replays are proof.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use crate::hb_races::{Channels, Sweep};
use crate::progress::{forced_replay, Matching};
use crate::LintContext;
use mpg_core::forced::{ForcedMatch, ForcedOutcome, MatchPlan};
use mpg_core::{CancelReason, CancelToken};
use mpg_trace::{sort_diagnostics, Diagnostic, MemTrace, Rank, Rule, Seq, Severity};

/// Tunables of the schedule-space explorer.
#[derive(Debug, Clone, Default)]
pub struct ExploreOptions {
    /// Maximum number of forced replays. `0` disables the pass entirely —
    /// the pass-manager default, so plain `lint_full` output is
    /// bit-identical to pre-explorer builds.
    pub budget: u64,
    /// Deepest level of the walk. The seeds — the single candidate swaps
    /// of the recorded matching, one or two forced matches each — are
    /// level 1 and are replayed whatever this says; a completed level-`k`
    /// plan branches into level `k + 1` only while `k < depth`. So this
    /// bounds the swaps composed into one plan (a plan holds up to twice
    /// as many forced matches), not its forced matches, and `0` and `1`
    /// both mean "the seeds, no branching".
    pub depth: usize,
    /// `MPG-SCHEDULE-DIVERGENCE` fires when an alternate schedule shifts
    /// the estimated makespan by more than this percentage.
    pub divergence_pct: f64,
    /// Deterministic rotation of the seed frontier: different seeds visit
    /// the space in a different order under small budgets.
    pub seed: u64,
    /// Optional cooperative-cancellation token, polled between replays.
    /// Never part of the configuration fingerprint.
    pub cancel: Option<CancelToken>,
}

impl ExploreOptions {
    /// The CLI/service defaults (`mpgtool explore` without flags):
    /// budget 64, depth 3, 10% divergence threshold, seed 0.
    pub fn cli_default() -> Self {
        ExploreOptions {
            budget: 64,
            depth: 3,
            divergence_pct: 10.0,
            seed: 0,
            ..ExploreOptions::default()
        }
    }

    /// Set the budget (builder).
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Configuration fingerprint for `mpgtool explore`'s report cache key:
    /// exactly the knobs that change the explored set. The cancel token
    /// is deliberately excluded.
    pub fn fingerprint(&self) -> String {
        format!(
            "budget={};depth={};div={};seed={}",
            self.budget, self.depth, self.divergence_pct, self.seed
        )
    }
}

/// Coverage accounting of one exploration run. Rendered in every report
/// so truncation is never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Forced replays actually executed.
    pub explored: u64,
    /// Of those, plans whose forcing wedged without a wait-for cycle
    /// (infeasible forcings; no finding derived).
    pub infeasible: u64,
    /// Frontier extensions dropped by sleep-set or persistent-set
    /// pruning.
    pub pruned: u64,
    /// Frontier entries left unexplored when the budget ran out or the
    /// run was cancelled (`0` means the frontier was exhausted).
    pub frontier_unexplored: u64,
    /// Deepest level replayed (see [`ExploreOptions::depth`]; seeds are
    /// level 1).
    pub max_depth: u64,
    /// True when the loop stopped on the budget, not on an empty
    /// frontier.
    pub budget_exhausted: bool,
    /// Why the run was cut short, when a cancel token fired mid-walk.
    pub cancelled: Option<CancelReason>,
}

impl ExploreStats {
    /// One-line coverage clause for report text.
    pub fn coverage(&self) -> String {
        if let Some(reason) = self.cancelled {
            format!(
                "coverage incomplete: cancelled ({reason}), {} frontier schedule(s) unexplored",
                self.frontier_unexplored
            )
        } else if self.budget_exhausted {
            format!(
                "coverage incomplete: budget exhausted, {} frontier schedule(s) unexplored",
                self.frontier_unexplored
            )
        } else {
            "coverage complete: frontier exhausted".to_string()
        }
    }

    /// Hand-rolled JSON object (matches the workspace's dependency-free
    /// style).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"explored\":{},\"infeasible\":{},\"pruned\":{},\"frontier_unexplored\":{},\
             \"max_depth\":{},\"budget_exhausted\":{},\"cancelled\":{}}}",
            self.explored,
            self.infeasible,
            self.pruned,
            self.frontier_unexplored,
            self.max_depth,
            self.budget_exhausted,
            match self.cancelled {
                Some(r) => format!("\"{r}\""),
                None => "null".to_string(),
            }
        )
    }
}

/// What a finding claims about its plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreFindingKind {
    /// The forced replay reached a wait-for cycle among these ranks.
    MayDeadlock {
        /// Ranks on the wait-for cycle.
        cycle: Vec<Rank>,
    },
    /// The forced replay completed with a shifted makespan estimate.
    Divergence {
        /// Estimated makespan of the recorded matching (cycles).
        base: u64,
        /// Estimated makespan of the alternate matching (cycles).
        alt: u64,
        /// Relative shift, percent.
        pct: f64,
    },
}

/// One witness-validated explorer finding: the forced-match plan plus
/// what re-replaying it does. Feeding `plan` back through
/// [`forced_replay`] reproduces the claim independently.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreFinding {
    /// The forced-match sequence (re-replayable).
    pub plan: MatchPlan,
    /// The seed wildcard receive the plan pivots on (diagnostic span).
    pub recv: (Rank, Seq),
    /// The validated claim.
    pub kind: ExploreFindingKind,
}

impl ExploreFinding {
    /// Render as a diagnostic.
    fn to_diag(&self) -> Diagnostic {
        match &self.kind {
            ExploreFindingKind::MayDeadlock { cycle } => Diagnostic::new(
                Rule::MayDeadlock,
                format!(
                    "recorded run completed, but the alternate wildcard matching \
                     [{}] replays to a wait-for cycle among ranks {cycle:?}; re-replay \
                     by forcing each listed receive onto its listed source",
                    self.plan
                ),
            )
            .at(self.recv.0, self.recv.1)
            .involving(cycle.iter().copied()),
            ExploreFindingKind::Divergence { base, alt, pct } => Diagnostic::new(
                Rule::ScheduleDivergence,
                format!(
                    "alternate wildcard matching [{}] completes but shifts the estimated \
                     makespan by {pct:.1}% ({base} -> {alt} cycles)",
                    self.plan
                ),
            )
            .at(self.recv.0, self.recv.1)
            .involving(self.plan.forced().iter().map(|f| f.source)),
        }
    }
}

/// Findings + coverage of one exploration over a built [`LintContext`].
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Witness-validated findings, in discovery order.
    pub findings: Vec<ExploreFinding>,
    /// Coverage accounting.
    pub stats: ExploreStats,
}

impl ExploreReport {
    /// The findings rendered as diagnostics.
    pub fn diags(&self) -> Vec<Diagnostic> {
        self.findings.iter().map(ExploreFinding::to_diag).collect()
    }
}

/// The pass-8 entry point over a shared context. Requires a completed
/// recorded matching and a happens-before index; degrades to an empty
/// report otherwise (the progress/causality passes already own those
/// failures). A zero budget does no work at all, and neither does a
/// recorded matching without a wildcard pair: there is nothing to seed.
pub fn explore(ctx: &LintContext<'_>, opts: &ExploreOptions) -> ExploreReport {
    let mut report = ExploreReport::default();
    let recorded = &ctx.progress.matching;
    if opts.budget == 0 || !recorded.completed || !recorded.pairs.iter().any(|p| p.posted_any) {
        return report;
    }
    let Some(hb) = ctx.hb.as_ref() else {
        return report;
    };
    let trace = ctx.trace;
    let base = matching_makespan(trace, recorded);
    let stats = &mut report.stats;
    let channels = Channels::new(recorded, trace.num_ranks());
    let mut frontier = Frontier::default();

    // Seed from the recorded matching, pinned-consumer alternates
    // included. The seed rotation makes small budgets sample different
    // neighborhoods deterministically.
    let mut seeds = Vec::new();
    let sweep = channels.sweep(trace, recorded, hb);
    extensions(&sweep, recorded, &[], |first, swap| {
        seeds.push((first, swap))
    });
    if !seeds.is_empty() {
        let rot = (opts.seed as usize) % seeds.len();
        seeds.rotate_left(rot);
    }
    for (first, swap) in seeds {
        if !frontier.offer(0..0, first, swap, 1) {
            stats.pruned += 1;
        }
    }

    while let Some((ids, depth)) = frontier.pop() {
        if let Some(token) = &opts.cancel {
            if let Some(reason) = token.fired() {
                stats.cancelled = Some(reason);
                stats.frontier_unexplored = frontier.scheduled - stats.explored;
                break;
            }
        }
        if stats.explored >= opts.budget {
            stats.budget_exhausted = true;
            stats.frontier_unexplored = frontier.scheduled - stats.explored;
            break;
        }
        stats.explored += 1;
        stats.max_depth = stats.max_depth.max(u64::from(depth));
        // The one place a frontier entry becomes a `MatchPlan`.
        let plan = frontier.plan(ids.clone());
        let seed_recv = plan.forced()[0].recv;
        let rep = forced_replay(trace, &plan);
        match rep.outcome {
            ForcedOutcome::Deadlocked => {
                // Tarjan already named the cycle; take the first cycle's
                // ranks as the finding's subject.
                let cycle = rep
                    .diags
                    .iter()
                    .find(|d| d.rule == Rule::Deadlock)
                    .map(|d| d.ranks.clone())
                    .unwrap_or_default();
                report.findings.push(ExploreFinding {
                    plan,
                    recv: seed_recv,
                    kind: ExploreFindingKind::MayDeadlock { cycle },
                });
            }
            ForcedOutcome::Completed => {
                if let (Some(b), Some(alt)) = (base, matching_makespan(trace, &rep.matching)) {
                    if b > 0 {
                        let pct = (alt.abs_diff(b)) as f64 * 100.0 / b as f64;
                        if pct > opts.divergence_pct {
                            #[cfg(test)]
                            PLANS_BUILT.set(PLANS_BUILT.get() + 1);
                            report.findings.push(ExploreFinding {
                                plan: plan.clone(),
                                recv: seed_recv,
                                kind: ExploreFindingKind::Divergence { base: b, alt, pct },
                            });
                        }
                    }
                }
                if (depth as usize) < opts.depth {
                    let sweep = channels.sweep(trace, &rep.matching, hb);
                    extensions(&sweep, &rep.matching, plan.forced(), |first, swap| {
                        if !frontier.offer(ids.clone(), first, swap, depth + 1) {
                            stats.pruned += 1;
                        }
                    });
                }
            }
            // The forcing wedged without a cycle: the forced message was
            // pinned elsewhere in a way that starves the plan without
            // mutual blocking. Not a witness of anything; counted so the
            // coverage line stays honest.
            ForcedOutcome::Stuck => stats.infeasible += 1,
        }
    }
    #[cfg(test)]
    FRONTIER_BYTES.set(frontier.bytes());
    report
}

/// Extensions of the plan forcing `forced` from the candidates of
/// `matching` (the matching its forced replay established, which `sweep`
/// is bound to), each handed to `visit` as the one or two resolutions it
/// adds: the candidate's receive onto the alternate source and, when a
/// wildcard receive consumed the alternate, that receive onto the recorded
/// source — the two messages swap. Implements the persistent-set
/// restriction: only branch on wildcard receives whose pair position in
/// the current match order is at or after the deepest already-forced
/// receive — earlier swaps commute with this suffix and belong to the
/// sibling branch that forced them first. Conflicting forcings (a receive
/// or its displaced partner already pinned by the plan) are skipped.
pub(crate) fn extensions(
    sweep: &Sweep<'_>,
    matching: &Matching,
    forced: &[ForcedMatch],
    mut visit: impl FnMut(ForcedMatch, Option<ForcedMatch>),
) {
    let forces = |recv| forced.iter().any(|f| f.recv == recv);
    let floor = matching
        .pairs
        .iter()
        .rposition(|p| forces(p.recv))
        .unwrap_or(0);
    for (i, pair) in matching.pairs.iter().enumerate().skip(floor) {
        if !pair.posted_any || forces(pair.recv) {
            continue;
        }
        sweep.candidates_of(i, true, |w| {
            if w.displaced.is_some_and(forces) {
                return;
            }
            let first = ForcedMatch {
                recv: w.recv,
                source: w.alternate.0,
            };
            // A plan names a receive once (`MatchPlan::push`: the first
            // forcing wins).
            let swap = w.displaced.filter(|&d| d != w.recv).map(|d| ForcedMatch {
                recv: d,
                source: w.matched.0,
            });
            visit(first, swap);
        });
    }
}

/// The schedules not yet replayed and the sleep set, held as what they
/// are — a few words per entry — until one is popped.
///
/// Every `ForcedMatch` the walk meets is interned to a `u32` once. A
/// scheduled entry is a run of the arena: `[len, depth]`, its `len`
/// resolution ids in plan order (the parent's, then the one or two it
/// adds), then the same ids ascending — its sleep-set key: two plans
/// forcing the same resolutions in a different discovery order explore the
/// same schedule, and equal id sets are equal `ForcedMatch` sets. Entries
/// sit in the arena in the order they were scheduled, so the FIFO queue is
/// an offset, and the sleep set is an open-addressing table of entry
/// offsets hashed by key. A pruned entry is truncated away; only
/// [`Frontier::plan`] builds a `MatchPlan`.
#[derive(Default)]
struct Frontier {
    resolutions: Vec<ForcedMatch>,
    ids: HashMap<ForcedMatch, u32, BuildHasherDefault<WordHasher>>,
    arena: Vec<u32>,
    /// Arena offset of the next entry to pop.
    head: usize,
    /// The sleep set: arena offsets of every entry ever scheduled, `EMPTY`
    /// elsewhere; a power of two long, at most half full.
    slots: Vec<u32>,
    /// Entries ever scheduled (the sleep set's size).
    scheduled: u64,
}

/// A free sleep-set slot.
const EMPTY: u32 = u32::MAX;
/// Words of an entry before its ids.
const HEADER: usize = 2;

/// One step of the multiplicative word hash: 2^64 / φ is the odd multiplier.
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Hash of an id sequence, for a table indexed by its top bits. The ids are
/// this module's own dense numbering, not bytes of the trace.
fn hash_ids(ids: &[u32]) -> u64 {
    ids.iter().fold(0, |h, &id| mix(h, u64::from(id)))
}

/// [`mix`] as a `Hasher`, for interning `ForcedMatch`es: three
/// multiplications per lookup where SipHash over the 24-byte struct was a
/// third of the walk. Those keys do come from the trace (a receive's rank
/// and sequence number, a source rank), so one written to collide them can
/// slow the interning down; the budget still bounds the walk, and no
/// result depends on the table's layout.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = mix(self.0, word);
    }

    /// The table reads the low bits, a product's weakest: hand it the top.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

impl Frontier {
    fn intern(&mut self, f: ForcedMatch) -> u32 {
        *self.ids.entry(f).or_insert_with(|| {
            self.resolutions.push(f);
            u32::try_from(self.resolutions.len() - 1).expect("fewer than 2^32 resolutions")
        })
    }

    /// The sleep-set key of the entry at `at`.
    fn key(&self, at: usize) -> &[u32] {
        let len = self.arena[at] as usize;
        &self.arena[at + HEADER + len..at + HEADER + 2 * len]
    }

    /// The slot `key` occupies, or the free one it would take.
    fn slot_of(&self, key: &[u32]) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (hash_ids(key) >> (64 - self.slots.len().trailing_zeros())) as usize;
        while self.slots[i] != EMPTY && self.key(self.slots[i] as usize) != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// Schedules the entry `parent`'s ids + `first` [+ `swap`] unless the
    /// sleep set has seen its key; false when it was pruned.
    fn offer(
        &mut self,
        parent: Range<usize>,
        first: ForcedMatch,
        swap: Option<ForcedMatch>,
        depth: u32,
    ) -> bool {
        let (first, swap) = (self.intern(first), swap.map(|f| self.intern(f)));
        if (self.scheduled as usize + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let at = self.arena.len();
        let len = parent.len() + 1 + usize::from(swap.is_some());
        let (ids, key) = (at + HEADER, at + HEADER + len);
        self.arena.resize(key + len, 0);
        self.arena[at] = len as u32;
        self.arena[at + 1] = depth;
        self.arena.copy_within(parent.clone(), ids);
        self.arena[ids + parent.len()] = first;
        if let Some(swap) = swap {
            self.arena[key - 1] = swap;
        }
        self.arena.copy_within(ids..key, key);
        self.arena[key..].sort_unstable();
        let slot = self.slot_of(self.key(at));
        if self.slots[slot] != EMPTY {
            self.arena.truncate(at);
            return false;
        }
        self.slots[slot] = u32::try_from(at)
            .ok()
            .filter(|&at| at != EMPTY)
            .expect("frontier arena within 2^32 words");
        self.scheduled += 1;
        true
    }

    /// Doubles the sleep set, re-placing every entry by its key.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; (self.slots.len() * 2).max(16)];
        let mut at = 0;
        while at < self.arena.len() {
            let slot = self.slot_of(self.key(at));
            self.slots[slot] = at as u32;
            at += HEADER + 2 * self.arena[at] as usize;
        }
    }

    /// The next unexplored entry in FIFO order: where its ids are, and its
    /// depth.
    fn pop(&mut self) -> Option<(Range<usize>, u32)> {
        let header = self.arena.get(self.head..self.head + HEADER)?;
        let (len, depth) = (header[0] as usize, header[1]);
        let ids = self.head + HEADER..self.head + HEADER + len;
        self.head = ids.end + len;
        Some((ids, depth))
    }

    #[cfg(test)]
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.arena.len() + self.slots.len()) * size_of::<u32>()
            + self.resolutions.len() * size_of::<ForcedMatch>()
            + self.ids.capacity() * size_of::<(ForcedMatch, u32)>()
    }

    /// Materialises the plan whose resolution ids are `arena[ids]`.
    fn plan(&self, ids: Range<usize>) -> MatchPlan {
        #[cfg(test)]
        PLANS_BUILT.set(PLANS_BUILT.get() + 1);
        let mut plan = MatchPlan::new();
        for &id in &self.arena[ids] {
            let f = self.resolutions[id as usize];
            plan.push(f.recv, f.source);
        }
        plan
    }
}

#[cfg(test)]
thread_local! {
    /// `MatchPlan`s [`explore`] built on the current test thread: one per
    /// popped entry, one more per divergence finding.
    static PLANS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// What the frontier of the current test thread's last walk held when
    /// it stopped: arena, sleep-set slots and the interned resolutions.
    static FRONTIER_BYTES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
thread_local! {
    /// [`matching_makespan`] passes made by the current test thread.
    static MAKESPAN_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Estimated makespan of a matching: a timed lockstep pass over the
/// trace that keeps every event's *recorded duration* but re-wires the
/// cross-rank ordering to `matching`'s pairs — receive completions wait
/// for their matched send's finish time, collectives wait for the
/// latest arrival. Comparing the recorded and an alternate matching
/// through the same estimator isolates exactly the schedule's
/// contribution to the makespan. Returns `None` if the pass cannot run
/// every rank to the end (never the case for a completed matching).
pub fn matching_makespan(trace: &MemTrace, matching: &Matching) -> Option<u64> {
    #[cfg(test)]
    MAKESPAN_RUNS.with(|c| c.set(c.get() + 1));
    let p = trace.num_ranks();
    if p == 0 {
        return Some(0);
    }
    // Per-event tables, an event's slot being `first[rank] + position`.
    // A pair names events by sequence number, which is the position on
    // every trace `validate` accepts; one that names anything else is not
    // an event of this trace.
    let mut first = vec![0usize; p + 1];
    for r in 0..p {
        first[r + 1] = first[r] + trace.rank(r).len();
    }
    let slot = |(rank, seq): (Rank, Seq)| -> Option<usize> {
        let (r, i) = (rank as usize, usize::try_from(seq).ok()?);
        if r >= p {
            return None;
        }
        (trace.rank(r).get(i)?.seq == seq).then_some(first[r] + i)
    };
    // The pairs an event completes, chained through `next`: their sends
    // must finish first.
    const NONE: usize = usize::MAX;
    let mut completes = vec![NONE; first[p]];
    let mut next = vec![NONE; matching.pairs.len()];
    for (k, pair) in matching.pairs.iter().enumerate() {
        if let Some(c) = slot((pair.recv.0, pair.completion)) {
            next[k] = completes[c];
            completes[c] = k;
        }
    }
    // End time of every event already executed (those before `pc`).
    let mut end = vec![0u64; first[p]];
    let mut clock = vec![0u64; p];
    let mut pc = vec![0usize; p];
    // Collective epochs: count per rank, per-epoch arrivals + max entry.
    let mut coll_count = vec![0usize; p];
    let mut epochs: Vec<(usize, u64)> = Vec::new();
    let mut arrived = vec![false; p];

    let mut progressed = true;
    while progressed {
        progressed = false;
        for r in 0..p {
            loop {
                let events = trace.rank(r);
                let Some(ev) = events.get(pc[r]) else { break };
                let dur = ev.t_end.saturating_sub(ev.t_start);
                if ev.kind.is_collective() {
                    if !arrived[r] {
                        arrived[r] = true;
                        let k = coll_count[r];
                        coll_count[r] += 1;
                        if k == epochs.len() {
                            epochs.push((0, 0));
                        }
                        epochs[k].0 += 1;
                        epochs[k].1 = epochs[k].1.max(clock[r]);
                    }
                    let (n, entry_max) = epochs[coll_count[r] - 1];
                    if n < p {
                        break;
                    }
                    clock[r] = entry_max + dur;
                    arrived[r] = false;
                } else {
                    let mut start = clock[r];
                    let mut k = completes[first[r] + pc[r]];
                    // Ready once every send it completes has been executed.
                    let ready = loop {
                        if k == NONE {
                            break true;
                        }
                        let send = matching.pairs[k].send;
                        match slot(send) {
                            Some(s) if s < first[send.0 as usize] + pc[send.0 as usize] => {
                                start = start.max(end[s]);
                            }
                            _ => break false,
                        }
                        k = next[k];
                    };
                    if !ready {
                        break;
                    }
                    let done = start + dur;
                    end[first[r] + pc[r]] = done;
                    clock[r] = done;
                }
                pc[r] += 1;
                progressed = true;
            }
        }
    }
    if (0..p).any(|r| pc[r] < trace.rank(r).len()) {
        return None;
    }
    Some(clock.into_iter().max().unwrap_or(0))
}

/// Full lint plus exploration: validation, the pass manager, then the
/// explorer's findings merged in, with the coverage stats alongside.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Merged, sorted diagnostics (full lint + explore findings).
    pub diags: Vec<Diagnostic>,
    /// The explorer's structured findings (re-replayable plans).
    pub findings: Vec<ExploreFinding>,
    /// Coverage accounting.
    pub stats: ExploreStats,
    /// Why the run was cut short, when it was (context build or
    /// exploration).
    pub cancelled: Option<CancelReason>,
}

/// Runs the full lint with the explorer enabled at `opts`, over a context
/// built by [`LintContext::build_with`]: the graph and happens-before
/// artifacts memoized through `cache`, the build cancellable through
/// `opts.cancel`. With `opts.budget == 0` the diagnostics are exactly
/// [`crate::lint_full`]'s (bit-identical; the explorer never runs).
pub fn lint_explore(
    trace: &MemTrace,
    opts: &ExploreOptions,
    cache: Option<(&mpg_core::CacheStore, &str)>,
) -> ExploreOutcome {
    let mut diags = mpg_trace::validate_trace_diagnostics(trace);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        sort_diagnostics(&mut diags);
        return ExploreOutcome {
            diags,
            findings: Vec::new(),
            stats: ExploreStats::default(),
            cancelled: None,
        };
    }
    let (ctx, build_cancelled) = LintContext::build_with(trace, cache, opts.cancel.as_ref());
    let report = explore(&ctx, opts);
    let mut diags = crate::lint_over_context(diags, ctx);
    diags.extend(report.diags());
    sort_diagnostics(&mut diags);
    let cancelled = build_cancelled.or(report.stats.cancelled);
    ExploreOutcome {
        diags,
        findings: report.findings,
        stats: report.stats,
        cancelled,
    }
}

/// JSON body shared by `mpgtool explore --json` and any future service
/// surface: diagnostics plus the coverage stats object.
pub fn explore_json(diags: &[Diagnostic], stats: &ExploreStats) -> String {
    let mut out = String::from("{\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_json());
    }
    out.push_str("],\"explore\":");
    out.push_str(&stats.to_json());
    out.push('}');
    out
}

#[cfg(test)]
#[path = "../tests/shared/explore_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb_races::wildcard_programs::{round_strategy, try_simulate};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The flat frontier against the eager walk it replaced: the same
        /// findings (plans, order, kinds, makespans) and the same value in
        /// every `ExploreStats` field, whether the walk drains the
        /// frontier, runs out of budget or is cancelled between replays.
        /// An unbounded budget always gets a token: depth 4 over a few
        /// gathers does not drain.
        #[test]
        fn flat_frontier_equals_the_eager_walk(
            p in 2u32..7,
            sim_seed in 0u64..1_000,
            rounds in prop::collection::vec(round_strategy(true), 1..6),
            budget in prop_oneof![Just(1u64), Just(4), Just(32), Just(u64::MAX)],
            depth in 1usize..5,
            seed in 0u64..8,
            divergence_pct in prop_oneof![Just(0.0), Just(10.0)],
            fire_after in prop_oneof![Just(None), (0u64..48).prop_map(Some)],
        ) {
            let Some(trace) = try_simulate(p, sim_seed, &rounds) else {
                continue;
            };
            let ctx = LintContext::build(&trace);
            let recorded = &ctx.progress.matching;
            prop_assert_eq!(
                matching_makespan(&trace, recorded),
                reference::matching_makespan(&trace, recorded)
            );
            let fire_after = fire_after.or((budget == u64::MAX).then_some(160));
            let opts = || ExploreOptions {
                budget,
                depth,
                divergence_pct,
                seed,
                cancel: fire_after.map(|n| {
                    let token = CancelToken::new();
                    token.fire_after_checks(n);
                    token
                }),
            };
            let (flat, eager) = (explore(&ctx, &opts()), reference::explore(&ctx, &opts()));
            prop_assert_eq!(flat.stats, eager.stats);
            prop_assert_eq!(flat.findings, eager.findings);
        }
    }

    #[test]
    fn stats_coverage_text() {
        let complete = ExploreStats::default();
        assert_eq!(complete.coverage(), "coverage complete: frontier exhausted");
        let exhausted = ExploreStats {
            budget_exhausted: true,
            frontier_unexplored: 3,
            ..ExploreStats::default()
        };
        assert!(exhausted.coverage().contains("budget exhausted"));
        assert!(exhausted.coverage().contains("3 frontier schedule(s)"));
        let cancelled = ExploreStats {
            cancelled: Some(CancelReason::DeadlineExceeded),
            frontier_unexplored: 1,
            ..ExploreStats::default()
        };
        assert!(cancelled.coverage().contains("cancelled"));
    }

    /// The benchmark's master-worker trace at `--budget 32`: 74 514
    /// extensions generated, 32 replayed. Plans exist for the replayed ones
    /// only, the estimator runs once per completed replay plus once for the
    /// recorded matching, and the rest of the walk is words in an arena.
    #[test]
    fn a_plan_per_replay_and_words_per_extension() {
        let trace = crate::hb_races::master_worker_trace();
        assert_eq!(trace.total_events(), 1950);
        let ctx = LintContext::build(&trace);
        let before = (PLANS_BUILT.get(), MAKESPAN_RUNS.get());
        let report = explore(&ctx, &ExploreOptions::cli_default().budget(32));
        let plans = PLANS_BUILT.get() - before.0;
        let makespans = MAKESPAN_RUNS.get() - before.1;
        let stats = report.stats;
        assert_eq!(
            (stats.explored, stats.pruned, stats.frontier_unexplored),
            (32, 56, 74_426)
        );
        assert_eq!(stats.infeasible, 0);
        assert!(
            plans <= 33 + report.findings.len(),
            "{plans} plans built for 32 replays and {} findings",
            report.findings.len()
        );
        assert_eq!(makespans, 32 + 1);
        let generated = stats.explored + stats.frontier_unexplored + stats.pruned;
        let bytes = FRONTIER_BYTES.get();
        assert!(
            bytes as u64 <= 64 * generated,
            "{bytes} bytes of frontier and sleep set for {generated} extensions"
        );
    }

    /// A ring has no wildcard receive: the explorer must not estimate a
    /// makespan, nor index the matching, to find its frontier empty.
    #[test]
    fn nothing_to_explore_no_makespan_pass() {
        let trace = mpg_sim::Simulation::new(4, mpg_noise::PlatformSignature::quiet("ring"))
            .run(|ctx| {
                let (me, p) = (ctx.rank(), ctx.size());
                ctx.sendrecv((me + 1) % p, 0, 64, (me + p - 1) % p, 0);
            })
            .expect("ring simulates")
            .trace;
        let ctx = LintContext::build(&trace);
        assert!(ctx.hb.is_some() && ctx.progress.matching.completed);
        let before = MAKESPAN_RUNS.with(|c| c.get());
        let report = explore(&ctx, &ExploreOptions::cli_default());
        assert_eq!(MAKESPAN_RUNS.with(|c| c.get()) - before, 0);
        assert!(report.findings.is_empty());
        assert_eq!(report.stats, ExploreStats::default());
    }

    #[test]
    fn sleep_key_is_order_insensitive() {
        let mut frontier = Frontier::default();
        let f = |recv, source| ForcedMatch { recv, source };
        let (a, b, c) = (f((0, 8), 2), f((3, 1), 5), f((3, 1), 6));
        assert!(frontier.offer(0..0, a, Some(b), 1));
        assert!(
            !frontier.offer(0..0, b, Some(a), 1),
            "same set, other order"
        );
        assert!(frontier.offer(0..0, c, Some(a), 1), "another source");
        // Pruned entries leave nothing behind; the queue is what was kept,
        // in order, as plans in discovery order.
        assert_eq!(frontier.scheduled, 2);
        assert_eq!(frontier.resolutions, [a, b, c], "each interned once");
        let (ids, depth) = frontier.pop().unwrap();
        assert_eq!(depth, 1);
        let plan = frontier.plan(ids.clone());
        assert_eq!(plan, MatchPlan::new().force((0, 8), 2).force((3, 1), 5));
        // A child repeats its parent's ids, then adds its own.
        assert!(frontier.offer(ids, c, None, 2));
        let (ids, _) = frontier.pop().unwrap();
        assert_eq!(
            frontier.plan(ids),
            MatchPlan::new().force((3, 1), 6).force((0, 8), 2)
        );
        let (ids, depth) = frontier.pop().unwrap();
        assert_eq!((ids.len(), depth), (3, 2));
        assert!(frontier.pop().is_none());
    }

    #[test]
    fn options_fingerprint_excludes_token() {
        let a = ExploreOptions::cli_default();
        let mut b = ExploreOptions::cli_default();
        b.cancel = Some(CancelToken::new());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), a.clone().budget(7).fingerprint());
    }
}
