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
//!   matching* and appended, up to the depth bound. Only the first
//!   `budget` entries scheduled can be popped, so only they are stored;
//!   every later offer is a 20-byte record, counted exactly when the walk
//!   stops.
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
    let mut frontier = Frontier::new(usize::try_from(opts.budget).unwrap_or(usize::MAX));

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
        frontier.offer(None, first, swap);
    }

    loop {
        // With the stored entries spent, the walk has a next entry only if
        // a spilled offer settles as a schedule of its own.
        let entry = frontier.pop();
        if entry.is_none() && frontier.settle() == stats.explored {
            break;
        }
        if let Some(token) = &opts.cancel {
            if let Some(reason) = token.fired() {
                stats.cancelled = Some(reason);
                stats.frontier_unexplored = frontier.settle() - stats.explored;
                break;
            }
        }
        // The store holds the first `budget` entries, so a next entry it
        // does not hold is one the budget forbids.
        let Some(entry) = entry else {
            stats.budget_exhausted = true;
            stats.frontier_unexplored = frontier.settle() - stats.explored;
            break;
        };
        stats.explored += 1;
        stats.max_depth = stats.max_depth.max(u64::from(entry.depth));
        // The one place a frontier entry becomes a `MatchPlan`.
        let plan = frontier.plan(entry);
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
                if (entry.depth as usize) < opts.depth {
                    let sweep = channels.sweep(trace, &rep.matching, hb);
                    extensions(&sweep, &rep.matching, plan.forced(), |first, swap| {
                        frontier.offer(Some(entry), first, swap)
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
    stats.pruned = frontier.pruned;
    #[cfg(test)]
    FRONTIER.set((frontier.bytes(), frontier.stored));
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

/// The schedules not yet replayed and the sleep set. Entries are popped in
/// FIFO order and the walk stops after `budget` pops, so only the first
/// `budget` entries scheduled can ever become plans; the frontier stores
/// those and merely counts the rest.
///
/// Every `ForcedMatch` the walk meets is interned to a `u32` once, and an
/// entry's identity is its *set* of ids: two plans forcing the same
/// resolutions in a different discovery order explore the same schedule,
/// and equal id sets are equal `ForcedMatch` sets. Its hash is
/// order-insensitive — a wrapping sum of one mixed word per id — so an
/// offer's is its parent's plus one or two terms.
///
/// * **Stored** (the first `capacity` entries scheduled): a run of the arena,
///   `[len, depth]` then the `len` ids in plan order (the parent's, then the
///   one or two it adds). Entries sit in the order they were scheduled, so
///   the FIFO queue is an offset, and the sleep set is an open-addressing
///   table of `(hash, offset)`: a probe compares hashes, and only an equal
///   hash compares the two id sets. A pruned entry is truncated away.
/// * **Spilled** (every offer once the store is full): its hash, its parent's
///   offset and its one or two ids, appended to [`Spill`] with no probe.
///   [`Frontier::settle`] counts them exactly when the walk stops.
///
/// Only [`Frontier::plan`] builds a `MatchPlan`.
#[derive(Default)]
struct Frontier {
    resolutions: Vec<ForcedMatch>,
    ids: HashMap<ForcedMatch, u32, BuildHasherDefault<WordHasher>>,
    /// Entries the store may hold: the budget.
    capacity: usize,
    arena: Vec<u32>,
    /// Arena offset of the next entry to pop.
    head: usize,
    /// The sleep set of the stored entries, `EMPTY` offsets elsewhere; a
    /// power of two long, at most half full.
    slots: Vec<Slot>,
    /// Entries stored (the table's size).
    stored: usize,
    spill: Spill,
    /// Offers the sleep set dropped: those made to the store, plus the
    /// spilled ones once settled.
    pruned: u64,
    /// The spilled offers that settled as schedules of their own, once
    /// [`Frontier::settle`] has counted them.
    settled: Option<u64>,
}

/// A sleep-set slot: a stored entry's set hash and arena offset.
#[derive(Clone, Copy)]
struct Slot {
    hash: u64,
    at: u32,
}

/// The offers made once the store was full, one record each across four
/// columns: set hash, parent's arena offset (`EMPTY` for a seed), the id
/// added, and the swapped one (`EMPTY` when none).
#[derive(Default)]
struct Spill {
    hashes: Vec<u64>,
    parents: Vec<u32>,
    firsts: Vec<u32>,
    swaps: Vec<u32>,
}

/// A popped entry: where it sits in the arena, its level and its set hash.
#[derive(Clone, Copy)]
struct Entry {
    at: usize,
    depth: u32,
    hash: u64,
}

/// A free sleep-set slot, a seed's parent, an absent swap.
const EMPTY: u32 = u32::MAX;
/// Words of an entry before its ids.
const HEADER: usize = 2;

/// One step of the multiplicative word hash: 2^64 / φ is the odd multiplier.
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// An id's term of a set hash: the splitmix64 finalizer, so that sums of
/// distinct ids do not collide the way sums of their multiples would.
fn term(id: u32) -> u64 {
    #[cfg(test)]
    if COLLIDE.get() {
        return 0;
    }
    let mut z = u64::from(id).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order-insensitive hash of an id set.
fn set_hash(ids: &[u32]) -> u64 {
    ids.iter().fold(0, |h, &id| h.wrapping_add(term(id)))
}

/// `ids` ascending: the set's canonical form, for the rare full compare.
fn sorted(ids: &[u32]) -> Vec<u32> {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    ids
}

/// Whether two id runs name the same set.
fn same_set(a: &[u32], b: &[u32]) -> bool {
    a.len() == b.len() && sorted(a) == sorted(b)
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
    /// An empty frontier that stores at most `capacity` entries (at least
    /// one: the sleep set exists once anything is spilled).
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a frontier stores at least one entry");
        Frontier {
            capacity,
            ..Frontier::default()
        }
    }

    fn intern(&mut self, f: ForcedMatch) -> u32 {
        *self.ids.entry(f).or_insert_with(|| {
            self.resolutions.push(f);
            u32::try_from(self.resolutions.len() - 1)
                .ok()
                .filter(|&id| id != EMPTY)
                .expect("fewer than 2^32 - 1 resolutions")
        })
    }

    /// Where the ids of the stored entry at `at` sit in the arena.
    fn span(&self, at: usize) -> Range<usize> {
        at + HEADER..at + HEADER + self.arena[at] as usize
    }

    /// The ids, in plan order, of the stored entry at `at`.
    fn ids_at(&self, at: usize) -> &[u32] {
        &self.arena[self.span(at)]
    }

    /// The first slot from `hash`'s home that is free or holds `hash` for
    /// an entry `same` accepts.
    fn probe(&self, hash: u64, mut same: impl FnMut(usize) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        while self.slots[i].at != EMPTY
            && !(self.slots[i].hash == hash && same(self.slots[i].at as usize))
        {
            i = (i + 1) & mask;
        }
        i
    }

    /// Offers the entry `parent`'s ids + `first` [+ `swap`] (a seed when
    /// `parent` is `None`). While the store has room it is scheduled unless
    /// the sleep set has seen its set; after that it is spilled.
    fn offer(&mut self, parent: Option<Entry>, first: ForcedMatch, swap: Option<ForcedMatch>) {
        let (first, swap) = (self.intern(first), swap.map(|f| self.intern(f)));
        let hash = parent
            .map_or(0, |p| p.hash)
            .wrapping_add(term(first))
            .wrapping_add(swap.map_or(0, term));
        if self.stored == self.capacity {
            let spill = &mut self.spill;
            spill.hashes.push(hash);
            spill.parents.push(parent.map_or(EMPTY, |p| p.at as u32));
            spill.firsts.push(first);
            spill.swaps.push(swap.unwrap_or(EMPTY));
            return;
        }
        if (self.stored + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let at = self.arena.len();
        let parent_ids = parent.map_or(0..0, |p| self.span(p.at));
        let len = parent_ids.len() + 1 + usize::from(swap.is_some());
        self.arena.push(len as u32);
        self.arena.push(parent.map_or(1, |p| p.depth + 1));
        self.arena.extend_from_within(parent_ids);
        self.arena.push(first);
        self.arena.extend(swap);
        let slot = self.probe(hash, |other| same_set(self.ids_at(other), self.ids_at(at)));
        if self.slots[slot].at != EMPTY {
            self.arena.truncate(at);
            self.pruned += 1;
            return;
        }
        let at = u32::try_from(at)
            .ok()
            .filter(|&at| at != EMPTY)
            .expect("frontier arena within 2^32 words");
        self.slots[slot] = Slot { hash, at };
        self.stored += 1;
    }

    /// Doubles the sleep set, re-placing every entry by its stored hash.
    fn grow(&mut self) {
        let empty = Slot { hash: 0, at: EMPTY };
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![empty; len]);
        for slot in old.into_iter().filter(|s| s.at != EMPTY) {
            let i = self.probe(slot.hash, |_| false);
            self.slots[i] = slot;
        }
    }

    /// The next stored entry in FIFO order.
    fn pop(&mut self) -> Option<Entry> {
        let at = self.head;
        let depth = *self.arena.get(at + 1)?;
        self.head = self.span(at).end;
        Some(Entry {
            at,
            depth,
            hash: set_hash(self.ids_at(at)),
        })
    }

    /// The id set of spilled offer `i`, ascending.
    fn spilled_set(&self, i: usize) -> Vec<u32> {
        let spill = &self.spill;
        let mut set = match spill.parents[i] {
            EMPTY => Vec::new(),
            at => self.ids_at(at as usize).to_vec(),
        };
        set.push(spill.firsts[i]);
        set.extend((spill.swaps[i] != EMPTY).then_some(spill.swaps[i]));
        set.sort_unstable();
        set
    }

    /// Entries ever scheduled, stored and spilled, once the walk has stopped:
    /// counts the spilled offers on the first call ([`Frontier::fresh`]) and
    /// adds the rest of them to `pruned`.
    fn settle(&mut self) -> u64 {
        let fresh = match self.settled {
            Some(fresh) => fresh,
            None => {
                let fresh = self.fresh();
                self.pruned += self.spill.hashes.len() as u64 - fresh;
                *self.settled.insert(fresh)
            }
        };
        self.stored as u64 + fresh
    }

    /// The spilled offers that are schedules of their own: whose id set is
    /// neither stored nor an earlier spilled offer's. Sorts the hashes once:
    /// a hash met once and not in the table is a set met once; the offers
    /// under any other hash have their sets compared in full.
    fn fresh(&self) -> u64 {
        let hashes = &self.spill.hashes;
        let mut by_hash = hashes.clone();
        by_hash.sort_unstable();
        let stored_hash = |h| self.slots[self.probe(h, |_| true)].at != EMPTY;
        let mut fresh = 0;
        let mut suspects = Vec::new();
        for group in by_hash.chunk_by(|a, b| a == b) {
            if group.len() == 1 && !stored_hash(group[0]) {
                fresh += 1;
            } else {
                suspects.push(group[0]);
            }
        }
        if !suspects.is_empty() {
            let mut sets: Vec<(u64, Vec<u32>)> = (0..hashes.len())
                .filter(|&i| suspects.binary_search(&hashes[i]).is_ok())
                .map(|i| (hashes[i], self.spilled_set(i)))
                .collect();
            sets.sort_unstable();
            sets.dedup();
            fresh += sets
                .iter()
                .filter(|(h, set)| {
                    self.slots[self.probe(*h, |at| sorted(self.ids_at(at)) == *set)].at == EMPTY
                })
                .count();
        }
        fresh as u64
    }

    /// What the frontier holds at its peak: arena, sleep set, interned
    /// resolutions, the spilled records and [`Frontier::fresh`]'s sorted
    /// copy of their hashes.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let spilled = self.spill.hashes.len();
        self.arena.len() * size_of::<u32>()
            + self.slots.len() * size_of::<Slot>()
            + self.resolutions.len() * size_of::<ForcedMatch>()
            + self.ids.capacity() * size_of::<(ForcedMatch, u32)>()
            + spilled * (2 * size_of::<u64>() + 3 * size_of::<u32>())
    }

    /// Materialises the plan of a popped entry.
    fn plan(&self, entry: Entry) -> MatchPlan {
        #[cfg(test)]
        PLANS_BUILT.set(PLANS_BUILT.get() + 1);
        let mut plan = MatchPlan::new();
        for &id in self.ids_at(entry.at) {
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
    /// it stopped ([`Frontier::bytes`]), and how many entries it stored.
    static FRONTIER: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
    /// Forces every set hash to one value on the current test thread, so
    /// that every sleep-set comparison falls through to the full id sets.
    static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
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
/// every rank to the end (never the case for a completed matching). Sums
/// saturate at `u64::MAX`: an alternate matching can chain recorded
/// intervals of several ranks that no recorded run put end to end.
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
                    clock[r] = entry_max.saturating_add(dur);
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
                    let done = start.saturating_add(dur);
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

    /// A budget drawn from fixed values or from around the program's seed
    /// count, where the store fills exactly with the seeds.
    #[derive(Debug, Clone, Copy)]
    enum Budget {
        Fixed(u64),
        /// `seeds - 1`, `seeds` or `seeds + 1` for 0, 1, 2 (at least 1).
        NearSeeds(u64),
    }

    /// When the cancel token fires, in polls.
    #[derive(Debug, Clone, Copy)]
    enum Fire {
        Never,
        After(u64),
        /// On the first poll past the budget: the one the walk makes only
        /// when a past-budget offer settles as a schedule of its own.
        PastBudget,
    }

    /// The seed offers `explore` makes over `ctx` (pruned ones included).
    fn seed_count(ctx: &LintContext<'_>) -> u64 {
        let recorded = &ctx.progress.matching;
        let Some(hb) = ctx.hb.as_ref().filter(|_| recorded.completed) else {
            return 0;
        };
        let channels = Channels::new(recorded, ctx.trace.num_ranks());
        let mut n = 0;
        extensions(
            &channels.sweep(ctx.trace, recorded, hb),
            recorded,
            &[],
            |_, _| n += 1,
        );
        n
    }

    /// Runs both walks over `ctx` and requires the same findings (plans,
    /// order, kinds, makespans) and the same value in every `ExploreStats`
    /// field. An unbounded budget always gets a token: depth 4 over a few
    /// gathers does not drain.
    fn assert_equals_the_eager_walk(
        ctx: &LintContext<'_>,
        budget: Budget,
        depth: usize,
        divergence_pct: f64,
        seed: u64,
        fire: Fire,
    ) {
        let budget = match budget {
            Budget::Fixed(n) => n,
            Budget::NearSeeds(k) => (seed_count(ctx) + k).saturating_sub(1).max(1),
        };
        let fire_after = match fire {
            _ if budget == u64::MAX => Some(160),
            Fire::Never => None,
            Fire::After(n) => Some(n),
            Fire::PastBudget => Some(budget + 1),
        };
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
        let (flat, eager) = (explore(ctx, &opts()), reference::explore(ctx, &opts()));
        assert_eq!(flat.stats, eager.stats);
        assert_eq!(flat.findings, eager.findings);
    }

    fn budgets() -> impl Strategy<Value = Budget> {
        prop_oneof![
            Just(Budget::Fixed(1)),
            Just(Budget::Fixed(4)),
            Just(Budget::Fixed(32)),
            (0u64..3).prop_map(Budget::NearSeeds),
        ]
    }

    fn fires() -> impl Strategy<Value = Fire> {
        prop_oneof![
            Just(Fire::Never),
            (0u64..48).prop_map(Fire::After),
            Just(Fire::PastBudget),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

        /// The stored-and-spilled frontier against the eager walk it
        /// replaced, whether the walk drains the frontier, runs out of
        /// budget or is cancelled between replays — budgets around the seed
        /// count and a token firing on the poll past the budget included.
        #[test]
        fn flat_frontier_equals_the_eager_walk(
            p in 2u32..7,
            sim_seed in 0u64..1_000,
            rounds in prop::collection::vec(round_strategy(true), 1..6),
            budget in prop_oneof![budgets(), Just(Budget::Fixed(u64::MAX))],
            depth in 1usize..5,
            seed in 0u64..8,
            divergence_pct in prop_oneof![Just(0.0), Just(10.0)],
            fire in fires(),
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
            assert_equals_the_eager_walk(&ctx, budget, depth, divergence_pct, seed, fire);
        }

        /// Every set hash forced to one value: each sleep-set probe and
        /// each settled offer falls through to the full id sets, and the
        /// counts still equal the eager walk's. They are exact, not
        /// probabilistic. (Bounded budgets only: with every key colliding
        /// the table probes linearly.)
        #[test]
        fn colliding_set_hashes_still_equal_the_eager_walk(
            p in 2u32..7,
            sim_seed in 0u64..1_000,
            rounds in prop::collection::vec(round_strategy(true), 1..6),
            budget in budgets(),
            depth in 1usize..5,
            seed in 0u64..8,
            fire in fires(),
        ) {
            let Some(trace) = try_simulate(p, sim_seed, &rounds) else {
                continue;
            };
            let ctx = LintContext::build(&trace);
            COLLIDE.set(true);
            assert_equals_the_eager_walk(&ctx, budget, depth, 10.0, seed, fire);
            COLLIDE.set(false);
        }
    }

    /// Three ranks, two wildcard receives at rank 0: both seeds swap the
    /// same two receives, one found from each side. At budget 1 the second
    /// seed is offered to a full store, so it is spilled, and settles as a
    /// duplicate of the first: the frontier is exhausted, not the budget.
    #[test]
    fn past_budget_duplicates_leave_the_frontier_exhausted() {
        let trace = mpg_sim::Simulation::new(3, mpg_noise::PlatformSignature::quiet("gather"))
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.recv(mpg_trace::ANY_SOURCE, 0);
                    ctx.recv(mpg_trace::ANY_SOURCE, 0);
                } else {
                    ctx.send(0, 0, 64);
                }
            })
            .expect("gather simulates")
            .trace;
        let ctx = LintContext::build(&trace);
        assert_eq!(seed_count(&ctx), 2);
        let opts = ExploreOptions::cli_default().budget(1);
        let report = explore(&ctx, &opts);
        assert_eq!(FRONTIER.get().1, 1, "the store held the first seed only");
        let stats = report.stats;
        assert_eq!((stats.explored, stats.pruned), (1, 1));
        assert!(!stats.budget_exhausted);
        assert_eq!(stats.frontier_unexplored, 0);
        assert_eq!(stats.coverage(), "coverage complete: frontier exhausted");
        assert_eq!(stats, reference::explore(&ctx, &opts).stats);
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
    /// recorded matching, the sleep set holds no more entries than the
    /// budget, and every other extension is a 20-byte spilled record (28
    /// with its hash's sorted copy in `settle`): 30.3 bytes per extension
    /// with the interned resolutions.
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
        let (bytes, stored) = FRONTIER.get();
        assert!(
            stored <= 32,
            "{stored} entries in the sleep set at budget 32"
        );
        assert!(
            bytes as u64 <= 32 * generated,
            "{bytes} bytes of frontier, sleep set and spill for {generated} extensions"
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

    /// The sleep set's three claims, on both sides of the store's
    /// capacity: the key ignores order, each resolution is interned once,
    /// and a child repeats its parent's ids.
    #[test]
    fn sleep_key_is_order_insensitive() {
        let f = |recv, source| ForcedMatch { recv, source };
        let (a, b, c, d) = (f((0, 8), 2), f((3, 1), 5), f((3, 1), 6), f((5, 2), 1));
        // Stored: the probe prunes a rediscovery at once, and the queue is
        // what was kept, in order, as plans in discovery order.
        let mut frontier = Frontier::new(8);
        frontier.offer(None, a, Some(b));
        frontier.offer(None, b, Some(a));
        assert_eq!(
            (frontier.stored, frontier.pruned),
            (1, 1),
            "same set, other order"
        );
        frontier.offer(None, c, Some(a));
        assert_eq!((frontier.stored, frontier.pruned), (2, 1), "another source");
        let seed = frontier.pop().unwrap();
        assert_eq!(seed.depth, 1);
        let plan = MatchPlan::new().force((0, 8), 2).force((3, 1), 5);
        assert_eq!(frontier.plan(seed), plan);
        frontier.offer(Some(seed), d, None);
        let next = frontier.pop().unwrap();
        assert_eq!(
            frontier.plan(next),
            MatchPlan::new().force((3, 1), 6).force((0, 8), 2)
        );
        let child = frontier.pop().unwrap();
        assert_eq!(child.depth, 2);
        assert_eq!(frontier.plan(child), plan.force((5, 2), 1));
        assert!(frontier.pop().is_none());
        assert_eq!(frontier.settle(), 3);
        assert_eq!(frontier.resolutions, [a, b, c, d], "each interned once");

        // Spilled past a store of one: the same offers, and rediscoveries
        // of the stored entry, of a spilled one and of a spilled child,
        // settle to the same sets.
        let mut frontier = Frontier::new(1);
        frontier.offer(None, a, Some(b));
        let seed = frontier.pop().unwrap();
        frontier.offer(None, b, Some(a));
        frontier.offer(None, c, Some(a));
        frontier.offer(None, a, Some(c));
        frontier.offer(Some(seed), d, None);
        frontier.offer(Some(seed), d, None);
        assert_eq!((frontier.stored, frontier.spill.hashes.len()), (1, 5));
        assert_eq!(
            frontier.spilled_set(3),
            [0, 1, 3],
            "the seed's ids, then d's"
        );
        assert_eq!(frontier.settle(), 3);
        assert_eq!(frontier.pruned, 3);
        assert_eq!(frontier.resolutions, [a, b, c, d], "each interned once");
    }

    /// A `validate`-clean trace whose recorded intervals are each about a
    /// third of `u64::MAX` and whose recorded run chains two of them, while
    /// the alternate matching chains three: forcing rank 0's first wildcard
    /// onto rank 1's late send makes rank 0 wait out rank 1's compute before
    /// its own, and rank 2's specific receive of what rank 0 sends next
    /// then starts its compute after both. The estimate saturates at
    /// `u64::MAX` instead of overflowing, in both estimators.
    #[test]
    fn makespan_saturates_when_an_alternate_chains_long_intervals() {
        let d = u64::MAX / 20 * 7;
        let text = format!(
            "ranks=3\n\
             rank 0\n0 0 init\n1 2 recv peer=2 tag=0 bytes=8 any=1\n2 {d2} compute work=1\n\
             {d2} {d3} send peer=2 tag=0 bytes=8\n{d3} {d4} recv peer=1 tag=0 bytes=8 any=1\n\
             {d4} {d4} finalize\n\
             rank 1\n0 0 init\n0 {d} compute work=1\n{d} {d1} send peer=0 tag=0 bytes=8\n\
             {d1} {d1} finalize\n\
             rank 2\n0 0 init\n0 1 send peer=0 tag=0 bytes=8\n{d2} {d3} recv peer=0 tag=0 bytes=8 any=0\n\
             {d3} {dd3} compute work=1\n{dd3} {dd3} finalize\n",
            d1 = d + 1,
            d2 = d + 2,
            d3 = d + 3,
            d4 = d + 4,
            dd3 = 2 * d + 3,
        );
        let trace = mpg_trace::text_to_trace(&text).expect("well-formed text trace");
        assert!(mpg_trace::validate_trace_diagnostics(&trace).is_empty());
        let ctx = LintContext::build(&trace);
        let base = 2 * d + 4;
        assert_eq!(
            matching_makespan(&trace, &ctx.progress.matching),
            Some(base)
        );
        let opts = ExploreOptions::cli_default();
        let report = explore(&ctx, &opts);
        assert_eq!(report.stats.explored, 1);
        let alts: Vec<_> = report
            .findings
            .iter()
            .map(|f| match f.kind {
                ExploreFindingKind::Divergence { base, alt, .. } => (base, alt),
                ExploreFindingKind::MayDeadlock { .. } => panic!("the swap completes"),
            })
            .collect();
        assert_eq!(alts, [(base, u64::MAX)]);
        assert_eq!(report.findings, reference::explore(&ctx, &opts).findings);
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
