//! Pass 4: per-trace wildcard race detection on the happens-before index.
//!
//! A trace records *one* resolution of every wildcard receive, but the
//! program admits any resolution consistent with the happens-before
//! relation of the recorded graph. For each wildcard receive `R` that
//! matched send `S`, this pass enumerates every envelope-compatible send
//! `S'` whose issue is **concurrent** with `S` — by the HB relation
//! neither must precede the other, so an execution exists in which `S'`
//! arrives first. (Sends from `S`'s own source are never alternates:
//! MPI's non-overtaking rule orders them behind `S` on the channel.)
//!
//! Concurrency alone over-approximates: the surrounding program can pin a
//! concurrent message elsewhere (e.g. a later receive that *specifically*
//! names that source has no other way to complete). Every candidate is
//! therefore validated by **witness replay**: the progress simulation is
//! re-run under a plan that forces `R` onto `S'`'s source (and the
//! wildcard receive that originally consumed `S'` onto `S`'s source,
//! swapping the two messages). Only candidates whose forced schedule runs
//! every rank to completion are reported, so each `MPG-WILD-RACE`
//! diagnostic carries a concrete, replayable alternate match — never a
//! hypothetical one. All candidates of a trace are replayed as one batch
//! (`progress::replay_verdicts`): one recorded run, and per candidate only
//! the part of its schedule that differs from the recorded one — from the
//! point where it leaves it to the point where both swapped receives have
//! matched and the rest is the recorded program again, which is known to
//! complete (DESIGN.md §18.8; a candidate outside that argument's premise
//! is replayed to the last event). [`witness_matching`] rebuilds the whole
//! alternate matching of any witness on demand.
//!
//! # Candidates by channel window
//!
//! Enumeration does not test every send against every wildcard pair. Sends
//! are grouped per `(destination, source)` channel in sequence order, and
//! for a recorded match `S` the sends of one source concurrent with it are
//! a window of that channel (DESIGN.md §19): those that happen before `S`
//! are the prefix below `issue_horizon(source, S)`, found by binary search
//! and exact for any index; those `S` happens before are a suffix, because
//! [`HbIndex`] rows never decrease along a rank's program order. The walk
//! starts at the horizon, takes the first acceptable send and stops at the
//! first one `S` precedes. On a trace whose sequence numbers do not ascend
//! (`validate` rejects it; [`find_races`] does not ask) the suffix argument
//! can fail, and the early stop can then only *drop* a candidate — what is
//! returned is still envelope-compatible, concurrent and the earliest of
//! its source.

use crate::progress::{forced_replay, replay_verdicts, MatchPair, Matching, SendRec};
use mpg_core::forced::MatchPlan;
use mpg_core::HbIndex;
use mpg_trace::{Diagnostic, EventKind, MemTrace, Rank, Rule, Seq, ANY_TAG};

/// One validated alternate match for a racy wildcard receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceWitness {
    /// The wildcard receive, `(rank, seq)`.
    pub recv: (Rank, Seq),
    /// The send the trace recorded as matched.
    pub matched: (Rank, Seq),
    /// The concurrent, envelope-compatible send `recv` could have taken.
    pub alternate: (Rank, Seq),
    /// The wildcard receive that consumed `alternate` in the recorded
    /// schedule (swapped onto `matched` during witness replay); `None`
    /// when `alternate` went unmatched.
    pub displaced: Option<(Rank, Seq)>,
}

/// One wildcard receive with at least one validated alternate match.
#[derive(Debug, Clone)]
pub struct RaceFinding {
    /// The wildcard receive, `(rank, seq)`.
    pub recv: (Rank, Seq),
    /// The recorded match.
    pub matched: (Rank, Seq),
    /// Tag of the matched message.
    pub tag: mpg_trace::Tag,
    /// Every validated alternate, one per alternate source, ascending.
    pub witnesses: Vec<RaceWitness>,
}

/// The forced-match plan a witness describes: the racy receive onto the
/// alternate source, and the displaced wildcard (if any) onto the
/// recorded source — the two messages swap.
pub fn witness_plan(w: &RaceWitness) -> MatchPlan {
    let mut plan = MatchPlan::new().force(w.recv, w.alternate.0);
    if let Some(displaced) = w.displaced {
        plan = plan.force(displaced, w.matched.0);
    }
    plan
}

/// Replays the progress simulation with one witness's matching forced,
/// through the shared [`forced_replay`] path. Returns the resulting
/// [`Matching`] when the forced schedule completes *and* the racy
/// receive really did take the alternate source; `None` when the witness
/// is infeasible. ([`find_races`] reads the same verdict off a whole
/// batch of witnesses without building their matchings.)
pub fn witness_matching(trace: &MemTrace, w: &RaceWitness) -> Option<Matching> {
    let rep = forced_replay(trace, &witness_plan(w));
    let m = rep.matching;
    if !m.completed {
        return None;
    }
    let took_alternate = m
        .pairs
        .iter()
        .any(|p| p.recv == w.recv && p.send.0 == w.alternate.0);
    took_alternate.then_some(m)
}

/// The receive's *posted* tag pattern (traces record the matched tag for
/// the diagnostic text, but compatibility is against the pattern).
fn posted_tag(trace: &MemTrace, recv: (Rank, Seq)) -> Option<mpg_trace::Tag> {
    match trace.rank(recv.0 as usize).get(recv.1 as usize)?.kind {
        EventKind::Recv { tag, .. } | EventKind::Irecv { tag, .. } => Some(tag),
        _ => None,
    }
}

/// What candidate enumeration reads of a trace's sends that no matching
/// changes. Every completed schedule of one trace offers the same sends —
/// only their issue order and their consumers differ — so the explorer
/// builds this once and sweeps it per matching ([`Channels::sweep`]);
/// pass 4 has one matching and builds it for that.
pub(crate) struct Channels {
    /// Every send, ascending by `(dst, src, seq)`. The sort is stable, so
    /// sends sharing a sequence number keep issue order (within one rank
    /// that is program order, under any matching).
    sends: Vec<SendRec>,
    /// The `(dst, src)` channels, ascending: each is one run of `sends`.
    runs: Vec<Run>,
    /// `runs[dst_runs[d]..dst_runs[d + 1]]` are the channels into rank `d`.
    dst_runs: Vec<usize>,
    /// Distinct `(src, seq)` of the sends, ascending: a send's position
    /// here is its slot in a sweep's consumer table.
    keys: Vec<(Rank, Seq)>,
    /// `keys` position of each entry of `sends`.
    slot: Vec<usize>,
}

/// One `(dst, src)` channel: `sends[start..end]`.
struct Run {
    dst: Rank,
    src: Rank,
    start: usize,
    end: usize,
}

impl Channels {
    /// Indexes the sends of `matching`, a matching of a trace of `ranks`
    /// ranks.
    pub(crate) fn new(matching: &Matching, ranks: usize) -> Self {
        let mut sends = matching.sends.clone();
        sends.sort_by_key(|s| (s.dst, s.src, s.seq));
        let mut runs: Vec<Run> = Vec::new();
        for (i, s) in sends.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if (run.dst, run.src) == (s.dst, s.src) => run.end = i + 1,
                _ => runs.push(Run {
                    dst: s.dst,
                    src: s.src,
                    start: i,
                    end: i + 1,
                }),
            }
        }
        let dst_runs = (0..=ranks)
            .map(|d| runs.partition_point(|run| (run.dst as usize) < d))
            .collect();
        let mut keys: Vec<(Rank, Seq)> = sends.iter().map(|s| (s.src, s.seq)).collect();
        keys.sort_unstable();
        keys.dedup();
        let slot = sends
            .iter()
            .map(|s| keys.partition_point(|&k| k < (s.src, s.seq)))
            .collect();
        Channels {
            sends,
            runs,
            dst_runs,
            keys,
            slot,
        }
    }

    /// Binds the index to one matching of its trace: who consumed which
    /// send is the one thing enumeration needs that a matching changes.
    pub(crate) fn sweep<'a>(
        &'a self,
        trace: &'a MemTrace,
        matching: &'a Matching,
        hb: &'a HbIndex,
    ) -> Sweep<'a> {
        let mut consumer = vec![None; self.keys.len()];
        for pair in &matching.pairs {
            if let Ok(slot) = self.keys.binary_search(&pair.send) {
                consumer[slot] = Some(pair);
            }
        }
        Sweep {
            channels: self,
            trace,
            matching,
            hb,
            consumer,
        }
    }
}

/// [`Channels`] bound to one matching: enumerates the unvalidated
/// alternate-match candidates of its wildcard pairs.
pub(crate) struct Sweep<'a> {
    channels: &'a Channels,
    trace: &'a MemTrace,
    matching: &'a Matching,
    hb: &'a HbIndex,
    /// The pair that consumed each send, by `Channels::keys` position.
    consumer: Vec<Option<&'a MatchPair>>,
}

impl Sweep<'_> {
    /// Hands `visit` the candidates of the wildcard pair at position `i`
    /// of the matching, alternate sources ascending: envelope-compatible
    /// sends concurrent with the recorded match, earliest per alternate
    /// source (the non-overtaking rule hands a forced pattern the earliest
    /// unconsumed message of that source, so later ones are subsumed).
    /// With `include_pinned` false, alternates whose recorded consumer is
    /// a *specific* (non-wildcard) receive are skipped — swapping them
    /// would need a cascade of reassignments, so they are not single-swap
    /// alternates for pass 4. The pass-8 explorer sets it true: forcing
    /// the wildcard anyway and watching the specific receive starve is
    /// exactly how alternate-schedule deadlocks are found.
    pub(crate) fn candidates_of(
        &self,
        i: usize,
        include_pinned: bool,
        mut visit: impl FnMut(RaceWitness),
    ) {
        let pair = &self.matching.pairs[i];
        let (recv, matched) = (pair.recv, pair.send);
        let Some(tag_pattern) = posted_tag(self.trace, recv) else {
            return;
        };
        let ch = self.channels;
        let dst = recv.0 as usize;
        for run in &ch.runs[ch.dst_runs[dst]..ch.dst_runs[dst + 1]] {
            if run.src == matched.0 {
                continue;
            }
            // The sends of `src` that happen before the match are a prefix
            // of the channel; the earliest acceptable send past it is the
            // candidate. Rows never decrease along a rank's program order
            // (see `HbIndex`), so once the match happens before one send it
            // happens before every later one.
            let issued = self.hb.issue_horizon(run.src, matched);
            let channel = &ch.sends[run.start..run.end];
            let first = channel.partition_point(|s| s.seq < issued);
            for (s, slot) in channel[first..].iter().zip(&ch.slot[run.start + first..]) {
                if self.hb.happens_before(matched, (s.src, s.seq)) {
                    break;
                }
                if tag_pattern != ANY_TAG && s.tag != tag_pattern {
                    continue;
                }
                let displaced = match self.consumer[*slot] {
                    Some(p) if !p.posted_any => {
                        if !include_pinned {
                            continue;
                        }
                        // The specific receive cannot be re-pointed; force
                        // only the wildcard and let the replay decide.
                        None
                    }
                    Some(p) => Some(p.recv),
                    None => None,
                };
                visit(RaceWitness {
                    recv,
                    matched,
                    alternate: (s.src, s.seq),
                    displaced,
                });
                break;
            }
        }
    }
}

/// The candidates of every wildcard pair of `matching`, in match order
/// ([`Sweep::candidates_of`] per pair; pairs without one are left out).
pub(crate) fn wildcard_candidates(
    trace: &MemTrace,
    matching: &Matching,
    hb: &HbIndex,
    include_pinned: bool,
) -> Vec<(MatchPair, Vec<RaceWitness>)> {
    if !matching.pairs.iter().any(|p| p.posted_any) {
        return Vec::new();
    }
    let channels = Channels::new(matching, trace.num_ranks());
    let sweep = channels.sweep(trace, matching, hb);
    let mut out = Vec::new();
    for (i, pair) in matching.pairs.iter().enumerate() {
        if !pair.posted_any {
            continue;
        }
        let mut candidates = Vec::new();
        sweep.candidates_of(i, include_pinned, |w| candidates.push(w));
        if !candidates.is_empty() {
            out.push((*pair, candidates));
        }
    }
    out
}

/// Whether each of `witnesses` holds — its forced schedule completes *and*
/// the racy receive really took the alternate source — replayed as one
/// batch off the recorded run of `trace`, which `matching` is.
fn witnesses_hold(trace: &MemTrace, matching: &Matching, witnesses: &[&RaceWitness]) -> Vec<bool> {
    let mut holds = vec![false; witnesses.len()];
    let plan = |i: usize| witness_plan(witnesses[i]);
    let recorded_completed = matching.completed;
    replay_verdicts(
        trace,
        recorded_completed,
        witnesses.len(),
        plan,
        |i, sim| {
            let w = witnesses[i];
            holds[i] = sim.completed() && sim.delivered(w.recv, w.alternate.0);
        },
    );
    holds
}

/// Finds every wildcard receive with a validated concurrent alternate.
pub fn find_races(trace: &MemTrace, matching: &Matching, hb: &HbIndex) -> Vec<RaceFinding> {
    let candidates = wildcard_candidates(trace, matching, hb, false);
    let holds = {
        let witnesses: Vec<&RaceWitness> = candidates.iter().flat_map(|(_, ws)| ws).collect();
        witnesses_hold(trace, matching, &witnesses)
    };
    let mut holds = holds.into_iter();
    let mut findings = Vec::new();
    for (pair, mut witnesses) in candidates {
        witnesses.retain(|_| holds.next().expect("one verdict per candidate"));
        if !witnesses.is_empty() {
            findings.push(RaceFinding {
                recv: pair.recv,
                matched: pair.send,
                tag: pair.tag,
                witnesses,
            });
        }
    }
    findings
}

/// Pass 4 entry point: renders [`find_races`] as diagnostics.
pub fn lint_races(trace: &MemTrace, matching: &Matching, hb: &HbIndex) -> Vec<Diagnostic> {
    find_races(trace, matching, hb)
        .into_iter()
        .map(|f| {
            let alts = f
                .witnesses
                .iter()
                .map(|w| format!("rank {} seq {}", w.alternate.0, w.alternate.1))
                .collect::<Vec<_>>()
                .join(", ");
            Diagnostic::new(
                Rule::WildRace,
                format!(
                    "wildcard receive (tag {}) matched the send from rank {} seq {}, but \
                     {alts} {} concurrent and envelope-compatible; forcing the alternate \
                     match replays to completion, so the resolution depends on arrival \
                     timing",
                    f.tag,
                    f.matched.0,
                    f.matched.1,
                    if f.witnesses.len() == 1 { "is" } else { "are" },
                ),
            )
            .at(f.recv.0, f.recv.1)
            .involving(
                f.witnesses
                    .iter()
                    .map(|w| w.alternate.0)
                    .chain([f.matched.0]),
            )
        })
        .collect()
}

/// The trace of `mpgtool gen --workload master-worker --ranks 8 --scale 6`
/// (the benchmark's `master-worker-wild-8`): 384 tasks handed out through
/// `ANY_SOURCE` result receives.
#[cfg(test)]
pub(crate) fn master_worker_trace() -> MemTrace {
    use mpg_apps::Workload;
    let workload = mpg_apps::MasterWorker {
        tasks: 384,
        task_work: 200_000,
        task_bytes: 128,
        result_bytes: 128,
    };
    mpg_sim::Simulation::new(8, mpg_noise::PlatformSignature::quiet("mpgtool-gen"))
        .seed(1)
        .run(|ctx| workload.run(ctx))
        .expect("master-worker simulates")
        .trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::extensions;
    use crate::progress::{
        run_progress, MatchPolicy, BASE_RUNS, GUARD_REFUSALS, PAIRS_COPIED, REJOINS, STEPS,
    };
    use crate::LintContext;
    use mpg_core::forced::ForcedOutcome;
    use mpg_noise::PlatformSignature;
    use mpg_testkit::{round_strategy, simulate, try_simulate, ANY_WILDCARD, WILDCARD};
    use mpg_trace::EventRecord;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap, VecDeque};

    /// [`wildcard_candidates`] as one scan of every send per wildcard
    /// pair, asking `concurrent` of each: the reference the channel
    /// windows are checked against.
    fn wildcard_candidates_linear(
        trace: &MemTrace,
        matching: &Matching,
        hb: &HbIndex,
        include_pinned: bool,
    ) -> Vec<(MatchPair, Vec<RaceWitness>)> {
        let consumer_of: HashMap<(Rank, Seq), &MatchPair> =
            matching.pairs.iter().map(|p| (p.send, p)).collect();
        let mut out = Vec::new();
        for pair in matching.pairs.iter().filter(|p| p.posted_any) {
            let (recv, matched) = (pair.recv, pair.send);
            let Some(tag_pattern) = posted_tag(trace, recv) else {
                continue;
            };
            let mut candidates: BTreeMap<Rank, RaceWitness> = BTreeMap::new();
            for s in &matching.sends {
                if s.src == matched.0
                    || s.dst != recv.0
                    || (tag_pattern != ANY_TAG && s.tag != tag_pattern)
                    || !hb.concurrent((s.src, s.seq), matched)
                {
                    continue;
                }
                let displaced = match consumer_of.get(&(s.src, s.seq)) {
                    Some(p) if !p.posted_any => {
                        if !include_pinned {
                            continue;
                        }
                        None
                    }
                    Some(p) => Some(p.recv),
                    None => None,
                };
                let w = RaceWitness {
                    recv,
                    matched,
                    alternate: (s.src, s.seq),
                    displaced,
                };
                candidates
                    .entry(s.src)
                    .and_modify(|held| {
                        if s.seq < held.alternate.1 {
                            *held = w;
                        }
                    })
                    .or_insert(w);
            }
            if !candidates.is_empty() {
                out.push((*pair, candidates.into_values().collect()));
            }
        }
        out
    }

    /// Windows against the scan on `matching`, for both `include_pinned`
    /// values: witness for witness and in order.
    fn assert_windows_equal_scan(
        trace: &MemTrace,
        matching: &Matching,
        hb: &HbIndex,
    ) -> Result<(), String> {
        for include_pinned in [false, true] {
            let windowed = wildcard_candidates(trace, matching, hb, include_pinned);
            let linear = wildcard_candidates_linear(trace, matching, hb, include_pinned);
            if windowed != linear {
                return Err(format!(
                    "include_pinned={include_pinned}: windows give {windowed:?}, the scan {linear:?}"
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// On the recorded matching and on every completed alternate the
        /// explorer's walk reaches (depth ≤ 3, first 48 plans), whose
        /// matchings list the sends in other issue orders.
        #[test]
        fn channel_windows_equal_the_linear_scan(
            p in 2u32..7,
            sim_seed in 0u64..1_000,
            rounds in prop::collection::vec(round_strategy(WILDCARD), 1..6),
        ) {
            let trace = simulate(p, sim_seed, &rounds);
            let ctx = LintContext::build(&trace);
            let hb = ctx.hb.as_ref().expect("clean trace records a graph");
            let recorded = &ctx.progress.matching;
            prop_assert_eq!(assert_windows_equal_scan(&trace, recorded, hb), Ok(()));
            // The explorer's walk, without its pruning: one index of the
            // recorded sends, swept per matching.
            let channels = Channels::new(recorded, trace.num_ranks());
            let children = |matching: &Matching, plan: &MatchPlan, depth: usize| {
                let mut out = Vec::new();
                let sweep = channels.sweep(&trace, matching, hb);
                extensions(&sweep, matching, plan.forced(), |first, swap| {
                    let mut next = plan.clone().force(first.recv, first.source);
                    if let Some(swap) = swap {
                        next.push(swap.recv, swap.source);
                    }
                    out.push((next, depth));
                });
                out
            };
            let mut frontier = VecDeque::from(children(recorded, &MatchPlan::new(), 1));
            for _ in 0..48 {
                let Some((plan, depth)) = frontier.pop_front() else { break };
                let rep = forced_replay(&trace, &plan);
                if rep.outcome != ForcedOutcome::Completed {
                    continue;
                }
                prop_assert_eq!(assert_windows_equal_scan(&trace, &rep.matching, hb), Ok(()));
                if depth < 3 {
                    frontier.extend(children(&rep.matching, &plan, depth + 1));
                }
            }
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// `find_races` and `explore` are public and do not validate: a
        /// stream whose sequence numbers skip, repeat or swap, or a send to
        /// a rank that does not exist, reaches the windows as it is. They
        /// must terminate without panicking and never invent a candidate.
        /// Where every stream's sequence numbers still ascend — so rows
        /// ascend along them, the invariant the early stop needs — they
        /// equal the scan; a swapped pair can only cost candidates.
        #[test]
        fn channel_windows_survive_unvalidated_traces(
            p in 3u32..6,
            sim_seed in 0u64..1_000,
            rounds in prop::collection::vec(round_strategy(WILDCARD), 2..6),
            rank in 0usize..6,
            pos in 0usize..64,
            mutation in 0u32..4,
        ) {
            let good = simulate(p, sim_seed, &rounds);
            let mut ranks: Vec<Vec<EventRecord>> =
                (0..p as usize).map(|r| good.rank(r).to_vec()).collect();
            let stream = &mut ranks[rank % p as usize];
            let pos = pos % (stream.len() - 1);
            match mutation {
                0 => stream[pos..].iter_mut().for_each(|e| e.seq += 3),
                1 => stream[pos + 1].seq = stream[pos].seq,
                2 => {
                    stream[pos].seq += 1;
                    stream[pos + 1].seq -= 1;
                }
                _ => {
                    let peer = stream.iter_mut().skip(pos).find_map(|e| match &mut e.kind {
                        EventKind::Send { peer, .. } | EventKind::Isend { peer, .. } => Some(peer),
                        _ => None,
                    });
                    if let Some(peer) = peer {
                        *peer = p + 7;
                    }
                }
            }
            let ascending = ranks.iter().all(|s| s.windows(2).all(|w| w[0].seq <= w[1].seq));
            let bad = MemTrace::from_ranks(ranks);
            prop_assert_eq!(check_unvalidated(&bad, ascending), Ok(()));
        }
    }

    fn check_unvalidated(bad: &MemTrace, ascending: bool) -> Result<(), String> {
        let ctx = LintContext::build(bad);
        let Some(hb) = ctx.hb.as_ref() else {
            return Ok(());
        };
        let matching = &ctx.progress.matching;
        for include_pinned in [false, true] {
            let windowed = wildcard_candidates(bad, matching, hb, include_pinned);
            let mut linear = wildcard_candidates_linear(bad, matching, hb, include_pinned);
            if !ascending {
                // Keep what the windows kept; the rest must match.
                for (pair, ws) in &mut linear {
                    let kept = windowed.iter().find(|(q, _)| q == pair);
                    ws.retain(|w| kept.is_some_and(|(_, k)| k.contains(w)));
                }
                linear.retain(|(_, ws)| !ws.is_empty());
            }
            if windowed != linear {
                return Err(format!(
                    "include_pinned={include_pinned}: windows give {windowed:?}, the scan {linear:?}"
                ));
            }
        }
        rejoin_equals_whole_suffix(bad, matching, hb)?;
        crate::explore(&ctx, &crate::ExploreOptions::cli_default().budget(8));
        Ok(())
    }

    /// The verdict one whole simulation under `w`'s plan gives.
    fn whole_run_holds(trace: &MemTrace, w: &RaceWitness) -> bool {
        let policy = MatchPolicy::Witness(witness_plan(w));
        let m = run_progress(trace, &policy).matching;
        let took = |p: &MatchPair| p.recv == w.recv && p.send.0 == w.alternate.0;
        m.completed && m.pairs.iter().any(took)
    }

    /// Every candidate pass 4 would replay on `matching` — and the pinned
    /// ones only the explorer forces, whose one-receive plans the guard
    /// refuses — gets from a [`witnesses_hold`] batch the verdict of its own
    /// whole simulation. Returns how many do not hold.
    fn rejoin_equals_whole_suffix(
        trace: &MemTrace,
        matching: &Matching,
        hb: &HbIndex,
    ) -> Result<usize, String> {
        let mut infeasible = 0;
        for include_pinned in [false, true] {
            let candidates = wildcard_candidates(trace, matching, hb, include_pinned);
            let witnesses: Vec<&RaceWitness> = candidates.iter().flat_map(|(_, ws)| ws).collect();
            let holds = witnesses_hold(trace, matching, &witnesses);
            for (w, held) in witnesses.iter().zip(holds) {
                if held != whole_run_holds(trace, w) {
                    return Err(format!("{w:?}: the batch says {held}"));
                }
                infeasible += usize::from(!held);
            }
        }
        Ok(infeasible)
    }

    /// DESIGN.md §18.8 as a property: stopping a fork where it rejoins the
    /// recorded program never changes what pass 4 reads off it. Over
    /// programs with every kind of gather, request–reply turns, wildcard
    /// rings, pinned consumers and barriers.
    #[test]
    fn rejoin_verdict_equals_whole_suffix() {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

            fn cases(
                p in 2u32..7,
                sim_seed in 0u64..1_000,
                rounds in prop::collection::vec(round_strategy(ANY_WILDCARD), 1..6),
            ) {
                let Some(trace) = try_simulate(p, sim_seed, &rounds) else {
                    continue;
                };
                let ctx = LintContext::build(&trace);
                let hb = ctx.hb.as_ref().expect("clean trace records a graph");
                let infeasible = rejoin_equals_whole_suffix(&trace, &ctx.progress.matching, hb);
                prop_assert!(infeasible.is_ok(), "{:?}", infeasible);
                INFEASIBLE.with(|c| c.set(c.get() + infeasible.unwrap()));
            }
        }
        thread_local! {
            static INFEASIBLE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        let before = (REJOINS.with(|c| c.get()), GUARD_REFUSALS.with(|c| c.get()));
        cases();
        let rejoins = REJOINS.with(|c| c.get()) - before.0;
        let refusals = GUARD_REFUSALS.with(|c| c.get()) - before.1;
        let infeasible = INFEASIBLE.with(|c| c.get());
        // Not vacuous on any side (measured: 8 031, 15 and 17).
        assert!(rejoins > 1_000, "{rejoins} forks stopped early");
        assert!(refusals > 0, "{refusals} plans refused by the guard");
        assert!(infeasible > 0, "{infeasible} infeasible candidates");
    }

    fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        let before = (BASE_RUNS.with(|c| c.get()), STEPS.with(|c| c.get()));
        let out = f();
        let runs = BASE_RUNS.with(|c| c.get()) - before.0;
        let steps = STEPS.with(|c| c.get()) - before.1;
        (out, runs, steps)
    }

    /// What `f` adds to the fork counters: forks stopped at their rejoin
    /// point, plans the guard refused, log entries copied into forks.
    fn forks_counted<T>(f: impl FnOnce() -> T) -> (T, [usize; 3]) {
        let read = || {
            [
                REJOINS.with(|c| c.get()),
                GUARD_REFUSALS.with(|c| c.get()),
                PAIRS_COPIED.with(|c| c.get()),
            ]
        };
        let before = read();
        let out = f();
        let after = read();
        (out, [0, 1, 2].map(|i| after[i] - before[i]))
    }

    #[test]
    fn pass_4_is_one_recorded_run_plus_a_suffix_per_witness() {
        let trace = master_worker_trace();
        assert_eq!(trace.total_events(), 1950);
        let ctx = LintContext::build(&trace);
        let hb = ctx.hb.as_ref().expect("clean trace records a graph");
        let matching = &ctx.progress.matching;
        let candidates = wildcard_candidates(&trace, matching, hb, false);
        let plans: usize = candidates.iter().map(|(_, ws)| ws.len()).sum();
        assert_eq!(plans, 2304);

        let (_, _, steps_per_run) = counted(|| run_progress(&trace, &MatchPolicy::Recorded));
        let ((findings, base_runs, steps), [rejoins, refusals, pairs_copied]) =
            forks_counted(|| counted(|| find_races(&trace, matching, hb)));
        assert_eq!(base_runs, 1, "one simulation started from step 0");
        // Every fork stops where it rejoins the recorded program, some 23
        // steps in (measured 0.0099 of the from-scratch count; forks run to
        // quiescence took 0.51 of it), and none carries the logs.
        let from_scratch = plans * steps_per_run;
        assert!(
            (steps as f64) < 0.02 * from_scratch as f64,
            "{steps} steps for {plans} witnesses of {steps_per_run} steps each"
        );
        assert_eq!((rejoins, refusals), (plans, 0));
        assert_eq!(pairs_copied, 0);

        // The verdicts are those of one whole simulation per candidate.
        let mut expected = Vec::new();
        for (pair, ws) in &candidates {
            let holds: Vec<RaceWitness> = ws
                .iter()
                .filter(|w| whole_run_holds(&trace, w))
                .copied()
                .collect();
            if !holds.is_empty() {
                expected.push((pair.recv, holds));
            }
        }
        let found: Vec<_> = findings
            .into_iter()
            .map(|f| (f.recv, f.witnesses))
            .collect();
        assert_eq!(found, expected);
        assert_eq!(found.len(), 384);
    }

    #[test]
    fn no_candidates_no_simulation() {
        // A ring has no wildcard receive: pass 4 must not even run the
        // recorded schedule.
        let trace = mpg_sim::Simulation::new(4, PlatformSignature::quiet("ring"))
            .run(|ctx| {
                let (me, p) = (ctx.rank(), ctx.size());
                ctx.sendrecv((me + 1) % p, 0, 64, (me + p - 1) % p, 0);
            })
            .expect("ring simulates")
            .trace;
        let ctx = LintContext::build(&trace);
        let hb = ctx.hb.as_ref().expect("clean trace records a graph");
        let (findings, base_runs, steps) =
            counted(|| find_races(&trace, &ctx.progress.matching, hb));
        assert!(findings.is_empty());
        assert_eq!((base_runs, steps), (0, 0));
    }
}
