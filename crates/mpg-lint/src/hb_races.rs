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
//! (`progress::replay_plans`): one recorded run, and per candidate only
//! the part of its schedule after the point where it leaves the recorded
//! one.

use crate::progress::{forced_replay, replay_plans, MatchPair, Matching};
use mpg_core::forced::MatchPlan;
use mpg_core::HbIndex;
use mpg_trace::{Diagnostic, EventKind, MemTrace, Rank, Rule, Seq, ANY_TAG};
use std::collections::{BTreeMap, HashMap};

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

/// Enumerates the unvalidated alternate-match candidates of every
/// wildcard pair in `matching`: envelope-compatible sends concurrent
/// with the recorded match, earliest per alternate source (the
/// non-overtaking rule hands a forced pattern the earliest unconsumed
/// message of that source, so later ones are subsumed). With
/// `include_pinned` false, alternates whose recorded consumer is a
/// *specific* (non-wildcard) receive are skipped — swapping them would
/// need a cascade of reassignments, so they are not single-swap
/// alternates for pass 4. The pass-8 explorer sets it true: forcing the
/// wildcard anyway and watching the specific receive starve is exactly
/// how alternate-schedule deadlocks are found.
pub(crate) fn wildcard_candidates(
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
                    // The specific receive cannot be re-pointed; force
                    // only the wildcard and let the replay decide.
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

/// Finds every wildcard receive with a validated concurrent alternate.
pub fn find_races(trace: &MemTrace, matching: &Matching, hb: &HbIndex) -> Vec<RaceFinding> {
    let candidates = wildcard_candidates(trace, matching, hb, false);
    // A witness holds when its forced schedule completes *and* the racy
    // receive really took the alternate source.
    let holds = {
        let witnesses: Vec<&RaceWitness> = candidates.iter().flat_map(|(_, ws)| ws).collect();
        let mut holds = vec![false; witnesses.len()];
        let plan = |i: usize| witness_plan(witnesses[i]);
        replay_plans(trace, witnesses.len(), plan, |i, sim| {
            let w = witnesses[i];
            holds[i] = sim.completed() && sim.delivered(w.recv, w.alternate.0);
        });
        holds
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{run_progress, MatchPolicy, BASE_RUNS, STEPS};
    use crate::LintContext;
    use mpg_apps::{MasterWorker, Workload};
    use mpg_noise::PlatformSignature;

    /// The trace of `mpgtool gen --workload master-worker --ranks 8
    /// --scale 6` (the benchmark's `master-worker-wild-8`): 384 tasks
    /// handed out through `ANY_SOURCE` result receives.
    fn master_worker_trace() -> MemTrace {
        let workload = MasterWorker {
            tasks: 384,
            task_work: 200_000,
            task_bytes: 128,
            result_bytes: 128,
        };
        mpg_sim::Simulation::new(8, PlatformSignature::quiet("mpgtool-gen"))
            .seed(1)
            .run(|ctx| workload.run(ctx))
            .expect("master-worker simulates")
            .trace
    }

    fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        let before = (BASE_RUNS.with(|c| c.get()), STEPS.with(|c| c.get()));
        let out = f();
        let runs = BASE_RUNS.with(|c| c.get()) - before.0;
        let steps = STEPS.with(|c| c.get()) - before.1;
        (out, runs, steps)
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
        let (findings, base_runs, steps) = counted(|| find_races(&trace, matching, hb));
        assert_eq!(base_runs, 1, "one simulation started from step 0");
        let from_scratch = plans * steps_per_run;
        assert!(
            (steps as f64) < 0.6 * from_scratch as f64,
            "{steps} steps for {plans} witnesses of {steps_per_run} steps each"
        );

        // The verdicts are those of one whole simulation per candidate.
        let mut expected = Vec::new();
        for (pair, ws) in &candidates {
            let holds: Vec<RaceWitness> = ws
                .iter()
                .filter(|w| {
                    let policy = MatchPolicy::Witness(witness_plan(w));
                    let m = run_progress(&trace, &policy).matching;
                    let took = |p: &MatchPair| p.recv == w.recv && p.send.0 == w.alternate.0;
                    m.completed && m.pairs.iter().any(took)
                })
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
