//! The pass-8 walk as it was before the frontier went flat: a `MatchPlan`
//! cloned and extended per candidate, a `HashSet` of sorted `ForcedMatch`
//! vectors as the sleep set, a `VecDeque` of plans as the frontier, the
//! makespan estimator on three hash maps and the candidate enumeration
//! re-sorting every send per call. Kept as the reference `src/explore.rs`
//! is checked against (it includes this file with `#[path]` under
//! `#[cfg(test)]`): findings, their order and every `ExploreStats` field
//! must be equal. Its only change since is the estimator's saturating
//! adds, which both estimators share.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::explore::{ExploreFinding, ExploreFindingKind, ExploreOptions, ExploreReport};
use crate::hb_races::RaceWitness;
use crate::progress::{forced_replay, MatchPair, Matching, SendRec};
use crate::LintContext;
use mpg_core::forced::{ForcedMatch, ForcedOutcome, MatchPlan};
use mpg_core::HbIndex;
use mpg_trace::{EventKind, MemTrace, Rank, Rule, Seq, ANY_TAG};

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

    // Sleep set: the key of every plan ever scheduled.
    let mut sleep: HashSet<Vec<ForcedMatch>> = HashSet::new();
    let mut frontier: VecDeque<(MatchPlan, usize)> = VecDeque::new();

    // Seed from the recorded matching, pinned-consumer alternates
    // included. The seed rotation makes small budgets sample different
    // neighborhoods deterministically.
    let mut seeds = extensions(trace, recorded, hb, &MatchPlan::new());
    if !seeds.is_empty() {
        let rot = (opts.seed as usize) % seeds.len();
        seeds.rotate_left(rot);
    }
    for plan in seeds {
        if sleep.insert(sleep_key(&plan)) {
            frontier.push_back((plan, 1));
        } else {
            stats.pruned += 1;
        }
    }

    while let Some((plan, depth)) = frontier.pop_front() {
        if let Some(token) = &opts.cancel {
            if let Some(reason) = token.fired() {
                stats.cancelled = Some(reason);
                stats.frontier_unexplored = frontier.len() as u64 + 1;
                break;
            }
        }
        if stats.explored >= opts.budget {
            stats.budget_exhausted = true;
            stats.frontier_unexplored = frontier.len() as u64 + 1;
            break;
        }
        stats.explored += 1;
        stats.max_depth = stats.max_depth.max(depth as u64);
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
                            report.findings.push(ExploreFinding {
                                plan: plan.clone(),
                                recv: seed_recv,
                                kind: ExploreFindingKind::Divergence { base: b, alt, pct },
                            });
                        }
                    }
                }
                if depth < opts.depth {
                    for next in extensions(trace, &rep.matching, hb, &plan) {
                        if sleep.insert(sleep_key(&next)) {
                            frontier.push_back((next, depth + 1));
                        } else {
                            stats.pruned += 1;
                        }
                    }
                }
            }
            // The forcing wedged without a cycle: the forced message was
            // pinned elsewhere in a way that starves the plan without
            // mutual blocking. Not a witness of anything; counted so the
            // coverage line stays honest.
            ForcedOutcome::Stuck => stats.infeasible += 1,
        }
    }
    report
}

/// Order-insensitive identity of a plan for the sleep set: two plans
/// forcing the same resolutions in a different discovery order explore the
/// same schedule.
fn sleep_key(plan: &MatchPlan) -> Vec<ForcedMatch> {
    let mut key = plan.forced().to_vec();
    key.sort_unstable();
    key
}

/// Extensions of `plan` from the candidates of `matching` (the matching
/// its forced replay established). Implements the persistent-set
/// restriction: only branch on wildcard receives whose pair position in
/// the current match order is at or after the deepest already-forced
/// receive — earlier swaps commute with this suffix and belong to the
/// sibling branch that forced them first. Conflicting forcings (a
/// receive or its displaced partner already pinned by the plan) are
/// skipped.
fn extensions(
    trace: &MemTrace,
    matching: &Matching,
    hb: &mpg_core::HbIndex,
    plan: &MatchPlan,
) -> Vec<MatchPlan> {
    let pos: HashMap<(Rank, Seq), usize> = matching
        .pairs
        .iter()
        .enumerate()
        .map(|(i, p)| (p.recv, i))
        .collect();
    let floor = plan
        .forced()
        .iter()
        .filter_map(|f| pos.get(&f.recv).copied())
        .max()
        .unwrap_or(0);
    let mut out = Vec::new();
    for (pair, candidates) in wildcard_candidates(trace, matching, hb, true) {
        if plan.forces(pair.recv) || pos.get(&pair.recv).copied().unwrap_or(0) < floor {
            continue;
        }
        for w in candidates {
            if w.displaced.is_some_and(|d| plan.forces(d)) {
                continue;
            }
            let mut next = plan.clone().force(w.recv, w.alternate.0);
            if let Some(displaced) = w.displaced {
                next = next.force(displaced, w.matched.0);
            }
            out.push(next);
        }
    }
    out
}

pub fn matching_makespan(trace: &MemTrace, matching: &Matching) -> Option<u64> {
    let p = trace.num_ranks();
    if p == 0 {
        return Some(0);
    }
    // (recv rank, completion seq) -> sends that must finish first.
    let mut deps: HashMap<(Rank, Seq), Vec<(Rank, Seq)>> = HashMap::new();
    for pair in &matching.pairs {
        deps.entry((pair.recv.0, pair.completion))
            .or_default()
            .push(pair.send);
    }
    let mut send_end: HashMap<(Rank, Seq), u64> = HashMap::new();
    let mut clock = vec![0u64; p];
    let mut pc = vec![0usize; p];
    // Collective epochs: (count per rank, per-epoch arrivals + max entry).
    let mut coll_count = vec![0u64; p];
    let mut epochs: HashMap<u64, (usize, u64)> = HashMap::new();
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
                        let slot = epochs.entry(k).or_insert((0, 0));
                        slot.0 += 1;
                        slot.1 = slot.1.max(clock[r]);
                    }
                    let k = coll_count[r] - 1;
                    let &(n, entry_max) = epochs.get(&k).expect("arrived epoch");
                    if n < p {
                        break;
                    }
                    clock[r] = entry_max.saturating_add(dur);
                    arrived[r] = false;
                } else {
                    let mut start = clock[r];
                    if let Some(sends) = deps.get(&(ev.rank, ev.seq)) {
                        let mut ready = true;
                        for s in sends {
                            match send_end.get(s) {
                                Some(&t) => start = start.max(t),
                                None => {
                                    ready = false;
                                    break;
                                }
                            }
                        }
                        if !ready {
                            break;
                        }
                    }
                    let end = start.saturating_add(dur);
                    if matches!(ev.kind, EventKind::Send { .. } | EventKind::Isend { .. }) {
                        send_end.insert((ev.rank, ev.seq), end);
                    }
                    clock[r] = end;
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

fn posted_tag(trace: &MemTrace, recv: (Rank, Seq)) -> Option<mpg_trace::Tag> {
    match trace.rank(recv.0 as usize).get(recv.1 as usize)?.kind {
        EventKind::Recv { tag, .. } | EventKind::Irecv { tag, .. } => Some(tag),
        _ => None,
    }
}

fn wildcard_candidates(
    trace: &MemTrace,
    matching: &Matching,
    hb: &HbIndex,
    include_pinned: bool,
) -> Vec<(MatchPair, Vec<RaceWitness>)> {
    if !matching.pairs.iter().any(|p| p.posted_any) {
        return Vec::new();
    }
    let consumer_of: HashMap<(Rank, Seq), &MatchPair> =
        matching.pairs.iter().map(|p| (p.send, p)).collect();
    // Every `(dst, src)` channel as one run, ascending by `seq`. The sort
    // is stable, so sends sharing a sequence number keep issue order.
    let mut sends: Vec<&SendRec> = matching.sends.iter().collect();
    sends.sort_by_key(|s| (s.dst, s.src, s.seq));
    let mut out = Vec::new();
    for pair in matching.pairs.iter().filter(|p| p.posted_any) {
        let (recv, matched) = (pair.recv, pair.send);
        let Some(tag_pattern) = posted_tag(trace, recv) else {
            continue;
        };
        let to_recv = &sends[sends.partition_point(|s| s.dst < recv.0)..];
        let to_recv = &to_recv[..to_recv.partition_point(|s| s.dst == recv.0)];
        let mut candidates = Vec::new();
        for channel in to_recv.chunk_by(|a, b| a.src == b.src) {
            let src = channel[0].src;
            if src == matched.0 {
                continue;
            }
            // The sends of `src` that happen before the match are a prefix
            // of the channel; the earliest acceptable send past it is the
            // candidate. Rows never decrease along a rank's program order
            // (see `HbIndex`), so once the match happens before one send it
            // happens before every later one.
            let issued = hb.issue_horizon(src, matched);
            for s in &channel[channel.partition_point(|s| s.seq < issued)..] {
                if hb.happens_before(matched, (s.src, s.seq)) {
                    break;
                }
                if tag_pattern != ANY_TAG && s.tag != tag_pattern {
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
                candidates.push(RaceWitness {
                    recv,
                    matched,
                    alternate: (s.src, s.seq),
                    displaced,
                });
                break;
            }
        }
        if !candidates.is_empty() {
            out.push((*pair, candidates));
        }
    }
    out
}
