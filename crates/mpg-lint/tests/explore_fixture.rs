//! Hand-built workloads for the pass-8 schedule-space explorer.
//!
//! The centerpiece is the planted may-deadlock: a program whose recorded
//! run completes, but whose wildcard receive — re-matched onto the other
//! compatible sender — starves a synchronous send and wedges two ranks
//! in a wait-for cycle. Pass 4 cannot report it (the alternate's
//! recorded consumer is a specific receive, so there is no completing
//! single-swap witness); the explorer forces the match anyway and
//! watches the replay deadlock.

use mpg_core::forced::ForcedOutcome;
use mpg_lint::{forced_replay, lint_explore, lint_full, ExploreFindingKind, ExploreOptions};
use mpg_trace::{EventKind, EventRecord, MemTrace, Rank, Rule, SendProtocol};

/// Builds a trace from per-rank `(kind, duration)` programs, wrapping
/// each rank in Init/Finalize with dense sequence numbers and monotone
/// clocks.
fn trace_of(programs: Vec<Vec<(EventKind, u64)>>) -> MemTrace {
    let mut mt = MemTrace::new(programs.len());
    for (rank, body) in programs.into_iter().enumerate() {
        let mut steps = vec![(EventKind::Init, 10)];
        steps.extend(body);
        steps.push((EventKind::Finalize, 10));
        let mut t = 0u64;
        for (i, (kind, dur)) in steps.into_iter().enumerate() {
            mt.push(EventRecord {
                rank: rank as Rank,
                seq: i as u64,
                t_start: t,
                t_end: t + dur,
                kind,
            });
            t += dur;
        }
    }
    mt
}

fn send(peer: Rank, tag: u32) -> (EventKind, u64) {
    (
        EventKind::Send {
            peer,
            tag,
            bytes: 8,
            protocol: SendProtocol::Standard,
        },
        10,
    )
}

fn ssend(peer: Rank, tag: u32) -> (EventKind, u64) {
    (
        EventKind::Send {
            peer,
            tag,
            bytes: 8,
            protocol: SendProtocol::Synchronous,
        },
        10,
    )
}

fn recv(peer: Rank, tag: u32) -> (EventKind, u64) {
    (
        EventKind::Recv {
            peer,
            tag,
            bytes: 8,
            posted_any: false,
        },
        10,
    )
}

fn recv_any(peer: Rank, tag: u32) -> (EventKind, u64) {
    (
        EventKind::Recv {
            peer,
            tag,
            bytes: 8,
            posted_any: true,
        },
        10,
    )
}

fn compute(dur: u64) -> (EventKind, u64) {
    (EventKind::Compute { work: dur }, dur)
}

fn barrier(comm_size: u32) -> (EventKind, u64) {
    (EventKind::Barrier { comm_size }, 10)
}

/// The planted may-deadlock. Recorded: rank 0's wildcard takes rank 1's
/// synchronous send, the barrier passes, and the specific receive drains
/// rank 2's eager send. Forced onto rank 2 instead: rank 1's ssend has
/// no consumer left (the only remaining receive specifically names rank
/// 2, whose message is gone), rank 1 never reaches the barrier, and
/// ranks 0 and 1 wait on each other forever.
fn may_deadlock_trace() -> MemTrace {
    trace_of(vec![
        vec![recv_any(1, 0), barrier(3), recv(2, 0)],
        vec![ssend(0, 0), barrier(3)],
        vec![send(0, 0), barrier(3)],
    ])
}

#[test]
fn planted_may_deadlock_is_found_and_replayable() {
    let t = may_deadlock_trace();
    // The recorded run is clean: pass 4 must *not* fire (the alternate's
    // consumer is pinned), and nothing errors.
    let plain = lint_full(&t);
    assert!(
        !plain.iter().any(|d| d.rule == Rule::WildRace),
        "pinned-consumer alternate is not a single-swap race: {plain:?}"
    );
    assert!(
        !plain.iter().any(|d| d.rule == Rule::MayDeadlock),
        "budget-0 lint must not explore: {plain:?}"
    );

    let opts = ExploreOptions {
        budget: 8,
        depth: 2,
        divergence_pct: 10.0,
        seed: 0,
        cancel: None,
    };
    let out = lint_explore(&t, &opts, None);
    let finding = out
        .findings
        .iter()
        .find(|f| matches!(f.kind, ExploreFindingKind::MayDeadlock { .. }))
        .expect("explorer must find the planted may-deadlock");
    let ExploreFindingKind::MayDeadlock { ref cycle } = finding.kind else {
        unreachable!()
    };
    assert_eq!(cycle, &vec![0, 1], "the cycle is ranks 0 and 1");

    // The witness is independently re-replayable: feeding the reported
    // plan back through the shared forced-replay path deadlocks again.
    let rep = forced_replay(&t, &finding.plan);
    assert_eq!(rep.outcome, ForcedOutcome::Deadlocked);
    assert!(rep.diags.iter().any(|d| d.rule == Rule::Deadlock));

    // The diagnostic names the full forced match sequence.
    let diag = out
        .diags
        .iter()
        .find(|d| d.rule == Rule::MayDeadlock)
        .expect("diagnostic rendered");
    assert!(
        diag.message.contains(&finding.plan.to_string()),
        "finding text must carry the re-replayable plan: {}",
        diag.message
    );
    assert!(!out.stats.budget_exhausted);
    assert_eq!(out.stats.frontier_unexplored, 0);
    assert!(out.stats.explored >= 1);
}

/// Swapping the two wildcard matches parks rank 0's long compute phase
/// behind rank 2's late message: the makespan estimate shifts far past
/// the threshold.
fn divergence_trace() -> MemTrace {
    trace_of(vec![
        vec![recv_any(1, 5), compute(1000), recv_any(2, 5)],
        vec![send(0, 5)],
        vec![compute(800), send(0, 5)],
    ])
}

#[test]
fn schedule_divergence_is_quantified() {
    let t = divergence_trace();
    let opts = ExploreOptions {
        budget: 8,
        depth: 2,
        divergence_pct: 10.0,
        seed: 0,
        cancel: None,
    };
    let out = lint_explore(&t, &opts, None);
    let finding = out
        .findings
        .iter()
        .find(|f| matches!(f.kind, ExploreFindingKind::Divergence { .. }))
        .expect("swapped matching must shift the makespan: {out.findings:?}");
    let ExploreFindingKind::Divergence { base, alt, pct } = finding.kind else {
        unreachable!()
    };
    assert!(alt > base, "alternate schedule is slower: {base} -> {alt}");
    assert!(pct > 10.0, "shift is well past the threshold: {pct}");
    // And the plan really completes when re-replayed.
    let rep = forced_replay(&t, &finding.plan);
    assert_eq!(rep.outcome, ForcedOutcome::Completed);
}

#[test]
fn exhausted_budget_is_reported_honestly() {
    // Three wildcard receives, three senders: the seed frontier holds
    // several distinct plans, so a budget of one must stop early and say
    // exactly how much it left on the table.
    let t = trace_of(vec![
        vec![recv_any(1, 5), recv_any(2, 5), recv_any(3, 5)],
        vec![send(0, 5)],
        vec![send(0, 5)],
        vec![send(0, 5)],
    ]);
    let opts = ExploreOptions {
        budget: 1,
        depth: 2,
        divergence_pct: 10.0,
        seed: 0,
        cancel: None,
    };
    let out = lint_explore(&t, &opts, None);
    assert_eq!(out.stats.explored, 1);
    assert!(out.stats.budget_exhausted);
    assert!(out.stats.frontier_unexplored > 0);
    let coverage = out.stats.coverage();
    assert!(
        coverage.contains("budget exhausted") && coverage.contains("unexplored"),
        "{coverage}"
    );
}

#[test]
fn budget_zero_is_bit_identical_to_lint_full() {
    for t in [may_deadlock_trace(), divergence_trace()] {
        let out = lint_explore(&t, &ExploreOptions::default(), None);
        assert_eq!(out.diags, lint_full(&t));
        assert!(out.findings.is_empty());
        assert_eq!(out.stats.explored, 0);
    }
}

#[test]
fn seed_rotates_exploration_order_deterministically() {
    let t = trace_of(vec![
        vec![recv_any(1, 5), recv_any(2, 5), recv_any(3, 5)],
        vec![send(0, 5)],
        vec![send(0, 5)],
        vec![send(0, 5)],
    ]);
    let run = |seed: u64| {
        let opts = ExploreOptions {
            budget: 64,
            depth: 2,
            divergence_pct: 10.0,
            seed,
            cancel: None,
        };
        lint_explore(&t, &opts, None)
    };
    let (a, b) = (run(0), run(0));
    assert_eq!(a.diags, b.diags, "same seed, same everything");
    assert_eq!(a.stats, b.stats);
    // A different seed visits the same exhaustive frontier — only the
    // order changes, so the totals agree.
    let c = run(3);
    assert_eq!(a.stats.explored, c.stats.explored);
    assert_eq!(a.stats.pruned, c.stats.pruned);
}
