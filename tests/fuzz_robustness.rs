//! Failure injection: the analyzer must handle *arbitrary* (including
//! malformed) traces by returning an error — never panicking, hanging, or
//! silently producing garbage. "The process of taking traces … has the
//! benefit of using the fact that the program did run correctly" (§4.3);
//! these tests cover the inputs where that assumption is violated.

use proptest::prelude::*;

use mpg::core::{PerturbationModel, ReplayConfig, Replayer};
use mpg::des::{DimemasReplay, MachineModel};
use mpg::noise::PlatformSignature;
use mpg::trace::{EventKind, EventRecord, MemTrace};

/// Arbitrary event kinds with small id spaces so collisions (duplicate
/// requests, mismatched collectives, dangling peers) actually happen.
fn kind_strategy(p: u32) -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Init),
        Just(EventKind::Finalize),
        (1u64..10_000).prop_map(|work| EventKind::Compute { work }),
        ((0..p), (0u32..3), (0u64..1_000), (0u8..4)).prop_map(|(peer, tag, bytes, pr)| {
            EventKind::Send {
                peer,
                tag,
                bytes,
                protocol: match pr {
                    0 => mpg::trace::SendProtocol::Standard,
                    1 => mpg::trace::SendProtocol::Synchronous,
                    2 => mpg::trace::SendProtocol::Buffered,
                    _ => mpg::trace::SendProtocol::Ready,
                },
            }
        }),
        ((0..p), (0u32..3), (0u64..1_000)).prop_map(|(peer, tag, bytes)| EventKind::Recv {
            peer,
            tag,
            bytes,
            posted_any: false
        }),
        ((0..p), (0u32..3), (0u64..1_000), (1u64..6)).prop_map(|(peer, tag, bytes, req)| {
            EventKind::Isend {
                peer,
                tag,
                bytes,
                req,
            }
        }),
        ((0..p), (0u32..3), (0u64..1_000), (1u64..6)).prop_map(|(peer, tag, bytes, req)| {
            EventKind::Irecv {
                peer,
                tag,
                bytes,
                req,
                posted_any: false,
            }
        }),
        (1u64..6).prop_map(|req| EventKind::Wait { req }),
        prop::collection::vec(1u64..6, 0..4).prop_map(|reqs| EventKind::WaitAll { reqs }),
        ((1u64..6), any::<bool>()).prop_map(|(req, completed)| EventKind::Test { req, completed }),
        (1u32..6).prop_map(|comm_size| EventKind::Barrier { comm_size }),
        ((0..p), (0u64..100), (1u32..6)).prop_map(|(root, bytes, comm_size)| {
            EventKind::Bcast {
                root,
                bytes,
                comm_size,
            }
        }),
        ((0u64..100), (1u32..6))
            .prop_map(|(bytes, comm_size)| EventKind::Allreduce { bytes, comm_size }),
        ((0u64..100), (1u32..6))
            .prop_map(|(bytes, comm_size)| EventKind::Alltoall { bytes, comm_size }),
    ]
}

fn arbitrary_trace(p: u32) -> impl Strategy<Value = MemTrace> {
    prop::collection::vec(
        prop::collection::vec((1u32..500, 1u32..500, kind_strategy(p)), 0..20),
        1..=p as usize,
    )
    .prop_map(move |ranks| {
        let mut mt = MemTrace::new(ranks.len());
        for (r, events) in ranks.into_iter().enumerate() {
            let mut t = 0u64;
            for (i, (gap, dur, kind)) in events.into_iter().enumerate() {
                let t_start = t + u64::from(gap);
                let t_end = t_start + u64::from(dur);
                t = t_end;
                mt.push(EventRecord {
                    rank: r as u32,
                    seq: i as u64,
                    t_start,
                    t_end,
                    kind,
                });
            }
        }
        mt
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The graph replayer terminates on arbitrary garbage with Ok or a
    /// diagnostic error — no panic, no hang.
    #[test]
    fn replay_never_panics_on_garbage(trace in arbitrary_trace(4)) {
        let replayer = Replayer::new(
            ReplayConfig::new(PerturbationModel::quiet("fuzz")).record_graph(true),
        );
        let _ = replayer.run(&trace); // Ok or Err both acceptable
    }

    /// Same for the DES baseline.
    #[test]
    fn dimemas_never_panics_on_garbage(trace in arbitrary_trace(4)) {
        let model = MachineModel::from_signature(&PlatformSignature::quiet("fuzz"));
        let _ = DimemasReplay::new(model).run(&trace);
    }

    /// When a garbage trace happens to replay cleanly with the identity
    /// model, the result must be zero drift — garbage in, *consistent*
    /// garbage out.
    #[test]
    fn garbage_identity_replay_is_still_identity(trace in arbitrary_trace(3)) {
        let replayer = Replayer::new(ReplayConfig::new(PerturbationModel::quiet("fuzz")));
        if let Ok(report) = replayer.run(&trace) {
            prop_assert!(report.final_drift.iter().all(|&d| d == 0));
        }
    }
}

#[test]
fn truncated_trace_stream_reports_error() {
    // A trace whose stream dies mid-way must surface as ReplayError::Trace.
    use mpg::trace::TraceError;
    let streams: Vec<std::vec::IntoIter<Result<EventRecord, TraceError>>> = vec![vec![
        Ok(EventRecord {
            rank: 0,
            seq: 0,
            t_start: 0,
            t_end: 10,
            kind: EventKind::Init,
        }),
        Err(TraceError::Corrupt("disk died".into())),
    ]
    .into_iter()];
    let err = Replayer::new(ReplayConfig::new(PerturbationModel::quiet("t")))
        .run_streams_parallel(streams, 1)
        .unwrap_err();
    assert!(matches!(err, mpg::core::ReplayError::Trace(_)), "{err}");
}

#[test]
fn backwards_clock_reports_corrupt() {
    let mut mt = MemTrace::new(1);
    mt.push(EventRecord {
        rank: 0,
        seq: 0,
        t_start: 0,
        t_end: 100,
        kind: EventKind::Init,
    });
    mt.push(EventRecord {
        rank: 0,
        seq: 1,
        t_start: 50, // overlaps the previous event
        t_end: 60,
        kind: EventKind::Finalize,
    });
    let err = Replayer::new(ReplayConfig::new(PerturbationModel::quiet("t")))
        .run(&mt)
        .unwrap_err();
    assert!(matches!(err, mpg::core::ReplayError::Corrupt(_)), "{err}");
}

#[test]
fn collective_size_mismatch_reports_corrupt() {
    let mut mt = MemTrace::new(2);
    for r in 0..2u32 {
        mt.push(EventRecord {
            rank: r,
            seq: 0,
            t_start: 0,
            t_end: 10,
            kind: EventKind::Init,
        });
        mt.push(EventRecord {
            rank: r,
            seq: 1,
            t_start: 10,
            t_end: 20,
            kind: EventKind::Barrier { comm_size: 99 },
        });
        mt.push(EventRecord {
            rank: r,
            seq: 2,
            t_start: 20,
            t_end: 30,
            kind: EventKind::Finalize,
        });
    }
    let err = Replayer::new(ReplayConfig::new(PerturbationModel::quiet("t")))
        .run(&mt)
        .unwrap_err();
    assert!(matches!(err, mpg::core::ReplayError::Corrupt(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Lint robustness: a good trace stays clean; any single corruption of a good
// trace is caught with at least one diagnostic, and linting never panics.
// ---------------------------------------------------------------------------

use std::sync::OnceLock;

use mpg::apps::{AllreduceSolver, MasterWorker, Pipeline, Stencil, TokenRing, Workload};
use mpg::noise::PlatformSignature as Sig;
use mpg::sim::Simulation;
use mpg::trace::Severity;

/// Deterministic workloads with no wildcard receives: every event is
/// load-bearing, so any structural mutation is observable.
fn good_traces() -> &'static [MemTrace] {
    static TRACES: OnceLock<Vec<MemTrace>> = OnceLock::new();
    TRACES.get_or_init(|| {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(TokenRing {
                traversals: 3,
                particles_per_rank: 8,
                work_per_pair: 25,
            }),
            Box::new(Stencil {
                iters: 4,
                cells_per_rank: 500,
                work_per_cell: 40,
                halo_bytes: 256,
            }),
            Box::new(AllreduceSolver {
                iters: 4,
                local_work: 10_000,
                vector_bytes: 64,
            }),
            Box::new(Pipeline {
                waves: 4,
                work_per_stage: 10_000,
                payload: 128,
            }),
        ];
        workloads
            .iter()
            .map(|w| {
                Simulation::new(4, Sig::quiet("fuzz-lint"))
                    .seed(7)
                    .run(|ctx| w.run(ctx))
                    .expect("workload simulates cleanly")
                    .trace
            })
            .collect()
    })
}

/// Pass 7 as it was before it read happens-before rows as thresholds.
#[path = "../crates/mpg-lint/tests/shared/sync_reference.rs"]
mod sync_reference;

/// What [`good_traces`] leaves out and the happens-before passes live on:
/// barriers between eager and rendezvous exchanges (one of them implied
/// by the rendezvous round-trip before it), and wildcard receives.
fn sync_and_race_traces() -> &'static [MemTrace] {
    static TRACES: OnceLock<Vec<MemTrace>> = OnceLock::new();
    TRACES.get_or_init(|| {
        let barriers = Simulation::new(4, Sig::quiet("fuzz-sync"))
            .seed(7)
            .run(|ctx| {
                let (me, p) = (ctx.rank(), ctx.size());
                let (left, right) = ((me + p - 1) % p, (me + 1) % p);
                for round in 0..3 {
                    for _ in 0..3 {
                        ctx.sendrecv(right, round, 64, left, round);
                    }
                    ctx.barrier();
                }
                if me == 0 {
                    for r in 1..p {
                        ctx.recv(r, 9);
                    }
                    for r in 1..p {
                        ctx.ssend(r, 9, 8);
                    }
                } else {
                    ctx.ssend(0, 9, 8);
                    ctx.recv(0, 9);
                }
                ctx.barrier();
                ctx.sendrecv(right, 0, 64, left, 0);
            })
            .expect("barrier program simulates cleanly")
            .trace;
        let workers = MasterWorker {
            tasks: 12,
            task_work: 10_000,
            task_bytes: 64,
            result_bytes: 64,
        };
        let wildcards = Simulation::new(4, Sig::quiet("fuzz-race"))
            .seed(7)
            .run(|ctx| workers.run(ctx))
            .expect("master-worker simulates cleanly")
            .trace;
        vec![barriers, wildcards]
    })
}

/// Builds the happens-before index of `graph` and asks it about every
/// pair among each rank's first, middle and last events, one past the end,
/// and a rank past the last:
/// nothing may panic, nothing precedes itself, and the cache blob
/// round-trips.
fn probe_hb_index(graph: &mpg::core::EventGraph, trace: &MemTrace) -> Result<(), String> {
    let hb = mpg::core::HbIndex::build(graph);
    let p = trace.num_ranks() as u32;
    let probes: Vec<(u32, u64)> = (0..=p)
        .flat_map(|r| {
            let n = if r < p {
                trace.rank(r as usize).len() as u64
            } else {
                0
            };
            [0, 1, n / 2, n.saturating_sub(1), n].map(|s| (r, s))
        })
        .collect();
    for &a in &probes {
        for &b in &probes {
            let (hb_ab, cb_ab) = (hb.happens_before(a, b), hb.completes_before(a, b));
            if a == b && (hb_ab || cb_ab || hb.concurrent(a, b)) {
                return Err(format!("{a:?} is ordered with itself"));
            }
        }
    }
    let bytes = hb.to_bytes();
    match mpg::core::HbIndex::from_bytes(&bytes) {
        Some(back) if back.to_bytes() == bytes => Ok(()),
        _ => Err("hb blob does not round-trip".into()),
    }
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Remove one event from a rank's stream.
    Drop,
    /// Append a second copy of one event right after the original.
    Duplicate,
    /// Swap one event with its successor (seq numbers keep their records).
    Reorder,
    /// Redirect a point-to-point event to the next rank over.
    CorruptPeer,
    /// Bump a point-to-point event's tag.
    CorruptTag,
    /// Make a blocking send synchronous and append a second copy of it:
    /// two rendezvous sends under one sequence number.
    DuplicateSsend,
    /// Renumber the stream from one event on, leaving a gap of three
    /// sequence numbers; records, order and clocks stay as they are (as in
    /// the next three), so the trace still replays.
    GapSeq,
    /// Give one event its predecessor's sequence number.
    RepeatSeq,
    /// Exchange the sequence numbers of two neighbours.
    SwapSeq,
    /// Address a point-to-point event to a rank the trace does not have.
    StrayPeer,
}

fn is_p2p(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::Send { .. }
            | EventKind::Recv { .. }
            | EventKind::Isend { .. }
            | EventKind::Irecv { .. }
    )
}

fn peer_mut(kind: &mut EventKind) -> &mut u32 {
    match kind {
        EventKind::Send { peer, .. }
        | EventKind::Recv { peer, .. }
        | EventKind::Isend { peer, .. }
        | EventKind::Irecv { peer, .. } => peer,
        _ => unreachable!("mutation targets are point-to-point"),
    }
}

fn bump_peer(kind: &mut EventKind, p: u32) {
    let peer = peer_mut(kind);
    *peer = (*peer + 1) % p;
}

fn bump_tag(kind: &mut EventKind) {
    match kind {
        EventKind::Send { tag, .. }
        | EventKind::Recv { tag, .. }
        | EventKind::Isend { tag, .. }
        | EventKind::Irecv { tag, .. } => *tag += 1,
        _ => unreachable!("mutation targets are point-to-point"),
    }
}

/// Applies `mutation` near position `pos` of `rank`'s stream. Peer/tag
/// corruption walks forward to the next point-to-point event (wrapping);
/// structural mutations apply anywhere.
fn mutate(trace: &MemTrace, rank: usize, pos: usize, mutation: Mutation) -> Option<MemTrace> {
    let p = trace.num_ranks();
    let mut ranks: Vec<Vec<EventRecord>> = (0..p).map(|r| trace.rank(r).to_vec()).collect();
    let stream = &mut ranks[rank];
    if stream.len() < 2 {
        return None;
    }
    let pos = pos % stream.len();
    match mutation {
        Mutation::Drop => {
            stream.remove(pos);
        }
        Mutation::Duplicate => {
            let copy = stream[pos].clone();
            stream.insert(pos + 1, copy);
        }
        Mutation::Reorder => {
            let pos = pos.min(stream.len() - 2);
            stream.swap(pos, pos + 1);
            if stream[pos] == stream[pos + 1] {
                return None; // swapping identical records is a no-op
            }
        }
        Mutation::DuplicateSsend => {
            let len = stream.len();
            let target = (0..len)
                .map(|i| (pos + i) % len)
                .find(|&i| matches!(stream[i].kind, EventKind::Send { .. }))?;
            if let EventKind::Send { protocol, .. } = &mut stream[target].kind {
                *protocol = mpg::trace::SendProtocol::Synchronous;
            }
            let copy = stream[target].clone();
            stream.insert(target + 1, copy);
        }
        Mutation::GapSeq => stream[pos..].iter_mut().for_each(|e| e.seq += 3),
        Mutation::RepeatSeq => {
            let pos = pos.min(stream.len() - 2);
            stream[pos + 1].seq = stream[pos].seq;
        }
        Mutation::SwapSeq => {
            let pos = pos.min(stream.len() - 2);
            let (a, b) = (stream[pos].seq, stream[pos + 1].seq);
            if a == b {
                return None;
            }
            (stream[pos].seq, stream[pos + 1].seq) = (b, a);
        }
        Mutation::CorruptPeer | Mutation::CorruptTag | Mutation::StrayPeer => {
            let len = stream.len();
            let target = (0..len)
                .map(|i| (pos + i) % len)
                .find(|&i| is_p2p(&stream[i].kind))?;
            match mutation {
                Mutation::CorruptPeer => bump_peer(&mut stream[target].kind, p as u32),
                Mutation::CorruptTag => bump_tag(&mut stream[target].kind),
                Mutation::StrayPeer => *peer_mut(&mut stream[target].kind) = p as u32 + 1,
                _ => unreachable!(),
            }
        }
    }
    Some(MemTrace::from_ranks(ranks))
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::Drop),
        Just(Mutation::Duplicate),
        Just(Mutation::Reorder),
        Just(Mutation::CorruptPeer),
        Just(Mutation::CorruptTag),
        Just(Mutation::DuplicateSsend),
        Just(Mutation::GapSeq),
        Just(Mutation::RepeatSeq),
        Just(Mutation::SwapSeq),
        Just(Mutation::StrayPeer),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Any single mutation of a good trace produces at least one
    /// diagnostic — the lint passes have no blind spot a one-event
    /// corruption can hide in — and linting never panics.
    #[test]
    fn mutated_good_trace_always_lints_dirty(
        workload in 0usize..4,
        rank in 0usize..4,
        pos in 0usize..200,
        mutation in mutation_strategy(),
    ) {
        let base = &good_traces()[workload];
        if let Some(bad) = mutate(base, rank, pos, mutation) {
            let diags = mpg::lint::lint_full(&bad);
            prop_assert!(
                !diags.is_empty(),
                "{mutation:?} at rank {rank} pos {pos} of workload {workload} went undetected"
            );
        }
    }

    /// `lint_trace`, `run_progress` and the forced replays are public and
    /// do not validate first, so the progress simulation meets duplicate,
    /// gapped and reordered sequence numbers directly. It must terminate
    /// without panicking, and a forced replay forked off the recorded run
    /// must still be the from-scratch simulation under the same plan.
    #[test]
    fn progress_simulation_survives_unvalidated_traces(
        workload in 0usize..4,
        rank in 0usize..4,
        pos in 0usize..200,
        mutation in mutation_strategy(),
    ) {
        use mpg::core::forced::MatchPlan;
        use mpg::lint::{forced_replays, run_progress, MatchPolicy};
        if let Some(bad) = mutate(&good_traces()[workload], rank, pos, mutation) {
            let _ = mpg::lint::lint_trace(&bad);
            // Force every receive of the mutated rank onto the next source
            // over — duplicated sequence numbers make one plan entry name
            // two events — one plan per receive plus one naming them all.
            let p = bad.num_ranks() as u32;
            let mut plans = vec![MatchPlan::new()];
            for ev in bad.rank(rank) {
                if let EventKind::Recv { peer, .. } | EventKind::Irecv { peer, .. } = ev.kind {
                    plans[0].push((rank as u32, ev.seq), (peer + 1) % p);
                    plans.push(MatchPlan::new().force((rank as u32, ev.seq), (peer + 1) % p));
                }
            }
            for (plan, forked) in plans.iter().zip(forced_replays(&bad, &plans)) {
                let reference = run_progress(&bad, &MatchPolicy::Witness(plan.clone()));
                prop_assert_eq!(forked.matching.completed, reference.matching.completed);
                prop_assert_eq!(&forked.matching.pairs, &reference.matching.pairs);
                prop_assert_eq!(&forked.matching.sends, &reference.matching.sends);
                prop_assert_eq!(&forked.diags, &reference.diags);
            }
        }
    }

    /// Whatever graph a crash-tolerant replay records from a mutated
    /// trace, the happens-before index builds on it and answers queries —
    /// including for events the damaged graph never mentions.
    #[test]
    fn hb_index_builds_on_mutated_graphs(
        workload in 0usize..4,
        rank in 0usize..4,
        pos in 0usize..200,
        mutation in mutation_strategy(),
    ) {
        if let Some(bad) = mutate(&good_traces()[workload], rank, pos, mutation) {
            let cfg = ReplayConfig::new(PerturbationModel::quiet("fuzz-hb"))
                .crash_tolerant(true)
                .record_graph(true);
            if let Ok(rep) = Replayer::new(cfg).run(&bad) {
                let graph = rep.graph.expect("graph recorded");
                prop_assert_eq!(probe_hb_index(&graph, &bad), Ok(()));
            }
        }
    }

    /// `lint_sync`, `find_races` and `explore` are public and reachable on
    /// traces `validate` rejects, so the happens-before thresholds they
    /// read meet skipped, repeated and swapped sequence numbers and peers
    /// past the last rank. Wherever the lint context still records a graph
    /// they terminate without panicking, and pass 7 renders what its
    /// pairwise reference does (the thresholds are exact for any index;
    /// pass 4's candidate windows are checked against their scan beside
    /// them, in `hb_races.rs`). Pass 4 stops a witness fork where it
    /// rejoins the recorded program (DESIGN.md §18.8), which a plan naming a
    /// duplicated sequence number must not: every witness it reports holds
    /// in a whole simulation from step 0 (`hb_races.rs` checks the
    /// candidates it rejects as well).
    #[test]
    fn hb_threshold_passes_survive_unvalidated_traces(
        workload in 0usize..6,
        rank in 0usize..4,
        pos in 0usize..200,
        mutation in mutation_strategy(),
    ) {
        use mpg::lint::{
            explore, find_races, lint_sync, run_progress, witness_plan, ExploreOptions,
            LintContext, MatchPolicy, SyncOptions,
        };
        let base = good_traces().iter().chain(sync_and_race_traces()).nth(workload).unwrap();
        if let Some(bad) = mutate(base, rank, pos, mutation) {
            let ctx = LintContext::build(&bad);
            if let (Some(graph), Some(hb)) = (ctx.graph.as_ref(), ctx.hb.as_ref()) {
                let matching = &ctx.progress.matching;
                for watermark in [8, 0] {
                    let opts = SyncOptions { watermark };
                    prop_assert_eq!(
                        lint_sync(&bad, graph, hb, matching, &opts),
                        sync_reference::lint_sync(&bad, graph, hb, matching, &opts),
                        "{:?} at rank {} pos {} of workload {}", mutation, rank, pos, workload
                    );
                }
                for w in find_races(&bad, matching, hb).iter().flat_map(|f| &f.witnesses) {
                    let whole = run_progress(&bad, &MatchPolicy::Witness(witness_plan(w))).matching;
                    let took = whole.pairs.iter().any(|p| p.recv == w.recv && p.send.0 == w.alternate.0);
                    prop_assert!(
                        whole.completed && took,
                        "{:?} at rank {} pos {} of workload {}: {:?}", mutation, rank, pos, workload, w
                    );
                }
                explore(&ctx, &ExploreOptions::cli_default().budget(8));
            }
        }
    }

    /// The graph recorded from a mutated trace — ids with gaps, ranks cut
    /// short at the crash frontier — keeps every node it reached findable
    /// by its id (lost sequence numbers and the slots past a crash
    /// frontier are holes, found by none), and its MPGA artifact decodes
    /// to an arena that does the same and re-encodes to the same bytes.
    /// Recording adds no failure: a stream with missing sequence numbers
    /// (as a salvaged one has) records wherever it replays.
    #[test]
    fn arena_index_roundtrips_on_mutated_graphs(
        workload in 0usize..4,
        rank in 0usize..4,
        pos in 0usize..200,
        mutation in mutation_strategy(),
    ) {
        if let Some(bad) = mutate(&good_traces()[workload], rank, pos, mutation) {
            let cfg = ReplayConfig::new(PerturbationModel::quiet("fuzz-arena"))
                .crash_tolerant(true);
            let plain = Replayer::new(cfg.clone()).run(&bad);
            let run = Replayer::new(cfg.record_graph(true)).run(&bad);
            prop_assert_eq!(
                run.as_ref().err(),
                plain.as_ref().err(),
                "{:?} at rank {} pos {} of workload {}", mutation, rank, pos, workload
            );
            if matches!(mutation, Mutation::GapSeq) {
                prop_assert!(run.is_ok(), "{:?}", run.as_ref().err());
            }
            if let Ok(rep) = run {
                let graph = rep.graph.expect("graph recorded");
                let bytes = mpg::core::encode_arena(graph.arena());
                let decoded = mpg::core::decode_arena(&bytes);
                prop_assert!(decoded.is_ok(), "{:?}", decoded.err());
                let decoded = decoded.unwrap();
                for arena in [graph.arena(), &decoded] {
                    for i in 0..arena.num_nodes() as u32 {
                        let want = arena.is_touched(i).then_some(i);
                        prop_assert_eq!(arena.node_index(&arena.node_id(i)), want);
                    }
                }
                prop_assert_eq!(mpg::core::encode_arena(&decoded), bytes);
            }
        }
    }

    /// Garbage traces lint without panicking (diagnostics optional: some
    /// random traces are genuinely well-formed).
    #[test]
    fn lint_never_panics_on_garbage(trace in arbitrary_trace(4)) {
        let _ = mpg::lint::lint_full(&trace);
    }
}

// ---------------------------------------------------------------------------
// Crash-tolerance end to end: save a good trace, damage it with every
// faultgen operator, salvage-load it, and replay crash-tolerantly. The
// pipeline must always terminate — cleanly or at a reported crash frontier —
// and never panic, hang, or deadlock.
// ---------------------------------------------------------------------------

use mpg::trace::{inject_dir, FaultKind, FileTraceSet};

fn fault_strategy() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Truncate),
        Just(FaultKind::BitFlip),
        Just(FaultKind::FrameDrop),
        Just(FaultKind::FrameDup),
        Just(FaultKind::FrameSwap),
        Just(FaultKind::GarbageSplice),
        Just(FaultKind::DeleteRank),
        Just(FaultKind::IoError),
        Just(FaultKind::Delay),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn damaged_traces_replay_to_a_crash_frontier(
        workload in 0usize..4,
        kind in fault_strategy(),
        seed in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "mpg-crashfuzz-{}-{workload}-{}-{seed}",
            std::process::id(),
            kind.name(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        good_traces()[workload].save(&dir).expect("fixture saves");
        inject_dir(&dir, kind, seed).expect("fault injects");
        let loaded = FileTraceSet::load_salvage(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let (trace, report) = loaded.expect("single-fault damage stays recoverable");
        let cfg = ReplayConfig::new(PerturbationModel::quiet("crashfuzz"))
            .crash_tolerant(true)
            .record_graph(true);
        // Salvage can leave per-rank streams the matcher still rejects
        // (e.g. a collective participant lost mid-operation on some
        // workload shapes). An error is an acceptable terminal outcome;
        // only panics/hangs are not.
        if let Ok(rep) = Replayer::new(cfg).run(&trace) {
            // Identity model: whatever survived must replay drift-free.
            prop_assert!(rep.final_drift.iter().all(|&d| d == 0));
            // The salvaged graph stops at the crash frontier; the
            // happens-before index must build on it all the same.
            let graph = rep.graph.as_ref().expect("graph recorded");
            prop_assert_eq!(probe_hb_index(graph, &trace), Ok(()));
            // A rank whose file vanished has no Finalize, so its
            // crash-exit must show up as a degradation frontier.
            if !report.missing_ranks().is_empty() {
                prop_assert!(
                    rep.degradation.is_some(),
                    "missing rank but no degradation: {report}"
                );
            }
        }
    }
}

#[test]
fn unmutated_workload_traces_lint_clean() {
    for (i, trace) in good_traces().iter().enumerate() {
        let diags = mpg::lint::lint_full(trace);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "workload {i} lints dirty: {diags:?}"
        );
    }
}
