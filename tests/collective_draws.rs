//! Pins of the replay engine's collective draws on one engine.
//!
//! A collective's `lδ` edges are drawn from each rank's own collective
//! stream; the hub is `max_i(D(enter_i) + lδ_i)` (§4.2, Fig. 4). These
//! tests hold the single engine's observable effects of those draws to
//! recorded values, so a change to *when* the draws happen (at entry or at
//! fill) cannot move them:
//!
//! * the recorded `CollectiveRounds` edges, in recorded order, and the
//!   critical path's collective share;
//! * `injected_total` of a crash-tolerant replay that stops inside an
//!   allreduce — a collective that never fills counts nothing;
//! * `injected_total` of a replay cancelled in the middle of an epoch.

use mpg::apps::{AllreduceSolver, Workload};
use mpg::core::{
    critical_path, CancelToken, DeltaClass, PerturbationModel, ReplayConfig, Replayer,
};
use mpg::noise::{Dist, PlatformSignature};
use mpg::sim::Simulation;
use mpg::trace::faultgen::{inject_dir, FaultKind};
use mpg::trace::{FileTraceSet, MemTrace};

const SOLVER: AllreduceSolver = AllreduceSolver {
    iters: 6,
    local_work: 40_000,
    vector_bytes: 256,
};

/// OS noise, latency, a per-byte term and jitter: every term of a
/// collective round draws.
fn noisy_model() -> PerturbationModel {
    let mut m = PerturbationModel::quiet("collective-pins");
    m.os_local = Dist::Exponential { mean: 300.0 }.into();
    m.latency = Dist::Exponential { mean: 700.0 }.into();
    m.per_byte = 0.05;
    m.transfer_jitter = Dist::Uniform { lo: 0.0, hi: 40.0 }.into();
    m
}

/// The solver, then one bcast from every root.
fn solver_and_bcasts(p: u32) -> MemTrace {
    Simulation::new(p, PlatformSignature::quiet("pins"))
        .ideal_clocks()
        .seed(11)
        .run(|ctx| {
            SOLVER.run(ctx);
            for root in 0..ctx.size() {
                ctx.compute(5_000 + 1_000 * u64::from(ctx.rank()));
                ctx.bcast(root, 512);
            }
        })
        .expect("program simulates")
        .trace
}

#[test]
fn recorded_collective_edges_are_pinned() {
    let trace = solver_and_bcasts(6);
    let report = Replayer::new(ReplayConfig::new(noisy_model()).seed(5).record_graph(true))
        .run(&trace)
        .expect("replay succeeds");
    let graph = report.graph.as_ref().expect("graph recorded");
    let edges: Vec<(u32, u32, u32, i64)> = graph
        .edges()
        .filter_map(|e| match e.class {
            DeltaClass::CollectiveRounds { rounds, .. } => {
                Some((e.src.rank, e.dst.rank, rounds, e.sampled))
            }
            _ => None,
        })
        .collect();
    // 12 allreduces and 6 bcasts over 6 ranks.
    assert_eq!(edges.len(), 18 * 6);
    // Each hub's edges are recorded in rank order, and every hub anchors on
    // rank 0, the first rank in that order.
    for (i, &(src, dst, _, _)) in edges.iter().enumerate() {
        assert_eq!((src, dst), (i as u32 % 6, 0), "edge {i}");
    }
    // An allreduce charges ⌈log₂ 6⌉ = 3 rounds to every rank; a bcast
    // charges them to its root only.
    let bcast_rounds: Vec<u32> = edges[12 * 6..].iter().map(|e| e.2).collect();
    for (i, &rounds) in bcast_rounds.iter().enumerate() {
        let (root, rank) = (i / 6, i % 6);
        assert_eq!(rounds, if rank == root { 3 } else { 0 }, "bcast {root}");
    }
    let sampled: Vec<i64> = edges.iter().map(|e| e.3).collect();
    // The sum pins the draws, the position-weighted sum their order.
    let weighted: i64 = (1..).zip(&sampled).map(|(i, v)| i * v).sum();
    assert_eq!(
        (sampled.iter().sum::<i64>(), weighted),
        PIN_EDGE_SUMS,
        "{sampled:?}"
    );
    assert_eq!(&sampled[..6], &PIN_FIRST_ALLREDUCE, "{sampled:?}");
    let cp = critical_path(graph).expect("critical path");
    assert_eq!(cp.collective_contribution, PIN_COLLECTIVE_CONTRIBUTION);
    assert_eq!(report.stats.injected_total, PIN_RECORDED_INJECTED);
}

const PIN_EDGE_SUMS: (i64, i64) = (249_154, 9_986_134);
const PIN_FIRST_ALLREDUCE: [i64; 6] = [2253, 3114, 2754, 4397, 1778, 3416];
const PIN_COLLECTIVE_CONTRIBUTION: i64 = 71_472;
const PIN_RECORDED_INJECTED: i64 = 281_442;

#[test]
fn crash_inside_an_allreduce_counts_no_unfilled_draws() {
    // Several frames per rank, so the truncated rank keeps a prefix.
    let solver = AllreduceSolver {
        iters: 3_000,
        ..SOLVER
    };
    let trace = Simulation::new(8, PlatformSignature::quiet("pins"))
        .ideal_clocks()
        .seed(1)
        .run(|ctx| solver.run(ctx))
        .expect("solver simulates")
        .trace;
    let dir = std::env::temp_dir().join(format!("mpg-coll-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    trace.save(&dir).expect("trace saves");
    inject_dir(&dir, FaultKind::Truncate, 1).expect("fault injects");
    let (salvaged, _) = FileTraceSet::load_salvage(&dir).expect("salvage loads");
    let _ = std::fs::remove_dir_all(&dir);

    let report = Replayer::new(
        ReplayConfig::new(noisy_model())
            .seed(3)
            .crash_tolerant(true),
    )
    .run(&salvaged)
    .expect("crash-tolerant replay succeeds");
    let deg = report.degradation.as_ref().expect("stopped at a frontier");
    let in_allreduce = deg
        .frontiers
        .iter()
        .filter(|f| matches!(&f.stuck_at, Some((_, k)) if k == "allreduce"))
        .count();
    assert_eq!(in_allreduce, 7, "{deg:?}");
    assert_eq!(report.stats.collectives, PIN_CRASH_COLLECTIVES);
    assert_eq!(report.stats.injected_total, PIN_CRASH_INJECTED);
}

const PIN_CRASH_COLLECTIVES: u64 = 4_681;
const PIN_CRASH_INJECTED: i64 = 127_485_441;

#[test]
fn cancel_mid_epoch_counts_no_unfilled_draws() {
    let solver = AllreduceSolver {
        iters: 400,
        ..SOLVER
    };
    let trace = Simulation::new(5, PlatformSignature::quiet("pins"))
        .ideal_clocks()
        .seed(2)
        .run(|ctx| solver.run(ctx))
        .expect("solver simulates")
        .trace;
    let token = CancelToken::new();
    token.fire_after_checks(2);
    let report = Replayer::new(ReplayConfig::new(noisy_model()).seed(9).cancel_token(token))
        .run(&trace)
        .expect("a cancelled replay still reports");
    assert!(report.cancelled.is_some());
    // Mid-epoch: some ranks have entered the next allreduce and some have
    // not, so completed-event counts differ across ranks.
    let deg = report.degradation.as_ref().expect("partial frontier");
    let done: Vec<u64> = deg.frontiers.iter().map(|f| f.events_completed).collect();
    let entered = deg
        .frontiers
        .iter()
        .filter(|f| matches!(&f.stuck_at, Some((_, k)) if k == "allreduce"))
        .count();
    assert!(entered > 0 && entered < done.len(), "{deg:?}");
    assert_eq!(done, PIN_CANCEL_DONE);
    assert_eq!(report.stats.collectives, PIN_CANCEL_COLLECTIVES);
    assert_eq!(report.stats.injected_total, PIN_CANCEL_INJECTED);
}

const PIN_CANCEL_DONE: [u64; 5] = [204, 204, 204, 206, 206];
const PIN_CANCEL_COLLECTIVES: u64 = 102;
const PIN_CANCEL_INJECTED: i64 = 1_732_077;
