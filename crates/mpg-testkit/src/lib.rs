#![forbid(unsafe_code)]

//! Test support for the workspace's integration tests and the lint
//! crate's unit tests: the one random SPMD program generator
//! ([`programs`]), a noisy perturbation model, the comparison every
//! replay path is held to, scratch directories, and the seven demo
//! workloads at test sizes.

pub mod programs;

pub use programs::{
    build, round_strategy, run_round, simulate, try_simulate, Round, Shape, ANY_WILDCARD, PINNED,
    SPMD, WILDCARD,
};

use std::path::PathBuf;
use std::sync::OnceLock;

use mpg_apps::{
    AllreduceSolver, GridSumma, MasterWorker, Pipeline, Stencil, TokenRing, Transpose, Workload,
};
use mpg_core::{
    CancelReason, Cycles, DegradationReport, Drift, EventGraph, PerturbationModel, ReplayConfig,
    ReplayReport, ReplayStats, Replayer,
};
use mpg_noise::{Dist, PlatformSignature};
use mpg_trace::MemTrace;

/// A noisy model that exercises every delta class, the per-byte term
/// included; `seed_hint` varies the local noise's mean.
pub fn noisy_model(seed_hint: u64) -> PerturbationModel {
    let mut m = PerturbationModel::quiet("noisy");
    m.os_local = Dist::Exponential {
        mean: 40.0 + (seed_hint % 7) as f64,
    }
    .into();
    m.os_remote = Dist::Uniform { lo: 0.0, hi: 25.0 }.into();
    m.latency = Dist::Exponential { mean: 120.0 }.into();
    m.per_byte = 0.05;
    m.transfer_jitter = Dist::Uniform { lo: 0.0, hi: 10.0 }.into();
    m
}

/// The graph a recording replay of `trace` under `cfg` records.
pub fn record(trace: &MemTrace, cfg: &ReplayConfig) -> EventGraph {
    Replayer::new(cfg.clone().record_graph(true))
        .run(trace)
        .expect("recording replay succeeds")
        .graph
        .expect("graph recorded")
}

/// What a replay computed: its report without the graph and without the
/// counters that describe how the traversal was scheduled rather than
/// what it computed — the three scheduler-order diagnostics
/// (`scheduler_wakeups`, `polls_avoided`, `window_high_water`), the
/// engines that shared it and the lanes that rode it.
#[derive(Debug, PartialEq)]
pub struct Computed {
    pub model_name: String,
    pub final_drift: Vec<Drift>,
    pub projected_finish_local: Vec<Cycles>,
    pub warnings: Vec<String>,
    pub stats: ReplayStats,
    pub degradation: Option<DegradationReport>,
    pub cancelled: Option<CancelReason>,
}

/// See [`Computed`].
pub fn computed(report: &ReplayReport) -> Computed {
    let stats = ReplayStats {
        scheduler_wakeups: 0,
        polls_avoided: 0,
        window_high_water: 0,
        engines: 0,
        lanes: 0,
        traversals_saved: 0,
        ..report.stats.clone()
    };
    Computed {
        model_name: report.model_name.clone(),
        final_drift: report.final_drift.clone(),
        projected_finish_local: report.projected_finish_local.clone(),
        warnings: report.warnings.clone(),
        stats,
        degradation: report.degradation.clone(),
        cancelled: report.cancelled,
    }
}

/// A path under the temp directory that does not exist yet: `tag` names
/// it, the process id keeps concurrent test binaries apart.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpg-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The workloads `mpgtool demo` ships, by their `demo` names.
pub const DEMOS: [&str; 7] = [
    "ring",
    "stencil",
    "master-worker",
    "solver",
    "pipeline",
    "transpose",
    "summa",
];

/// [`DEMOS`] at test sizes, with the rank count each runs on: `summa`
/// needs 8 ranks (a 2×4 grid), everything else runs on 4.
pub fn demo_workloads() -> Vec<(&'static str, u32, Box<dyn Workload>)> {
    vec![
        (
            "ring",
            4,
            Box::new(TokenRing {
                traversals: 3,
                particles_per_rank: 8,
                work_per_pair: 25,
            }),
        ),
        (
            "stencil",
            4,
            Box::new(Stencil {
                iters: 6,
                cells_per_rank: 500,
                work_per_cell: 30,
                halo_bytes: 256,
            }),
        ),
        (
            "master-worker",
            4,
            Box::new(MasterWorker {
                tasks: 16,
                task_work: 20_000,
                task_bytes: 128,
                result_bytes: 128,
            }),
        ),
        (
            "solver",
            4,
            Box::new(AllreduceSolver {
                iters: 6,
                local_work: 20_000,
                vector_bytes: 128,
            }),
        ),
        (
            "pipeline",
            4,
            Box::new(Pipeline {
                waves: 6,
                work_per_stage: 10_000,
                payload: 256,
            }),
        ),
        (
            "transpose",
            4,
            Box::new(Transpose {
                steps: 4,
                rows_per_rank: 16,
                work_per_element: 10,
                block_bytes: 256,
            }),
        ),
        (
            "summa",
            8,
            Box::new(GridSumma {
                rows: 2,
                cols: 4,
                panel_bytes: 1_024,
                local_work: 20_000,
            }),
        ),
    ]
}

/// The trace of [`demo_workloads`]`()[index]` (seed 29, a quiet
/// platform), simulated once per process.
pub fn demo_trace(index: usize) -> &'static MemTrace {
    static TRACES: OnceLock<Vec<MemTrace>> = OnceLock::new();
    &TRACES.get_or_init(|| {
        demo_workloads()
            .iter()
            .map(|(name, ranks, w)| {
                mpg_sim::Simulation::new(*ranks, PlatformSignature::quiet("demo"))
                    .seed(29)
                    .run(|ctx| w.run(ctx))
                    .unwrap_or_else(|e| panic!("{name} must simulate cleanly: {e}"))
                    .trace
            })
            .collect()
    })[index]
}
