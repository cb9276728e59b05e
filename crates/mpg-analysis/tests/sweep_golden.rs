//! Golden sweep fixture: every mpg-apps demo workload replayed under a
//! six-config lane batch.
//!
//! Two layers of checking: (1) the lane path must reproduce each config's
//! scalar replay bit-for-bit (drifts, stats, warnings) — the
//! traversal-sharing invariant; (2) the per-config max drifts must match
//! the pinned values below, captured from the scalar engine when the lane
//! path landed — so a regression in *either* path trips the fixture even
//! if both paths drift together.

use mpg_analysis::{sweep_replays, SweepMode};
use mpg_apps::{
    AllreduceSolver, GridSumma, MasterWorker, Pipeline, Stencil, TokenRing, Transpose, Workload,
};
use mpg_core::{PerturbationModel, ReplayConfig, ReplayReport, Replayer};
use mpg_noise::{Dist, PlatformSignature};
use mpg_sim::Simulation;

/// The pinned batch: six structurally compatible configs whose models
/// and seeds all differ.
fn golden_configs() -> Vec<ReplayConfig> {
    (0..6u32)
        .map(|i| {
            let mut m = PerturbationModel::quiet(&format!("golden-{i}"));
            m.os_local = Dist::Exponential {
                mean: 300.0 + 100.0 * f64::from(i),
            }
            .into();
            m.latency = Dist::Exponential {
                mean: 400.0 + 60.0 * f64::from(i),
            }
            .into();
            m.per_byte = 0.02 * f64::from(i);
            ReplayConfig::new(m).seed(50 + u64::from(i))
        })
        .collect()
}

/// Strips the batch-shape stats that legitimately differ between the lane
/// and scalar paths.
fn normalized(mut r: ReplayReport) -> ReplayReport {
    r.stats.lanes = 0;
    r.stats.traversals_saved = 0;
    r
}

fn check(name: &str, w: &dyn Workload, p: u32, golden_max: [i64; 6]) {
    let trace = Simulation::new(p, PlatformSignature::quiet("golden"))
        .ideal_clocks()
        .seed(1)
        .run(|ctx| w.run(ctx))
        .expect("workload simulates")
        .trace;
    let configs = golden_configs();
    let lane = sweep_replays(&trace, &configs, SweepMode::Lanes);
    assert_eq!(lane.len(), configs.len());
    let mut maxes = Vec::new();
    for (i, (cfg, got)) in configs.iter().zip(lane).enumerate() {
        let got = got.expect("lane replay succeeds");
        assert_eq!(got.stats.lanes, 6, "{name} cfg {i}: not lane-batched");
        assert_eq!(got.stats.traversals_saved, 5, "{name} cfg {i}");
        maxes.push(got.max_final_drift());
        let scalar = Replayer::new(cfg.clone())
            .run(&trace)
            .expect("scalar replay succeeds");
        let (got, scalar) = (normalized(got), normalized(scalar));
        assert_eq!(got.final_drift, scalar.final_drift, "{name} cfg {i}");
        assert_eq!(
            got.projected_finish_local, scalar.projected_finish_local,
            "{name} cfg {i}"
        );
        assert_eq!(got.stats, scalar.stats, "{name} cfg {i}");
        assert_eq!(got.warnings, scalar.warnings, "{name} cfg {i}");
        assert_eq!(got.model_name, scalar.model_name, "{name} cfg {i}");
    }
    assert_eq!(maxes, golden_max, "{name}: pinned max drifts diverged");
}

#[test]
fn token_ring_sweep_golden() {
    check(
        "token-ring",
        &TokenRing {
            traversals: 3,
            particles_per_rank: 8,
            work_per_pair: 25,
        },
        8,
        [37151, 45677, 56760, 70444, 69031, 88008],
    );
}

#[test]
fn stencil_sweep_golden() {
    check(
        "stencil",
        &Stencil {
            iters: 8,
            cells_per_rank: 200,
            work_per_cell: 20,
            halo_bytes: 512,
        },
        8,
        [14792, 18303, 22260, 27266, 27384, 35611],
    );
}

#[test]
fn master_worker_sweep_golden() {
    check(
        "master-worker",
        &MasterWorker {
            tasks: 24,
            task_work: 50_000,
            task_bytes: 64,
            result_bytes: 64,
        },
        8,
        [27179, 33435, 38885, 47813, 46207, 53793],
    );
}

#[test]
fn allreduce_solver_sweep_golden() {
    check(
        "allreduce-solver",
        &AllreduceSolver {
            iters: 10,
            local_work: 100_000,
            vector_bytes: 128,
        },
        8,
        [75878, 102654, 112725, 132367, 152548, 164792],
    );
}

#[test]
fn pipeline_sweep_golden() {
    check(
        "pipeline",
        &Pipeline {
            waves: 10,
            work_per_stage: 50_000,
            payload: 256,
        },
        8,
        [21635, 26462, 37218, 36688, 44828, 51970],
    );
}

#[test]
fn transpose_sweep_golden() {
    check(
        "transpose",
        &Transpose {
            steps: 5,
            rows_per_rank: 16,
            work_per_element: 10,
            block_bytes: 256,
        },
        8,
        [36122, 50459, 58222, 69463, 79119, 78658],
    );
}

#[test]
fn grid_summa_sweep_golden() {
    check(
        "grid-summa",
        &GridSumma {
            rows: 2,
            cols: 4,
            panel_bytes: 1_024,
            local_work: 50_000,
        },
        8,
        [29367, 35923, 41726, 58675, 48522, 56240],
    );
}
