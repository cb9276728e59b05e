//! End-to-end pipeline: simulate → write traces to disk → stream them back
//! through the analyzer — the deployment shape the paper describes (PMPI
//! wrapper writes files, the analysis tool streams them).

use mpg::apps::{Stencil, TokenRing, Workload};
use mpg::core::{PerturbationModel, ReplayConfig, Replayer};
use mpg::noise::{Dist, PlatformSignature};
use mpg::sim::Simulation;
use mpg::trace::{validate_trace, FileTraceSet, OocTraceSet};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mpg-e2e-{tag}-{}", std::process::id()))
}

#[test]
fn disk_roundtrip_replay_matches_in_memory() {
    let ring = TokenRing {
        traversals: 3,
        particles_per_rank: 8,
        work_per_pair: 25,
    };
    let out = Simulation::new(6, PlatformSignature::quiet("lab"))
        .seed(11)
        .run(|ctx| ring.run(ctx))
        .unwrap();
    assert!(validate_trace(&out.trace).is_empty());

    let dir = unique_dir("ring");
    out.trace.save(&dir).unwrap();
    let set = OocTraceSet::open(&dir).unwrap();
    let cursors = (0..set.num_ranks()).map(|r| set.cursor(r)).collect();

    let mut model = PerturbationModel::quiet("m");
    model.os_local = Dist::Exponential { mean: 400.0 }.into();
    model.latency = Dist::Constant(150.0).into();

    let mem_report = Replayer::new(ReplayConfig::new(model.clone()).seed(2))
        .run(&out.trace)
        .unwrap();
    let file_report = Replayer::new(ReplayConfig::new(model).seed(2))
        .run_streams_parallel(cursors, 1)
        .unwrap();

    assert_eq!(mem_report.final_drift, file_report.final_drift);
    assert_eq!(mem_report.stats, file_report.stats);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn noisy_trace_survives_disk_and_validates() {
    let stencil = Stencil {
        iters: 6,
        cells_per_rank: 500,
        work_per_cell: 30,
        halo_bytes: 512,
    };
    let out = Simulation::new(4, PlatformSignature::noisy("prod", 1.0))
        .seed(12)
        .run(|ctx| stencil.run(ctx))
        .unwrap();
    let dir = unique_dir("stencil");
    out.trace.save(&dir).unwrap();
    let loaded = FileTraceSet::open(&dir).unwrap().load().unwrap();
    assert_eq!(loaded, out.trace);
    assert!(validate_trace(&loaded).is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn simulated_truth_vs_replay_prediction_direction() {
    // Injecting the platform difference must move the prediction toward the
    // noisy truth, never away from the quiet baseline.
    let ring = TokenRing {
        traversals: 4,
        particles_per_rank: 8,
        work_per_pair: 50,
    };
    let quiet = Simulation::new(4, PlatformSignature::quiet("q"))
        .ideal_clocks()
        .seed(13)
        .run(|ctx| ring.run(ctx))
        .unwrap();
    let noisy = Simulation::new(4, PlatformSignature::noisy("n", 1.0))
        .ideal_clocks()
        .seed(13)
        .run(|ctx| ring.run(ctx))
        .unwrap();
    assert!(noisy.makespan() > quiet.makespan());

    let mut model = PerturbationModel::quiet("toward-noisy");
    model.latency = Dist::Exponential { mean: 800.0 }.into();
    let report = Replayer::new(ReplayConfig::new(model).seed(3))
        .run(&quiet.trace)
        .unwrap();
    let predicted = *report.projected_finish_local.iter().max().unwrap();
    assert!(predicted > quiet.makespan());
}
