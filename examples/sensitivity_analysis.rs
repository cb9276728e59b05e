//! Deep sensitivity analysis of one application (§4.2's full program):
//! a parallel amplitude sweep, critical-path attribution of the worst case,
//! and tolerant/sensitive region classification.
//!
//! ```text
//! cargo run --release --example sensitivity_analysis
//! ```

use mpg::analysis::parallel_replays;
use mpg::apps::{Stencil, Workload};
use mpg::core::{classify_regions, critical_path, drift_timeline, region_shares};
use mpg::core::{PerturbationModel, ReplayConfig, Replayer};
use mpg::noise::{Dist, PlatformSignature};
use mpg::sim::Simulation;

fn main() {
    let stencil = Stencil {
        iters: 30,
        cells_per_rank: 2_000,
        work_per_cell: 40,
        halo_bytes: 2_048,
    };
    let trace = Simulation::new(8, PlatformSignature::quiet("lab"))
        .ideal_clocks()
        .seed(1)
        .run(|ctx| stencil.run(ctx))
        .expect("stencil runs")
        .trace;
    println!(
        "traced stencil: {} events on 8 ranks\n",
        trace.total_events()
    );

    // 1. Parallel amplitude sweep.
    let amplitudes: Vec<f64> = (0..8).map(|i| 500.0 * f64::from(1 << i)).collect();
    let configs: Vec<ReplayConfig> = amplitudes
        .iter()
        .map(|&amp| {
            let mut m = PerturbationModel::quiet("sweep");
            m.os_local = Dist::Exponential { mean: amp }.into();
            ReplayConfig::new(m).seed(2)
        })
        .collect();
    println!(
        "{:>12} {:>14} {:>16}",
        "noise mean", "max drift", "msg domination"
    );
    for (amp, result) in amplitudes.iter().zip(parallel_replays(&trace, configs)) {
        let report = result.expect("replay succeeds");
        println!(
            "{amp:>12.0} {:>14} {:>16.2}",
            report.max_final_drift(),
            report.message_domination_ratio()
        );
    }

    // 2. Where does the drift come from at the heaviest amplitude?
    let mut m = PerturbationModel::quiet("worst");
    m.os_local = Dist::Exponential { mean: 64_000.0 }.into();
    let report = Replayer::new(ReplayConfig::new(m).seed(2).record_graph(true))
        .run(&trace)
        .expect("replay succeeds");
    let graph = report.graph.as_ref().expect("recorded");
    if let Some(cp) = critical_path(graph) {
        println!("\ncritical path: {}", cp.summary());
    }

    // 3. Tolerant vs sensitive regions of the worst rank's timeline.
    let worst = report
        .final_drift
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| *d)
        .map(|(r, _)| r)
        .expect("ranks");
    let regions = classify_regions(&drift_timeline(graph, worst, 8));
    let (tol, acc, sens) = region_shares(&regions);
    println!(
        "rank {worst} timeline: {:.0}% tolerant, {:.0}% accumulating, {:.0}% sensitive \
         ({} regions)",
        tol * 100.0,
        acc * 100.0,
        sens * 100.0,
        regions.len()
    );
}
