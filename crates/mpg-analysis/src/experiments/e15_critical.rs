//! E15 (extension) — §4.2: critical-path and region analysis.
//!
//! Goes beyond per-rank drift totals to the two artifacts §4.2 gestures at:
//! *which chain of edges* carried the perturbation to the final node
//! (critical path), and *which stretches of the run* absorbed vs propagated
//! it (region classification of the drift timeline).

use mpg_apps::{AllreduceSolver, MasterWorker, Pipeline, TokenRing, Workload};
use mpg_core::{classify_regions, critical_path, drift_timeline, region_shares};
use mpg_core::{PerturbationModel, ReplayConfig, Replayer};
use mpg_noise::{Dist, PlatformSignature};
use mpg_sim::Simulation;

use super::{Experiment, ExperimentResult};
use crate::table::{f, Table};

/// Critical-path / region analysis across workloads.
pub struct CriticalRegions;

impl Experiment for CriticalRegions {
    fn id(&self) -> &'static str {
        "e15"
    }

    fn title(&self) -> &'static str {
        "extension §4.2 — critical paths and tolerant/sensitive regions"
    }

    fn run(&self, quick: bool) -> ExperimentResult {
        let p: u32 = if quick { 4 } else { 8 };
        let workloads: Vec<(&'static str, Box<dyn Workload>)> = vec![
            (
                "token-ring",
                Box::new(TokenRing {
                    traversals: 4,
                    particles_per_rank: 8,
                    work_per_pair: 50,
                }),
            ),
            (
                "allreduce-solver",
                Box::new(AllreduceSolver {
                    iters: 8,
                    local_work: 100_000,
                    vector_bytes: 128,
                }),
            ),
            (
                "master-worker",
                Box::new(MasterWorker {
                    tasks: if quick { 12 } else { 40 },
                    task_work: 100_000,
                    task_bytes: 64,
                    result_bytes: 64,
                }),
            ),
            (
                "pipeline",
                Box::new(Pipeline {
                    waves: 8,
                    work_per_stage: 100_000,
                    payload: 256,
                }),
            ),
        ];

        let mut path_table = Table::new(
            format!("critical path of the worst-drifted rank (p = {p})"),
            &[
                "workload",
                "final drift",
                "path steps",
                "ranks touched",
                "local Δ",
                "message Δ",
                "collective Δ",
            ],
        );
        let mut region_table = Table::new(
            "drift-timeline region shares (worst rank)",
            &["workload", "tolerant", "accumulating", "sensitive"],
        );

        for (name, w) in &workloads {
            let trace = Simulation::new(p, PlatformSignature::quiet("lab"))
                .ideal_clocks()
                .seed(150)
                .run(|ctx| w.run(ctx))
                .expect("trace")
                .trace;
            let mut model = PerturbationModel::quiet("mix");
            model.os_local = Dist::Exponential { mean: 2_000.0 }.into();
            model.latency = Dist::Exponential { mean: 1_000.0 }.into();
            let report = Replayer::new(ReplayConfig::new(model).seed(151).record_graph(true))
                .run(&trace)
                .expect("replay");

            let graph = report.graph.as_ref().expect("recorded");
            if let Some(cp) = critical_path(graph) {
                path_table.row(vec![
                    name.to_string(),
                    cp.final_drift.to_string(),
                    cp.steps.len().to_string(),
                    cp.ranks_touched.to_string(),
                    cp.local_contribution.to_string(),
                    cp.message_contribution.to_string(),
                    cp.collective_contribution.to_string(),
                ]);
            }
            let worst = report
                .final_drift
                .iter()
                .enumerate()
                .max_by_key(|&(_, d)| *d)
                .map(|(r, _)| r)
                .expect("ranks");
            let regions = classify_regions(&drift_timeline(graph, worst, 4));
            let (tol, acc, sens) = region_shares(&regions);
            region_table.row(vec![name.to_string(), f(tol), f(acc), f(sens)]);
        }
        ExperimentResult {
            id: self.id(),
            title: self.title(),
            tables: vec![path_table, region_table],
            notes: vec![
                "Expected shape: the solver's critical path is collective-dominated and \
                 touches every rank; the ring's alternates message hops across ranks; \
                 master-worker's stays close to the master with large tolerant shares."
                    .into(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick run's region-share rows: a change to the drift timeline
    /// or to the region classifier shows here.
    #[test]
    fn quick_region_shares_are_pinned() {
        let result = CriticalRegions.run(true);
        let regions = &result.tables[1];
        assert_eq!(regions.title, "drift-timeline region shares (worst rank)");
        let pinned = [
            ["token-ring", "0.098", "0.902", "0.000"],
            ["allreduce-solver", "0.000", "1.000", "0.000"],
            ["master-worker", "0.000", "0.956", "0.044"],
            ["pipeline", "0.000", "1.000", "0.000"],
        ];
        assert_eq!(regions.rows, pinned.map(|row| row.map(String::from)));
    }
}
