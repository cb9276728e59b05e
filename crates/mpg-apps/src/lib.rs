#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Workload programs for the simulated MPI runtime.
//!
//! One module per communication pattern, each parameterized and expressed
//! against [`RankCtx`](mpg_sim::RankCtx):
//!
//! * [`token_ring`] — the paper's §6.1 evaluation workload: the direct
//!   O(n²) n-body interaction computed by circulating particle sets around
//!   a ring;
//! * [`stencil`] — 1-D halo exchange with nonblocking
//!   isend/irecv/waitall, the canonical bulk-synchronous kernel;
//! * [`master_worker`] — dynamic work distribution with `ANY_SOURCE`
//!   receives, the canonical *asynchronous* pattern;
//! * [`allreduce_solver`] — a CG-like iteration alternating local compute
//!   with global allreduces, the collective-dominated extreme the paper's
//!   §3.2 motivates;
//! * [`pipeline`] — a wavefront sweep where perturbations propagate
//!   strictly downstream;
//! * [`transpose`] — an FFT-style kernel alternating local compute with
//!   all-to-all exchanges, the densest collective pattern;
//! * [`grid_summa`] — a SUMMA-style 2-D matrix multiply on a process grid
//!   with row/column sub-communicators.
//!
//! All programs are deterministic given their parameters, so traces are
//! reproducible end to end.

pub mod allreduce_solver;
pub mod grid_summa;
pub mod master_worker;
pub mod pipeline;
pub mod stencil;
pub mod token_ring;
pub mod transpose;

pub use allreduce_solver::AllreduceSolver;
pub use grid_summa::GridSumma;
pub use master_worker::MasterWorker;
pub use pipeline::Pipeline;
pub use stencil::Stencil;
pub use token_ring::TokenRing;
pub use transpose::Transpose;

/// Cycle unit shared across the workspace.
pub type Cycles = u64;

/// Common interface: a workload renders itself as a rank program.
pub trait Workload: Sync {
    /// Human-readable name for tables and reports.
    fn name(&self) -> &'static str;

    /// The per-rank program body.
    fn run(&self, ctx: &mut mpg_sim::RankCtx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_noise::PlatformSignature;
    use mpg_sim::Simulation;
    use mpg_trace::validate_trace;

    /// Every workload must produce a valid trace on a quiet platform and a
    /// replayable one.
    #[test]
    fn all_workloads_trace_and_replay() {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(TokenRing {
                traversals: 2,
                particles_per_rank: 4,
                work_per_pair: 10,
            }),
            Box::new(Stencil {
                iters: 3,
                cells_per_rank: 64,
                work_per_cell: 5,
                halo_bytes: 128,
            }),
            Box::new(MasterWorker {
                tasks: 10,
                task_work: 1_000,
                result_bytes: 32,
                task_bytes: 16,
            }),
            Box::new(AllreduceSolver {
                iters: 4,
                local_work: 2_000,
                vector_bytes: 64,
            }),
            Box::new(Pipeline {
                waves: 3,
                work_per_stage: 1_000,
                payload: 64,
            }),
            Box::new(Transpose {
                steps: 2,
                rows_per_rank: 8,
                work_per_element: 5,
                block_bytes: 64,
            }),
        ];
        for w in workloads {
            let out = Simulation::new(4, PlatformSignature::quiet("t"))
                .ideal_clocks()
                .run(|ctx| w.run(ctx))
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
            assert!(
                validate_trace(&out.trace).is_empty(),
                "{} trace invalid",
                w.name()
            );
            let report = mpg_core::Replayer::new(mpg_core::ReplayConfig::new(
                mpg_core::PerturbationModel::quiet("id"),
            ))
            .run(&out.trace)
            .unwrap_or_else(|e| panic!("{} replay failed: {e}", w.name()));
            assert_eq!(
                report.final_drift,
                vec![0; 4],
                "{} identity replay drifted",
                w.name()
            );
        }
    }
}
