//! Golden schedule-exploration suite over the demo workloads.
//!
//! Every mpg-apps demo workload is simulated exactly as in
//! `lint_golden.rs` (seed 1, quiet platform, ideal clocks, 8 ranks) and
//! driven through `lint_explore` at the CLI-default budget. Pinned per
//! workload: the coverage accounting (schedules replayed / infeasible /
//! pruned / frontier left unexplored / max depth reached) and every
//! pass-8 finding (`MPG-MAY-DEADLOCK` / `MPG-SCHEDULE-DIVERGENCE`)
//! rendered in full. The explorer is deterministic — FIFO frontier,
//! seeded rotation, sleep-set dedup — so any change to the walk order,
//! the pruning, or the makespan estimator shows up as a diff here, not
//! as silent drift. The lint-pass diagnostics themselves are already
//! pinned by `lint_golden.rs` and are excluded here.
//!
//! One more table pins the coverage accounting away from the defaults: the
//! benchmark's master-worker trace over budgets × depths × seeds, recorded
//! from the binary before the frontier went flat (ISSUE 21).

use mpg_apps::{
    AllreduceSolver, GridSumma, MasterWorker, Pipeline, Stencil, TokenRing, Transpose, Workload,
};
use mpg_lint::{explore, lint_explore, ExploreOptions, LintContext};
use mpg_noise::PlatformSignature;
use mpg_sim::Simulation;
use mpg_trace::Rule;

fn explore_workload(w: &dyn Workload) -> Vec<String> {
    let trace = Simulation::new(8, PlatformSignature::quiet("golden"))
        .ideal_clocks()
        .seed(1)
        .run(|ctx| w.run(ctx))
        .expect("workload simulates")
        .trace;
    let out = lint_explore(&trace, &ExploreOptions::cli_default(), None);
    let s = out.stats;
    let mut lines = vec![format!(
        "explored={} infeasible={} pruned={} unexplored={} max_depth={} exhausted={}",
        s.explored, s.infeasible, s.pruned, s.frontier_unexplored, s.max_depth, s.budget_exhausted
    )];
    lines.extend(
        out.diags
            .iter()
            .filter(|d| matches!(d.rule, Rule::MayDeadlock | Rule::ScheduleDivergence))
            .map(|d| d.to_string()),
    );
    lines
}

#[track_caller]
fn check(w: &dyn Workload, want: &[&str]) {
    let got = explore_workload(w);
    assert_eq!(
        got,
        want.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        "{} explore output diverged",
        w.name()
    );
}

#[test]
fn token_ring_explore() {
    // No wildcard receives: the frontier is empty from the start and the
    // walk reports complete coverage without a single forced replay.
    check(
        &TokenRing {
            traversals: 3,
            particles_per_rank: 8,
            work_per_pair: 25,
        },
        &["explored=0 infeasible=0 pruned=0 unexplored=0 max_depth=0 exhausted=false"],
    );
}

#[test]
fn stencil_explore() {
    check(
        &Stencil {
            iters: 8,
            cells_per_rank: 200,
            work_per_cell: 20,
            halo_bytes: 512,
        },
        &["explored=0 infeasible=0 pruned=0 unexplored=0 max_depth=0 exhausted=false"],
    );
}

#[test]
fn master_worker_explore() {
    check(
        &MasterWorker {
            tasks: 8,
            task_work: 50_000,
            task_bytes: 64,
            result_bytes: 64,
        },
        &[
            "explored=64 infeasible=0 pruned=68 unexplored=281 max_depth=2 exhausted=true",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 2; rank 0 seq 10 <- rank 1; rank 0 seq 22 <- rank 3; rank 0 seq 12 <- rank 1] completes but shifts the estimated makespan by 18.4% (173664 -> 205628 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 22 <- rank 2; rank 0 seq 10 <- rank 1] completes but shifts the estimated makespan by 23.5% (173664 -> 214560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 14 <- rank 2; rank 0 seq 10 <- rank 4] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 16 <- rank 2; rank 0 seq 10 <- rank 5] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 18 <- rank 2; rank 0 seq 10 <- rank 6] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 20 <- rank 2; rank 0 seq 10 <- rank 7] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 2; rank 0 seq 10 <- rank 1; rank 0 seq 22 <- rank 4; rank 0 seq 14 <- rank 1] completes but shifts the estimated makespan by 15.8% (173664 -> 201028 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 4; rank 0 seq 14 <- rank 1; rank 0 seq 16 <- rank 2; rank 0 seq 10 <- rank 5] completes but shifts the estimated makespan by 15.4% (173664 -> 200492 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 4; rank 0 seq 14 <- rank 1; rank 0 seq 18 <- rank 2; rank 0 seq 10 <- rank 6] completes but shifts the estimated makespan by 15.4% (173664 -> 200492 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 2; rank 0 seq 10 <- rank 1; rank 0 seq 22 <- rank 5; rank 0 seq 16 <- rank 1] completes but shifts the estimated makespan by 13.1% (173664 -> 196428 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 2; rank 0 seq 10 <- rank 1; rank 0 seq 22 <- rank 6; rank 0 seq 18 <- rank 1] completes but shifts the estimated makespan by 10.5% (173664 -> 191828 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 22 <- rank 4; rank 0 seq 14 <- rank 1] completes but shifts the estimated makespan by 20.9% (173664 -> 209960 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 14 <- rank 5; rank 0 seq 16 <- rank 4] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 4; rank 0 seq 14 <- rank 1; rank 0 seq 16 <- rank 3; rank 0 seq 12 <- rank 5] completes but shifts the estimated makespan by 15.4% (173664 -> 200492 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 14 <- rank 6; rank 0 seq 18 <- rank 4] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 4; rank 0 seq 14 <- rank 1; rank 0 seq 18 <- rank 3; rank 0 seq 12 <- rank 6] completes but shifts the estimated makespan by 15.4% (173664 -> 200492 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 14 <- rank 7; rank 0 seq 20 <- rank 4] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 22 <- rank 5; rank 0 seq 16 <- rank 1] completes but shifts the estimated makespan by 18.3% (173664 -> 205360 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 16 <- rank 6; rank 0 seq 18 <- rank 5] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 16 <- rank 7; rank 0 seq 20 <- rank 5] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 22 <- rank 6; rank 0 seq 18 <- rank 1] completes but shifts the estimated makespan by 15.6% (173664 -> 200760 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 18 <- rank 7; rank 0 seq 20 <- rank 6] completes but shifts the estimated makespan by 10.3% (173664 -> 191560 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 3; rank 0 seq 12 <- rank 1; rank 0 seq 22 <- rank 7; rank 0 seq 20 <- rank 1] completes but shifts the estimated makespan by 13.0% (173664 -> 196160 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 4; rank 0 seq 14 <- rank 1] completes but shifts the estimated makespan by 15.4% (173664 -> 200492 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 4; rank 0 seq 14 <- rank 1; rank 0 seq 16 <- rank 6; rank 0 seq 18 <- rank 5] completes but shifts the estimated makespan by 15.4% (173664 -> 200492 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 4; rank 0 seq 14 <- rank 1; rank 0 seq 16 <- rank 7; rank 0 seq 20 <- rank 5] completes but shifts the estimated makespan by 15.4% (173664 -> 200492 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 4; rank 0 seq 14 <- rank 1; rank 0 seq 18 <- rank 7; rank 0 seq 20 <- rank 6] completes but shifts the estimated makespan by 15.4% (173664 -> 200492 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 5; rank 0 seq 16 <- rank 1] completes but shifts the estimated makespan by 20.6% (173664 -> 209424 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 6; rank 0 seq 18 <- rank 1] completes but shifts the estimated makespan by 25.7% (173664 -> 218356 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 8: alternate wildcard matching [rank 0 seq 8 <- rank 7; rank 0 seq 20 <- rank 1] completes but shifts the estimated makespan by 30.9% (173664 -> 227288 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 22: alternate wildcard matching [rank 0 seq 22 <- rank 2; rank 0 seq 10 <- rank 1] completes but shifts the estimated makespan by 15.9% (173664 -> 201264 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 22: alternate wildcard matching [rank 0 seq 22 <- rank 3; rank 0 seq 12 <- rank 1] completes but shifts the estimated makespan by 13.2% (173664 -> 196664 cycles)",
            "info[MPG-SCHEDULE-DIVERGENCE] rank 0 seq 22: alternate wildcard matching [rank 0 seq 22 <- rank 4; rank 0 seq 14 <- rank 1] completes but shifts the estimated makespan by 10.6% (173664 -> 192064 cycles)",
        ],
    );
}

#[test]
fn allreduce_solver_explore() {
    check(
        &AllreduceSolver {
            iters: 10,
            local_work: 100_000,
            vector_bytes: 128,
        },
        &["explored=0 infeasible=0 pruned=0 unexplored=0 max_depth=0 exhausted=false"],
    );
}

#[test]
fn pipeline_explore() {
    check(
        &Pipeline {
            waves: 10,
            work_per_stage: 50_000,
            payload: 256,
        },
        &["explored=0 infeasible=0 pruned=0 unexplored=0 max_depth=0 exhausted=false"],
    );
}

#[test]
fn transpose_explore() {
    check(
        &Transpose {
            steps: 5,
            rows_per_rank: 16,
            work_per_element: 10,
            block_bytes: 256,
        },
        &["explored=0 infeasible=0 pruned=0 unexplored=0 max_depth=0 exhausted=false"],
    );
}

#[test]
fn grid_summa_explore() {
    check(
        &GridSumma {
            rows: 2,
            cols: 4,
            panel_bytes: 1_024,
            local_work: 50_000,
        },
        &["explored=0 infeasible=0 pruned=0 unexplored=0 max_depth=0 exhausted=false"],
    );
}

/// `mpgtool gen --workload master-worker --ranks 8 --scale 6` (the
/// benchmark's `master-worker-wild-8`, 1 950 events), explored at budgets
/// 8/64/256 × depths 1/3/5 × seeds 0/1/7: the coverage line of `mpgtool
/// explore --budget B --depth D --seed S`, field for field, and no pass-8
/// finding in any cell. Depth 5 repeats depth 3 because no budget here
/// gets past the 2 304 seeds; seed 7 rotates a seed pair apart that seeds 0
/// and 1 leave adjacent, hence its own pruned count.
#[test]
fn master_worker_gen_coverage_matrix() {
    let workload = MasterWorker {
        tasks: 384,
        task_work: 200_000,
        task_bytes: 128,
        result_bytes: 128,
    };
    let trace = Simulation::new(8, PlatformSignature::quiet("mpgtool-gen"))
        .seed(1)
        .run(|ctx| workload.run(ctx))
        .expect("workload simulates")
        .trace;
    assert_eq!(trace.total_events(), 1950);
    let ctx = LintContext::build(&trace);
    // (budget, depths, seeds, pruned, unexplored)
    type Row = (u64, &'static [usize], &'static [u64], u64, u64);
    let want: &[Row] = &[
        (8, &[1], &[0, 1, 7], 21, 2275),
        (8, &[3, 5], &[0, 1], 50, 20402),
        (8, &[3, 5], &[7], 41, 20389),
        (64, &[1], &[0, 1, 7], 21, 2219),
        (64, &[3, 5], &[0, 1], 56, 145547),
        (64, &[3, 5], &[7], 46, 145483),
        (256, &[1], &[0, 1, 7], 21, 2027),
        (256, &[3, 5], &[0, 1], 56, 550761),
        (256, &[3, 5], &[7], 46, 550503),
    ];
    for &(budget, depths, seeds, pruned, unexplored) in want {
        for (&depth, &seed) in depths
            .iter()
            .flat_map(|d| seeds.iter().map(move |s| (d, s)))
        {
            let opts = ExploreOptions {
                depth,
                seed,
                ..ExploreOptions::cli_default().budget(budget)
            };
            let report = explore(&ctx, &opts);
            let s = report.stats;
            assert_eq!(
                (s.explored, s.infeasible, s.pruned, s.frontier_unexplored),
                (budget, 0, pruned, unexplored),
                "budget {budget} depth {depth} seed {seed}"
            );
            assert_eq!(
                (s.max_depth, s.budget_exhausted, s.cancelled),
                (1, true, None)
            );
            assert!(
                report.findings.is_empty(),
                "budget {budget} depth {depth} seed {seed}"
            );
        }
    }
}
