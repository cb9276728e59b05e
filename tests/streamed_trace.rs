//! The streaming tracer writes what collecting and saving writes: for the
//! seven demo workloads at 4 and 16 ranks and two seeds, the directory
//! `Simulation::run_streamed` fills is byte for byte the one
//! `MemTrace::save` writes of the same simulation run by `run`, and the
//! two runs report the same finish times and counters.

use std::path::{Path, PathBuf};

use mpg::apps::{
    AllreduceSolver, GridSumma, MasterWorker, Pipeline, Stencil, TokenRing, Transpose, Workload,
};
use mpg::noise::PlatformSignature;
use mpg::sim::Simulation;

/// The `mpgtool demo` workloads at their demo sizes; `summa` on a square
/// grid of `ranks` ranks.
fn demo_workloads(ranks: u32) -> Vec<Box<dyn Workload>> {
    let side = (ranks as f64).sqrt() as u32;
    assert_eq!(side * side, ranks, "summa needs a square rank count");
    vec![
        Box::new(TokenRing {
            traversals: 5,
            particles_per_rank: 16,
            work_per_pair: 25,
        }),
        Box::new(Stencil {
            iters: 20,
            cells_per_rank: 2_000,
            work_per_cell: 40,
            halo_bytes: 1_024,
        }),
        Box::new(MasterWorker {
            tasks: 64,
            task_work: 200_000,
            task_bytes: 128,
            result_bytes: 128,
        }),
        Box::new(AllreduceSolver {
            iters: 20,
            local_work: 200_000,
            vector_bytes: 256,
        }),
        Box::new(Pipeline {
            waves: 20,
            work_per_stage: 100_000,
            payload: 512,
        }),
        Box::new(Transpose {
            steps: 10,
            rows_per_rank: 32,
            work_per_element: 10,
            block_bytes: 512,
        }),
        Box::new(GridSumma {
            rows: side,
            cols: side,
            panel_bytes: 4_096,
            local_work: 200_000,
        }),
    ]
}

/// Every file of `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpg-streamed-{tag}-{}", std::process::id()))
}

#[test]
fn streamed_directory_equals_the_saved_collected_trace() {
    let (streamed, saved) = (tmp("streamed"), tmp("saved"));
    let mut cases = 0;
    for ranks in [4u32, 16] {
        for w in demo_workloads(ranks) {
            for seed in [1u64, 2] {
                let sim = || Simulation::new(ranks, PlatformSignature::quiet("mpgtool")).seed(seed);
                let what = format!("{} on {ranks} ranks, seed {seed}", w.name());
                let _ = std::fs::remove_dir_all(&streamed);
                let _ = std::fs::remove_dir_all(&saved);
                let run = sim()
                    .run_streamed(&streamed, |ctx| w.run(ctx))
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let collected = sim().run(|ctx| w.run(ctx)).unwrap();
                collected.trace.save(&saved).unwrap();
                assert_eq!(run.finish_times, collected.finish_times, "{what}");
                assert_eq!(run.stats, collected.stats, "{what}");
                assert_eq!(
                    run.stats.events as usize,
                    collected.trace.total_events(),
                    "{what}"
                );
                assert_eq!(run.makespan(), collected.makespan(), "{what}");
                let (a, b) = (files(&streamed), files(&saved));
                assert_eq!(a.len(), ranks as usize + 1, "{what}");
                assert!(a == b, "{what}: streamed files differ from the saved ones");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 28);
    for d in [&streamed, &saved] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A program error ends the run with no trace directory, and one that
/// existed before the run keeps what the run did not write. Each rank has
/// spilled frames to its file (30 000 records of 4–5 bytes) by the time
/// rank 1 fails.
#[test]
fn failed_streamed_run_removes_only_what_it_created() {
    let fresh = tmp("failed").join("a").join("b");
    let _ = std::fs::remove_dir_all(tmp("failed"));
    let run = |dir: &Path, peer: u32| {
        Simulation::new(2, PlatformSignature::quiet("t")).run_streamed(dir, |ctx| {
            for _ in 0..30_000 {
                ctx.compute(10);
            }
            if ctx.rank() == 1 {
                ctx.send(peer, 0, 8);
                ctx.recv(peer, 1);
            } else {
                ctx.recv(1, 0);
                ctx.send(1, 1, 8);
            }
        })
    };
    let fail = |dir: &Path| run(dir, 7).unwrap_err();
    run(&fresh, 0).unwrap();
    for r in 0..2 {
        let set = mpg::trace::OocTraceSet::open(&fresh).unwrap();
        assert!(set.cursor(r).index().num_frames() > 1, "rank {r}");
    }
    std::fs::remove_dir_all(tmp("failed")).unwrap();
    let err = fail(&fresh);
    assert!(err.to_string().contains("invalid operation"), "{err}");
    assert!(!tmp("failed").exists(), "a failed run left {fresh:?}");

    let kept = tmp("failed-kept");
    let _ = std::fs::remove_dir_all(&kept);
    std::fs::create_dir_all(&kept).unwrap();
    std::fs::write(kept.join("notes.txt"), "mine").unwrap();
    fail(&kept);
    assert_eq!(files(&kept), vec![("notes.txt".into(), b"mine".to_vec())]);
    std::fs::remove_dir_all(&kept).unwrap();
}
