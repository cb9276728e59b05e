//! Lint-throughput measurement and the tracked `BENCH_lint.json` perf
//! snapshot.
//!
//! The §12 pass manager's pitch is that the *whole* static-analysis
//! pipeline — progress matching, quiet recorded replay, happens-before
//! index, and the parallel graph passes (causality, HB races with witness
//! replays, perf, sync) — stays a near-linear pass over the trace. This
//! module pins four lint-heavy workloads (including the wildcard-heavy
//! master-worker, whose every task receive is an `ANY_SOURCE` race
//! candidate, and a 128-rank stencil, where any cost proportional to the
//! rank count shows), measures `lint_full` events/sec, and round-trips the
//! results through the same snapshot format as `BENCH_replay.json` so
//! `lint.sh` can fail a change that regresses lint throughput by more than
//! a threshold. A fifth row times the pass-8 schedule explorer
//! (`lint_explore`, budget 256) in forced replays per second, gating the explorer's per-schedule cost under the same
//! host-calibrated threshold. The gate reuses [`perf::calibrate`](crate::perf::calibrate)
//! host-speed scaling, so a loaded box loosens the floor instead of
//! producing false failures.

use std::time::Instant;

use crate::perf::{calibrate, WorkloadPerf};
use mpg_apps::{MasterWorker, Stencil, TokenRing, Workload};
use mpg_noise::PlatformSignature;
use mpg_sim::Simulation;
use mpg_trace::MemTrace;

fn trace_of(w: &dyn Workload, p: u32) -> MemTrace {
    Simulation::new(p, PlatformSignature::quiet("lintperf"))
        .ideal_clocks()
        .seed(1)
        .run(|ctx| w.run(ctx))
        .expect("pinned lint workload runs")
        .trace
}

/// The pinned lint workloads: the wildcard-heavy master-worker (every task
/// pull is an `ANY_SOURCE` receive, so pass 4 enumerates and witness-
/// replays real candidates), a waitall-heavy stencil (nonblocking request
/// bookkeeping), a long blocking token ring (matcher + wait-for graph), and
/// the same stencil on 128 ranks with few events each — the row that
/// catches per-event work growing with the rank count, which rows of 8 and
/// 16 ranks cannot show.
pub fn pinned_traces() -> Vec<(&'static str, u32, MemTrace)> {
    let mw = MasterWorker {
        tasks: 60,
        task_work: 20,
        task_bytes: 64,
        result_bytes: 32,
    };
    let stencil = Stencil {
        iters: 150,
        cells_per_rank: 10,
        work_per_cell: 5,
        halo_bytes: 256,
    };
    let ring = TokenRing {
        traversals: 40,
        particles_per_rank: 2,
        work_per_pair: 1,
    };
    let wide_stencil = Stencil {
        iters: 30,
        ..stencil
    };
    vec![
        ("master-worker-8", 8, trace_of(&mw, 8)),
        ("stencil-8", 8, trace_of(&stencil, 8)),
        ("token-ring-16", 16, trace_of(&ring, 16)),
        ("stencil-128", 128, trace_of(&wide_stencil, 128)),
    ]
}

/// A lint-throughput snapshot (what `BENCH_lint.json` holds). Same
/// workload/calibration keys as [`PerfSnapshot`](crate::perf::PerfSnapshot),
/// so the tolerant
/// line-scanning parsers are shared.
#[derive(Debug, Clone, PartialEq)]
pub struct LintPerfSnapshot {
    /// Timed repetitions per workload (best is kept).
    pub reps: u32,
    /// Host-speed calibration taken with the measurement.
    pub calibration: f64,
    /// Per-workload results (`events_per_sec` = trace events / `lint_full`
    /// wall time; `scheduler_wakeups`/`polls_avoided` are unused here and
    /// recorded as 0).
    pub workloads: Vec<WorkloadPerf>,
}

/// Measures `lint_full` over every pinned workload: one warmup, then
/// `reps` timed runs, keeping the best.
pub fn measure(reps: u32) -> LintPerfSnapshot {
    let reps = reps.max(1);
    let mut workloads = Vec::new();
    let traces = pinned_traces();
    for (name, ranks, trace) in &traces {
        let warm = mpg_lint::lint_full(trace);
        // The pinned workloads are clean traces: only advisory findings
        // (races on master-worker) may appear. An error here means the
        // bench is measuring a broken pipeline, not a slow one.
        assert!(
            warm.iter().all(|d| d.severity < mpg_trace::Severity::Error),
            "pinned lint workload {name} has error diagnostics: {warm:?}"
        );
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(mpg_lint::lint_full(trace));
            best = best.min(t.elapsed().as_secs_f64());
        }
        let events = trace.total_events() as u64;
        workloads.push(WorkloadPerf {
            name: name.to_string(),
            ranks: *ranks,
            events,
            events_per_sec: events as f64 / best,
            scheduler_wakeups: 0,
            polls_avoided: 0,
        });
    }
    // Explore throughput: the bounded pass-8 schedule walk over the
    // wildcard-heavy master-worker (its frontier
    // always exhausts the budget, so every rep forces the same number of
    // alternate-matching replays). `events` here counts schedules
    // replayed, not trace events — the unit the explorer's cost scales
    // with — so `events_per_sec` is forced replays per second.
    {
        let (_, ranks, trace) = &traces[0];
        // Budget 256 (vs the CLI default 64) keeps each timed rep long
        // enough (~100ms) that thread-pool spawn jitter doesn't dominate
        // the measurement on a loaded box.
        let opts = mpg_lint::ExploreOptions::cli_default().budget(256);
        let warm = mpg_lint::lint_explore(trace, &opts);
        assert!(
            warm.stats.budget_exhausted && warm.stats.explored == opts.budget,
            "explore bench workload no longer saturates its budget: {:?}",
            warm.stats
        );
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(mpg_lint::lint_explore(trace, &opts));
            best = best.min(t.elapsed().as_secs_f64());
        }
        workloads.push(WorkloadPerf {
            name: "explore-master-worker-8".to_string(),
            ranks: *ranks,
            events: warm.stats.explored,
            events_per_sec: warm.stats.explored as f64 / best,
            scheduler_wakeups: 0,
            polls_avoided: 0,
        });
    }
    LintPerfSnapshot {
        reps,
        calibration: calibrate(),
        workloads,
    }
}

impl LintPerfSnapshot {
    /// Renders the snapshot as the `BENCH_lint.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        crate::benchjson::write_header(&mut out, "lint_throughput", self.reps, self.calibration);
        crate::benchjson::write_workloads(&mut out, &self.workloads, false, &[]);
        out
    }
}

/// Compares a fresh lint measurement against a recorded `BENCH_lint.json`.
/// Same contract and host-speed scaling as
/// [`perf::regressions`](crate::perf::regressions): one message per
/// workload more than `threshold_pct` percent below the (scaled) recorded
/// throughput; empty means the gate passes.
pub fn regressions(
    recorded_json: &str,
    current: &LintPerfSnapshot,
    threshold_pct: f64,
) -> Vec<String> {
    crate::benchjson::throughput_regressions(
        recorded_json,
        &current.workloads,
        crate::benchjson::host_scale(recorded_json, current.calibration),
        threshold_pct,
        "lint events/sec",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfSnapshot;

    fn snapshot(eps: &[(&str, f64)], calibration: f64) -> LintPerfSnapshot {
        LintPerfSnapshot {
            reps: 1,
            calibration,
            workloads: eps
                .iter()
                .map(|(n, e)| WorkloadPerf {
                    name: (*n).into(),
                    ranks: 8,
                    events: 1000,
                    events_per_sec: *e,
                    scheduler_wakeups: 0,
                    polls_avoided: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn json_roundtrip_through_shared_parsers() {
        let snap = snapshot(&[("master-worker-8", 2.0e6), ("stencil-8", 1.0e6)], 1.0e9);
        let json = snap.to_json();
        assert_eq!(
            PerfSnapshot::parse_events_per_sec(&json),
            vec![
                ("master-worker-8".to_string(), 2.0e6),
                ("stencil-8".to_string(), 1.0e6)
            ]
        );
        assert_eq!(PerfSnapshot::parse_calibration(&json), Some(1.0e9));
    }

    #[test]
    fn gate_fires_only_past_threshold_with_host_scaling() {
        let recorded = snapshot(&[("a", 1.0e6)], 1.0e9).to_json();
        // 10% down: within a 20% allowance.
        assert!(regressions(&recorded, &snapshot(&[("a", 9.0e5)], 1.0e9), 20.0).is_empty());
        // 30% down at full host speed: the gate names it.
        let msgs = regressions(&recorded, &snapshot(&[("a", 7.0e5)], 1.0e9), 20.0);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].starts_with("a:"), "{msgs:?}");
        // Same drop on a half-speed host: forgiven.
        assert!(regressions(&recorded, &snapshot(&[("a", 7.0e5)], 0.5e9), 20.0).is_empty());
        // Unknown workloads are ignored (the pinned set may grow).
        assert!(regressions(&recorded, &snapshot(&[("new", 1.0)], 1.0e9), 20.0).is_empty());
    }

    #[test]
    fn measure_smoke() {
        let snap = measure(1);
        assert_eq!(snap.workloads.len(), 5);
        for w in &snap.workloads {
            assert!(w.events > 0 && w.events_per_sec > 0.0, "{w:?}");
        }
    }
}
