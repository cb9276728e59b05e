//! The K = 32 parameter sweep. `mpgtool` has no sweep verb, so the
//! end-to-end run times a fresh child of this binary that opens the trace
//! and calls `sweep_replays`, the call the experiments make.

use std::fmt::Write as _;
use std::path::Path;

use mpg_analysis::sweep::{sweep_replays, SweepMode};
use mpg_core::{PerturbationModel, ReplayConfig, ReplayError, ReplayReport};
use mpg_noise::Dist;
use mpg_trace::FileTraceSet;

/// 16 constant per-message levels in 100-cycle steps, which share lane
/// batches, then 16 exponential OS-noise means of 100·i, which sample per
/// event. The benchmark seed offsets every sampling seed.
pub fn configs(seed: u64) -> Vec<ReplayConfig> {
    let constant = (0..16u32).map(|i| {
        PerturbationModel::per_message_constant(&format!("const-{i}"), f64::from(i) * 100.0)
    });
    let noisy = (1..=16u32).map(|i| {
        let mut m = PerturbationModel::quiet(&format!("os-{i}"));
        m.os_local = Dist::Exponential {
            mean: f64::from(i) * 100.0,
        }
        .into();
        m
    });
    constant
        .chain(noisy)
        .enumerate()
        .map(|(i, m)| {
            ReplayConfig::new(m)
                .seed(seed * 1_000 + i as u64)
                .ack_arm(false)
        })
        .collect()
}

/// What must agree between sweep modes, config by config: final drifts and
/// projected finishes. Lane statistics differ by construction.
pub fn digest(reports: &[Result<ReplayReport, ReplayError>]) -> String {
    let mut out = String::new();
    for (i, r) in reports.iter().enumerate() {
        match r {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{i} {} {:?} {:?}",
                    r.model_name, r.final_drift, r.projected_finish_local
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{i} error {e}");
            }
        }
    }
    out
}

/// Body of the `--sweep-child <trace-dir> <seed> <lanes|threads>` process:
/// open + load + sweep, digest on stdout. Exit code 0 when every config
/// replayed.
pub fn child(dir: &str, seed: u64, mode: &str) -> i32 {
    let mode = match mode {
        "lanes" => SweepMode::Lanes,
        "threads" => SweepMode::ThreadsOnly,
        other => {
            eprintln!("sweep child: unknown mode '{other}'");
            return 2;
        }
    };
    let trace = match FileTraceSet::open(Path::new(dir)).and_then(|set| set.load()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sweep child: {e}");
            return 2;
        }
    };
    let reports = sweep_replays(&trace, &configs(seed), mode);
    print!("{}", digest(&reports));
    i32::from(reports.iter().any(Result::is_err))
}
