//! `mpgtool replay --shards N` prints the same bytes on every run.
//!
//! Sharded replay is bit-identical to one engine on everything it
//! computes; only the scheduler diagnostics describe each engine's private
//! schedule, and a merged report leaves them out. So every sharded run
//! equals every other run at any shard count, and equals the one-engine
//! run minus its `scheduler:` line.

use std::path::Path;
use std::process::Command;

use mpg_noise::PlatformSignature;
use mpg_sim::Simulation;

const RUNS: usize = 20;

/// Eight ranks of ring halos, shifted blocking exchanges, allreduces and
/// bcasts: cross-shard messages, acknowledgements and collectives.
fn save_mixed_trace(dir: &Path) {
    let trace = Simulation::new(8, PlatformSignature::quiet("shards"))
        .ideal_clocks()
        .seed(4)
        .run(|ctx| {
            let (p, me) = (ctx.size(), ctx.rank());
            for it in 0..12u32 {
                ctx.compute(20_000 + 3_000 * u64::from((me + it) % 5));
                let r = ctx.irecv((me + p - 1) % p, it);
                let s = ctx.isend((me + 1) % p, it, 2_048);
                ctx.waitall(&[r, s]);
                let shift = 1 + it % (p - 1);
                ctx.sendrecv(
                    (me + shift) % p,
                    100 + it,
                    512,
                    (me + p - shift) % p,
                    100 + it,
                );
                ctx.allreduce(64);
                if it % 3 == 0 {
                    ctx.bcast(it % p, 1_024);
                }
            }
            // A ragged tail, so the final drifts differ by rank.
            ctx.compute(50_000 * u64::from(me + 1));
            ctx.sendrecv((me + 1) % p, 999, 64, (me + p - 1) % p, 999);
        })
        .expect("program simulates")
        .trace;
    trace.save(dir).expect("trace saves");
}

fn replay(dir: &Path, shards: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mpgtool"))
        .arg("replay")
        .arg(dir)
        .args(["--os", "500", "--latency", "700", "--per-byte", "0.05"])
        .args(["--seed", "3", "--shards", &shards.to_string()])
        .output()
        .expect("spawn mpgtool");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn sharded_replay_stdout_is_stable_and_matches_one_engine() {
    let dir = std::env::temp_dir().join(format!("mpgtool-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_mixed_trace(&dir);

    let one = replay(&dir, 1);
    assert_eq!(
        one.lines().filter(|l| l.starts_with("scheduler:")).count(),
        1,
        "{one}"
    );
    for shards in [2, 3, 4] {
        let want: String = one
            .lines()
            .filter(|l| !l.starts_with("scheduler:"))
            .map(|l| l.to_string() + "\n")
            .collect();
        for run in 0..RUNS {
            let got = replay(&dir, shards);
            assert_eq!(got, want, "{shards} shards, run {run}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
