//! One replay path: plain `mpgtool replay`, the same run spelled with the
//! retired `--ooc` flag, and the served replay (`Replayer::run` on the
//! loaded trace, rendered by `mpg_serve::render_replay_report`) print the
//! same bytes on every demo workload, one engine's `scheduler:` line
//! included. `--ooc` adds its mapping summary on stderr only. A replay
//! behind the `--lint` gate, which reads the copy the gate loaded instead
//! of the mapped files, prints what the plain one prints.

use std::path::Path;
use std::process::{Command, Output};

use mpg_core::Replayer;
use mpg_trace::FileTraceSet;

const KNOBS: [&str; 8] = [
    "--os",
    "500",
    "--latency",
    "700",
    "--per-byte",
    "0.05",
    "--seed",
    "42",
];

fn mpgtool(args: &[&str], dir: &Path) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_mpgtool"))
        .args(args)
        .arg(dir)
        .output()
        .expect("spawn mpgtool");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn plain_ooc_and_served_replays_print_the_same_bytes() {
    let workloads = [
        "ring",
        "stencil",
        "master-worker",
        "solver",
        "pipeline",
        "transpose",
        "summa",
    ];
    for wl in workloads {
        let dir = std::env::temp_dir().join(format!("mpgtool-paths-{wl}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        mpgtool(&["demo", wl, "--ranks", "8"], &dir);

        let plain = mpgtool(&[&["replay"][..], &KNOBS].concat(), &dir);
        let ooc = mpgtool(&[&["replay", "--ooc"][..], &KNOBS].concat(), &dir);
        let trace = FileTraceSet::open(&dir).unwrap().load().unwrap();
        let cfg = mpg_serve::replay_config(500.0, 700.0, 0.05, 42);
        let served = mpg_serve::render_replay_report(&Replayer::new(cfg).run(&trace).unwrap());

        let plain_out = String::from_utf8(plain.stdout).unwrap();
        assert_eq!(plain_out, served, "{wl}: plain replay vs served");
        assert_eq!(ooc.stdout, served.as_bytes(), "{wl}: --ooc vs served");
        assert_eq!(
            plain_out
                .lines()
                .filter(|l| l.starts_with("scheduler:"))
                .count(),
            1,
            "{wl}: {plain_out}"
        );
        assert!(plain.stderr.is_empty(), "{wl}: plain replay wrote stderr");
        let ooc_err = String::from_utf8_lossy(&ooc.stderr);
        assert!(ooc_err.contains("out-of-core: 8 ranks"), "{wl}: {ooc_err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn gated_replay_prints_the_plain_replays_bytes() {
    let workloads = [
        "ring",
        "stencil",
        "master-worker",
        "solver",
        "pipeline",
        "transpose",
        "summa",
    ];
    for wl in workloads {
        let dir = std::env::temp_dir().join(format!("mpgtool-gated-{wl}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        mpgtool(&["demo", wl, "--ranks", "8"], &dir);
        for shards in ["1", "2"] {
            let args = [&["replay", "--shards", shards][..], &KNOBS].concat();
            let plain = mpgtool(&args, &dir);
            let gated = mpgtool(&[&args[..], &["--lint"]].concat(), &dir);
            assert!(!plain.stdout.is_empty(), "{wl}");
            assert_eq!(
                String::from_utf8_lossy(&gated.stdout),
                String::from_utf8_lossy(&plain.stdout),
                "{wl}: --lint at {shards} shard(s)"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
