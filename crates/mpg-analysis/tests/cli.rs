//! End-to-end tests of the `mpgtool` CLI: demo → validate → stats →
//! replay (+history) → dot, all against real files.

use std::path::PathBuf;
use std::process::Command;

fn mpgtool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpgtool"))
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpgtool-{tag}-{}", std::process::id()))
}

#[test]
fn full_cli_pipeline() {
    let dir = tmp("pipeline");
    let _ = std::fs::remove_dir_all(&dir);

    // demo
    let out = mpgtool()
        .args(["demo", "ring", "--ranks", "4", "--seed", "3"])
        .arg(&dir)
        .output()
        .expect("spawn mpgtool");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("traced 'ring' on 4 ranks"), "{stdout}");

    // validate
    let out = mpgtool().arg("validate").arg(&dir).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("ok:"));

    // stats
    let out = mpgtool().arg("stats").arg(&dir).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compute"), "{stdout}");
    assert!(stdout.contains("communicating pairs"), "{stdout}");

    // replay with model + history
    let hist = tmp("history.log");
    let _ = std::fs::remove_file(&hist);
    let out = mpgtool()
        .arg("replay")
        .arg(&dir)
        .args(["--latency", "500", "--seed", "7", "--history"])
        .arg(&hist)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("max drift"), "{stdout}");
    assert!(stdout.contains("history: appended"), "{stdout}");
    // Drift must be positive: 500 cycles per hop on a ring.
    assert!(!stdout.contains("max drift 0,"), "{stdout}");
    assert!(hist.exists());

    // Second replay appends a second record.
    mpgtool()
        .arg("replay")
        .arg(&dir)
        .args(["--latency", "100", "--history"])
        .arg(&hist)
        .output()
        .unwrap();
    let hist_content = std::fs::read_to_string(&hist).unwrap();
    assert_eq!(hist_content.lines().count(), 2);

    // dot
    let out = mpgtool().arg("dot").arg(&dir).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("cluster_rank0"));

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_file(&hist).unwrap();
}

#[test]
fn identity_replay_via_cli_is_zero_drift() {
    let dir = tmp("identity");
    let _ = std::fs::remove_dir_all(&dir);
    mpgtool()
        .args(["demo", "solver", "--ranks", "3"])
        .arg(&dir)
        .output()
        .unwrap();
    let out = mpgtool().arg("replay").arg(&dir).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("max drift 0, mean 0"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = mpgtool().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = mpgtool()
        .args(["demo", "no-such-workload", "/tmp/x"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = mpgtool()
        .args(["stats", "/nonexistent-mpg-dir"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn all_demo_workloads_produce_valid_traces() {
    for name in [
        "ring",
        "stencil",
        "master-worker",
        "solver",
        "pipeline",
        "transpose",
    ] {
        let dir = tmp(&format!("wl-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let out = mpgtool()
            .args(["demo", name, "--ranks", "4"])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = mpgtool().arg("validate").arg(&dir).output().unwrap();
        assert!(out.status.success(), "{name} trace invalid");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn export_import_roundtrip_via_cli() {
    let dir = tmp("exp");
    let dir2 = tmp("exp2");
    let txt = tmp("exp.txt");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
    mpgtool()
        .args(["demo", "pipeline", "--ranks", "3"])
        .arg(&dir)
        .output()
        .unwrap();
    let out = mpgtool().arg("export").arg(&dir).output().unwrap();
    assert!(out.status.success());
    std::fs::write(&txt, &out.stdout).unwrap();
    let out = mpgtool()
        .arg("import")
        .arg(&txt)
        .arg(&dir2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Re-export of the import must be byte-identical.
    let reexport = mpgtool().arg("export").arg(&dir2).output().unwrap();
    assert_eq!(std::fs::read(&txt).unwrap(), reexport.stdout);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
    std::fs::remove_file(&txt).unwrap();
}

#[test]
fn timeline_and_diff_render() {
    let dir = tmp("tl");
    let _ = std::fs::remove_dir_all(&dir);
    mpgtool()
        .args(["demo", "solver", "--ranks", "3"])
        .arg(&dir)
        .output()
        .unwrap();
    let out = mpgtool()
        .args(["timeline"])
        .arg(&dir)
        .args(["--width", "60"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rank    0"), "{stdout}");
    assert!(stdout.contains("legend:"), "{stdout}");

    let out = mpgtool().arg("diff").arg(&dir).arg(&dir).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Same trace on both sides: every ratio is exactly 1.000.
    assert!(stdout.contains("1.000"), "{stdout}");
    assert!(stdout.contains("allreduce"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Text-format trace with a classic head-to-head receive deadlock: each
/// rank blocks receiving from the other before either send is reached.
const DEADLOCK_TRACE: &str = "\
ranks=2
rank 0
0 10 init
10 20 recv peer=1 tag=0 bytes=8 any=0
20 30 send peer=1 tag=0 bytes=8
30 40 finalize
rank 1
0 10 init
10 20 recv peer=0 tag=0 bytes=8 any=0
20 30 send peer=0 tag=0 bytes=8
30 40 finalize
";

fn import_text_trace(tag: &str, text: &str) -> PathBuf {
    let dir = tmp(tag);
    let txt = tmp(&format!("{tag}.txt"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write(&txt, text).unwrap();
    let out = mpgtool()
        .arg("import")
        .arg(&txt)
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&txt).unwrap();
    dir
}

#[test]
fn lint_catches_seeded_deadlock_with_nonzero_exit() {
    let dir = import_text_trace("lint-dl", DEADLOCK_TRACE);

    // The trace is structurally valid — only the cross-rank passes see it.
    let out = mpgtool().arg("validate").arg(&dir).output().unwrap();
    assert!(out.status.success(), "structurally valid");

    let out = mpgtool().arg("lint").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "exit 1 on error diagnostics");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[MPG-DEADLOCK]"), "{stdout}");
    assert!(stdout.contains("wait-for cycle"), "{stdout}");

    // JSON mode carries the same finding, machine-readable.
    let out = mpgtool()
        .args(["lint", "--json"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with('['), "{stdout}");
    assert!(stdout.contains("\"rule\":\"MPG-DEADLOCK\""), "{stdout}");
    assert!(stdout.contains("\"ranks\":[0,1]"), "{stdout}");

    // Replay refuses the trace when gated, on one engine or sharded.
    for shards in [&[][..], &["--shards", "2"], &["--shards", "3"]] {
        let out = mpgtool()
            .args(["replay", "--lint"])
            .args(shards)
            .arg(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{shards:?}: {stderr}");
        assert!(stderr.contains("rejected by lint gate"), "{stderr}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cursor checks each frame when it first reads it, so a replay finds
/// some damage at open (a torn tail, a dropped frame) and some mid-stream
/// (a flipped payload bit). Either way it exits 2 and points at fsck.
#[test]
fn damaged_trace_replay_names_fsck() {
    let dir = tmp("replay-damaged");
    let damaged = tmp("replay-damaged-injected");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mpgtool()
        .args([
            "gen",
            "--workload",
            "ring",
            "--ranks",
            "16",
            "--scale",
            "20",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    for kind in ["bitflip", "truncate", "frame-drop"] {
        for seed in ["1", "2", "3"] {
            let _ = std::fs::remove_dir_all(&damaged);
            let out = mpgtool()
                .arg("fsck")
                .arg(&dir)
                .args(["--inject", kind, "--seed", seed, "--out"])
                .arg(&damaged)
                .output()
                .unwrap();
            assert!(damaged.exists(), "{out:?}");
            for ooc in [&[][..], &["--ooc"]] {
                let out = mpgtool()
                    .arg("replay")
                    .arg(&damaged)
                    .args(ooc)
                    .output()
                    .unwrap();
                let stderr = String::from_utf8_lossy(&out.stderr);
                let what = format!("{kind} seed {seed} {ooc:?}: {stderr}");
                assert_eq!(out.status.code(), Some(2), "{what}");
                assert!(out.stdout.is_empty(), "{what}");
                assert!(stderr.contains("try `mpgtool fsck"), "{what}");
            }
        }
    }
    for d in [&dir, &damaged] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn all_demo_workloads_lint_clean() {
    let cases: &[(&str, &str)] = &[
        ("ring", "4"),
        ("stencil", "4"),
        ("master-worker", "4"),
        ("solver", "4"),
        ("pipeline", "4"),
        ("transpose", "4"),
        ("summa", "8"),
    ];
    for (name, ranks) in cases {
        let dir = tmp(&format!("lint-wl-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let out = mpgtool()
            .args(["demo", name, "--ranks", ranks])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = mpgtool().arg("lint").arg(&dir).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{name} lints dirty: {stdout}");
        assert!(
            stdout.contains("lint: 0 error(s), 0 warning(s)"),
            "{name}: {stdout}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn lint_deny_escalates_wildcard_race() {
    let dir = tmp("lint-deny");
    let _ = std::fs::remove_dir_all(&dir);
    mpgtool()
        .args(["demo", "master-worker", "--ranks", "4"])
        .arg(&dir)
        .output()
        .unwrap();

    // Advisory by default: hidden, exit 0.
    let out = mpgtool().arg("lint").arg(&dir).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("MPG-WILD-RACE"), "{stdout}");
    assert!(stdout.contains("hidden; use --all"), "{stdout}");

    // --all surfaces the advisory without failing.
    let out = mpgtool()
        .args(["lint", "--all"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("info[MPG-WILD-RACE]"));

    // --deny escalates it to an error and flips the exit code.
    let out = mpgtool()
        .args(["lint", "--deny", "MPG-WILD-RACE"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[MPG-WILD-RACE]"));

    // Denying an unrelated rule changes nothing.
    let out = mpgtool()
        .args(["lint", "--deny", "MPG-DEADLOCK"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());

    // An unknown rule is a usage error.
    let out = mpgtool()
        .args(["lint", "--deny", "MPG-NOT-A-RULE"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_json_is_empty_array_for_clean_trace() {
    let dir = tmp("lint-json-clean");
    let _ = std::fs::remove_dir_all(&dir);
    mpgtool()
        .args(["demo", "ring", "--ranks", "4"])
        .arg(&dir)
        .output()
        .unwrap();
    let out = mpgtool()
        .args(["lint", "--json"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[]");

    // validate shares the JSON path.
    let out = mpgtool()
        .args(["validate", "--json"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[]");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A numeric flag whose value does not parse, or that is given last with
/// no value, is a usage error naming the flag: exit 2 before anything
/// runs, nothing on stdout.
#[test]
fn bad_numeric_flags_exit_2_naming_the_flag() {
    let dir = tmp("badflag");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mpgtool()
        .args(["demo", "ring", "--ranks", "2"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let dir = dir.to_str().unwrap();
    let gen_dir = tmp("badflag-gen");
    for (args, needle) in [
        (
            vec!["replay", dir, "--os", "nonsense"],
            "bad --os 'nonsense'",
        ),
        (vec!["replay", dir, "--os", "4OO"], "bad --os '4OO'"),
        (vec!["analyze", dir, "--top", "x"], "bad --top 'x'"),
        (
            vec!["gen", "--ranks", "x", gen_dir.to_str().unwrap()],
            "bad --ranks 'x'",
        ),
        (
            vec!["gen", "--ranks", "0", gen_dir.to_str().unwrap()],
            "bad --ranks '0'",
        ),
        (
            vec!["demo", "ring", "--ranks", "0", gen_dir.to_str().unwrap()],
            "bad --ranks '0'",
        ),
        (vec!["replay", dir, "--shards"], "--shards needs a value"),
    ] {
        let out = mpgtool().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    assert!(!gen_dir.exists(), "gen wrote a trace on a bad flag");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A simulation that fails reports its error and nothing else: the rank
/// threads it unwinds print no panic message and no backtrace.
#[test]
fn failed_simulation_prints_only_its_error() {
    let dir = tmp("gen-one-rank");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mpgtool()
        .args(["gen", "--workload", "ring", "--ranks", "1"])
        .arg(&dir)
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "mpgtool: simulation failed: invalid operation on rank 0: \
         self-message is not supported\n"
    );
    assert!(!dir.exists(), "gen wrote a trace for a failed simulation");
}

const USAGE_HINT: &str = "run with no arguments for usage";

/// The usage hint follows a command line that cannot run, and only that:
/// a damaged trace or a failed simulation is not a usage error. Both exit
/// 2.
#[test]
fn usage_hint_only_on_usage_errors() {
    let dir = tmp("hint");
    let damaged = tmp("hint-bitflip");
    for d in [&dir, &damaged] {
        let _ = std::fs::remove_dir_all(d);
    }
    let out = mpgtool()
        .args(["gen", "--workload", "ring", "--ranks", "4", "--scale", "20"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = mpgtool()
        .arg("fsck")
        .arg(&dir)
        .args(["--inject", "bitflip", "--seed", "1", "--out"])
        .arg(&damaged)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let gen_dir = tmp("hint-gen");
    let runs: [(Vec<&std::ffi::OsStr>, bool); 4] = [
        (vec!["replay".as_ref(), damaged.as_os_str()], false),
        (
            vec!["gen", "--workload", "ring", "--ranks", "1"]
                .into_iter()
                .map(AsRef::as_ref)
                .chain([gen_dir.as_os_str()])
                .collect(),
            false,
        ),
        (vec!["lint".as_ref()], true),
        (
            vec!["gen", "--ranks", "x"]
                .into_iter()
                .map(AsRef::as_ref)
                .chain([gen_dir.as_os_str()])
                .collect(),
            true,
        ),
    ];
    for (args, hint) in runs {
        let out = mpgtool().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("mpgtool: "), "{args:?}: {stderr}");
        assert_eq!(stderr.contains(USAGE_HINT), hint, "{args:?}: {stderr}");
    }
    assert!(!gen_dir.exists());
    for d in [&dir, &damaged] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// `gen` keeps no rank file open between frames: 128 ranks write under
/// an open-file limit of 64, which applies to the child only.
#[test]
fn gen_writes_more_ranks_than_open_files() {
    let dir = tmp("gen-ulimit-n");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 64 && exec "$0" gen --workload stencil --ranks 128 "$1""#)
        .arg(env!("CARGO_BIN_EXE_mpgtool"))
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        mpg_trace::FileTraceSet::open(&dir).unwrap().num_ranks(),
        128
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `gen` over a trace of more ranks removes the rank files the replaced
/// `meta.txt` named past the new rank count, and prints what it prints
/// into a fresh directory.
#[test]
fn gen_over_a_wider_trace_removes_its_stale_rank_files() {
    let (dir, fresh) = (tmp("gen-narrower"), tmp("gen-narrower-fresh"));
    let gen = |ranks: &str, d: &PathBuf| {
        let out = mpgtool()
            .args(["gen", "--workload", "ring", "--ranks", ranks])
            .arg(d)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout)
            .unwrap()
            .replace(&d.display().to_string(), "DIR")
    };
    for d in [&dir, &fresh] {
        let _ = std::fs::remove_dir_all(d);
    }
    gen("8", &dir);
    assert_eq!(gen("4", &dir), gen("4", &fresh));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "meta.txt",
            "rank-0.mpg",
            "rank-1.mpg",
            "rank-2.mpg",
            "rank-3.mpg"
        ]
    );
    for d in [&dir, &fresh] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A `gen` whose output path is a regular file fails as a write error,
/// exit 2 with no panic, and leaves the file as it was.
#[test]
fn gen_onto_a_regular_file_is_a_write_error() {
    let file = tmp("gen-onto-file");
    std::fs::write(&file, "not a directory").unwrap();
    let out = mpgtool()
        .args(["gen", "--workload", "ring", "--ranks", "4"])
        .arg(&file)
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.starts_with("mpgtool: writing trace: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains(USAGE_HINT), "{stderr}");
    assert_eq!(std::fs::read(&file).unwrap(), b"not a directory");
    std::fs::remove_file(&file).unwrap();
}

/// A rank thread the host cannot start fails the simulation like any
/// other error: the ranks already started unwind, nothing panics, and no
/// trace is written. 1 024 rank stacks do not fit in 400 MB of address
/// space.
#[test]
fn rank_thread_spawn_failure_is_a_simulation_error() {
    let dir = tmp("gen-spawn-failure");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 400000 && exec "$0" gen --workload stencil --ranks 1024 --scale 1 "$1""#)
        .arg(env!("CARGO_BIN_EXE_mpgtool"))
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.starts_with("mpgtool: simulation failed: could not start rank"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.exists(), "gen wrote a trace for a failed simulation");
}

#[test]
fn lint_usage_and_io_errors_exit_2() {
    let out = mpgtool().arg("lint").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = mpgtool()
        .args(["lint", "/nonexistent-mpg-dir"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// `bench` takes `--out FILE`, `--check` and `--reps N` and nothing else.
/// The flags of the recorded-snapshot gate it replaced must fail before
/// anything is measured, never run a check that gates nothing.
#[test]
fn bench_rejects_the_retired_gate_flags() {
    for (args, stray) in [
        (&["bench", "--lint"][..], "--lint"),
        (&["bench", "--threshold", "20"][..], "--threshold"),
        (
            &["bench", "--check", "BENCH_replay.json"][..],
            "BENCH_replay.json",
        ),
    ] {
        let out = mpgtool().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unexpected argument '{stray}'")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} measured something");
    }
}

/// Salvage keeps each surviving frame's sequence numbers, so a rank that
/// lost a frame in the middle of its stream holds events numbered past
/// its record count. `analyze --salvage` records the lost records as holes
/// of the graph layout and reports exactly what it reported when graph
/// nodes were interned by id: the JSON is pinned whole, the text by its
/// FNV-1a 64 hash (566 224 bytes, mostly late-sender findings).
#[test]
fn analyze_salvage_reads_past_a_frame_lost_mid_stream() {
    let dir = tmp("salvage-gap");
    let damaged = tmp("salvage-gap-injected");
    for d in [&dir, &damaged] {
        let _ = std::fs::remove_dir_all(d);
    }
    // Rank 1 writes 19 203 records in three frames.
    let out = mpgtool()
        .args(["gen", "--workload", "master-worker", "--ranks", "2"])
        .args(["--scale", "100"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = mpgtool()
        .arg("fsck")
        .arg(&dir)
        .args(["--inject", "frame-drop", "--seed", "4", "--out"])
        .arg(&damaged)
        .output()
        .unwrap();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stderr.contains("dropped frame 1 (65551 bytes) (rank 1)"),
        "{stderr}"
    );
    assert!(
        stdout.contains("rank 1: 11011 record(s) from 2 frame(s)"),
        "{stdout}"
    );

    let analyze = |json: bool| {
        let mut cmd = mpgtool();
        cmd.args(["analyze", "--salvage"]).arg(&damaged);
        if json {
            cmd.arg("--json");
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stderr.is_empty(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(
        String::from_utf8(analyze(true)).unwrap(),
        concat!(
            r#"{"ranks":2,"makespan":1310241226,"compute":1292894190,"transfer":576850557,"#,
            r#""wait":{"late_sender":734537897,"late_receiver":16170361,"wait_at_collective":0,"#,
            r#""imbalance_at_collective":0,"exit_skew":29447},"wait_total":750737705,"#,
            r#""identity_holds":true,"efficiency":0.713512,"imbalance":0.286488,"#,
            r#""zero_slack_edges":28878,"edge_count":51372,"causality_clamps":6449,"#,
            r#""retime_mismatches":12898,"per_rank":[{"rank":0,"compute":2000,"#,
            r#""transfer":560069001,"wait":750170225},{"rank":1,"compute":1292892190,"#,
            r#""transfer":16781556,"wait":567480}],"by_tag":[{"tag":"2","count":4150,"#,
            r#""wait":735105377},{"tag":"1","count":3669,"wait":15602881}],"#,
            r#""by_op":[{"op":"recv","count":3669,"wait":734537897},{"op":"send","#,
            r#""count":4150,"wait":16170361}],"collectives":[],"chains":[{"rank":1,"#,
            r#""finish":1310239926,"steps":25686,"message_hops":7339,"ranks_touched":2,"#,
            r#""wait_cycles":735105377},{"rank":0,"finish":1310235562,"steps":25685,"#,
            r#""message_hops":7338,"ranks_touched":2,"wait_cycles":735105377}]}"#,
            "\n"
        )
    );
    let text = analyze(false);
    assert_eq!(text.len(), 566_224);
    assert_eq!(mpg_trace::fnv1a64(&text), 0x7f37_bea7_181e_2a10);
    for d in [&dir, &damaged] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// The content fingerprint of a generated trace is the cache's trace key.
/// It folds each rank footer's whole-file CRC, so this pins the bytes the
/// writer produces: a writer whose frame or whole-file CRC drifts turns
/// every cache directory written before it into misses.
#[test]
fn generated_trace_fingerprint_is_pinned() {
    let dir = tmp("gen-fingerprint");
    let _ = std::fs::remove_dir_all(&dir);
    let out = mpgtool()
        .args(["gen", "--workload", "ring", "--ranks", "4"])
        .args(["--scale", "1", "--seed", "1"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let key = mpg_trace::trace_fingerprint(&dir).unwrap().key();
    assert_eq!(key, "0004-965df8f5-3707b03697e18f03");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes `outcome`'s trace to a fresh directory and returns its key.
fn saved_key(tag: &str, outcome: mpg_sim::SimOutcome) -> String {
    let dir = tmp(tag);
    let _ = std::fs::remove_dir_all(&dir);
    outcome.trace.save(&dir).unwrap();
    let key = mpg_trace::trace_fingerprint(&dir).unwrap().key();
    std::fs::remove_dir_all(&dir).unwrap();
    key
}

/// Every `gen` workload at two rank counts and the 8-rank `summa` demo:
/// the simulator's scheduling of rank calls may change, the bytes it
/// writes may not.
#[test]
fn every_generated_workload_fingerprint_is_pinned() {
    let pins: [(&[&str], &str); 13] = [
        (
            &["gen", "--workload", "ring", "--ranks", "4"],
            "0004-965df8f5-3707b03697e18f03",
        ),
        (
            &["gen", "--workload", "ring", "--ranks", "16"],
            "0010-fe1b22ee-df950ed9c2209408",
        ),
        (
            &["gen", "--workload", "stencil", "--ranks", "4"],
            "0004-1537d488-a79ea7441619eec5",
        ),
        (
            &["gen", "--workload", "stencil", "--ranks", "16"],
            "0010-ceda69e0-6bc5a6b8282b3bf4",
        ),
        (
            &["gen", "--workload", "master-worker", "--ranks", "4"],
            "0004-17bc8a13-99751868676ed0d8",
        ),
        (
            &["gen", "--workload", "master-worker", "--ranks", "16"],
            "0010-551f7433-5810f5eb7feb5dd8",
        ),
        (
            &["gen", "--workload", "solver", "--ranks", "4"],
            "0004-51d3c798-77c8090d9da42cfc",
        ),
        (
            &["gen", "--workload", "solver", "--ranks", "16"],
            "0010-b1ca4f4e-3ebe3f9e65cef2c5",
        ),
        (
            &["gen", "--workload", "pipeline", "--ranks", "4"],
            "0004-7095a4fd-33be35faaba34925",
        ),
        (
            &["gen", "--workload", "pipeline", "--ranks", "16"],
            "0010-d6ccfcac-5f7762dda21fdb5d",
        ),
        (
            &["gen", "--workload", "transpose", "--ranks", "4"],
            "0004-428a3654-1c0f209a76040f1a",
        ),
        (
            &["gen", "--workload", "transpose", "--ranks", "16"],
            "0010-e40f221c-4e5ced69ceac7b01",
        ),
        (
            &["demo", "summa", "--ranks", "8"],
            "0008-548b3296-4ba8a9ea43a692ed",
        ),
    ];
    let dir = tmp("gen-pins");
    let mut wrong = Vec::new();
    for (args, pinned) in pins {
        let _ = std::fs::remove_dir_all(&dir);
        let out = mpgtool().args(args).arg(&dir).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let key = mpg_trace::trace_fingerprint(&dir).unwrap().key();
        if key != pinned {
            wrong.push(format!("{args:?}: {key}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The simulator's other modes, run in process: eager sends, expanded
/// collectives, a noisy platform, and the calls no `gen` workload makes
/// (`waitsome`, `test`, `bsend`, `rsend`).
#[test]
fn simulator_mode_fingerprints_are_pinned() {
    use mpg_apps::{AllreduceSolver, Stencil, TokenRing, Workload};
    use mpg_noise::PlatformSignature;
    use mpg_sim::{CollectiveMode, SendMode, Simulation};

    let quiet = || PlatformSignature::quiet("pins");
    let stencil = Stencil {
        iters: 6,
        cells_per_rank: 500,
        work_per_cell: 40,
        halo_bytes: 1_024,
    };
    let eager = Simulation::new(6, quiet())
        .seed(3)
        .send_mode(SendMode::Eager { threshold: 512 })
        .run(|ctx| {
            stencil.run(ctx);
            let p = ctx.size();
            ctx.send((ctx.rank() + 1) % p, 9, 256);
            ctx.recv((ctx.rank() + p - 1) % p, 9);
        })
        .unwrap();
    let solver = AllreduceSolver {
        iters: 4,
        local_work: 50_000,
        vector_bytes: 256,
    };
    let expanded = Simulation::new(6, quiet())
        .seed(4)
        .collective_mode(CollectiveMode::Expanded)
        .run(|ctx| {
            solver.run(ctx);
            ctx.barrier();
            ctx.bcast(2, 64);
            ctx.reduce(1, 64);
            ctx.scatter(0, 32);
            ctx.gather(0, 32);
            ctx.allgather(16);
            ctx.alltoall(16);
        })
        .unwrap();
    let ring = TokenRing {
        traversals: 3,
        particles_per_rank: 8,
        work_per_pair: 25,
    };
    let noisy = Simulation::new(5, PlatformSignature::noisy("pins", 2.0))
        .seed(5)
        .run(|ctx| {
            ring.run(ctx);
            ctx.allreduce(64);
        })
        .unwrap();
    let primitives = Simulation::new(2, quiet())
        .seed(6)
        .run(|ctx| {
            if ctx.rank() == 0 {
                ctx.compute(1_000_000);
                ctx.rsend(1, 1, 64);
                ctx.bsend(1, 2, 64);
                ctx.compute(5_000_000);
                ctx.bsend(1, 3, 64);
            } else {
                let a = ctx.irecv(0, 1);
                let b = ctx.irecv(0, 2);
                let c = ctx.irecv(0, 3);
                assert!(ctx.test(c).is_none());
                let done = ctx.waitsome(&[a, b, c]);
                assert!(!done.is_empty() && !done.contains(&c));
                let rest: Vec<_> = [a, b].into_iter().filter(|r| !done.contains(r)).collect();
                ctx.waitall(&rest);
                while ctx.test(c).is_none() {
                    ctx.compute(400_000);
                }
            }
        })
        .unwrap();
    let keys = [
        (
            "eager",
            saved_key("pin-eager", eager),
            "0006-db5b3178-4025cde2131bcd80",
        ),
        (
            "expanded",
            saved_key("pin-expanded", expanded),
            "0006-d910f18c-2ed611061675ec7c",
        ),
        (
            "noisy",
            saved_key("pin-noisy", noisy),
            "0005-89bb6493-969fe2ddedeebc55",
        ),
        (
            "primitives",
            saved_key("pin-primitives", primitives),
            "0002-2eee91ef-c1060b358a6f8948",
        ),
    ];
    let wrong: Vec<String> = keys
        .iter()
        .filter(|(_, key, pinned)| key != pinned)
        .map(|(name, key, _)| format!("{name}: {key}"))
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
