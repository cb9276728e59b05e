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

    // Replay refuses the trace when gated.
    let out = mpgtool()
        .args(["replay", "--lint"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rejected by lint gate"), "{stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
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
