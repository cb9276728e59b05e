//! Warm-path golden test: across all seven demo workloads, `mpgtool
//! replay`/`lint`/`explore`/`analyze` must produce **byte-identical stdout and the
//! same exit code** in four regimes — no cache, cold cache (populating),
//! warm cache (hitting), and a cache where every artifact has been
//! corrupted (falling back cold and republishing). The cache may only ever
//! change *where* the answer comes from, never the answer; all cache
//! chatter goes to stderr.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 7] = [
    "ring",
    "stencil",
    "master-worker",
    "solver",
    "pipeline",
    "transpose",
    "summa",
];

fn mpgtool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpgtool"))
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpgtool-cacheg-{tag}-{}", std::process::id()))
}

/// (stdout, stderr, exit code) of one mpgtool invocation.
fn run(args: &[&str]) -> (String, String, i32) {
    let out = mpgtool().args(args).output().expect("spawn mpgtool");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("mpgtool not killed by signal"),
    )
}

/// Flips one byte in the middle of every artifact in the cache directory.
fn corrupt_every_artifact(cache_dir: &Path) -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir(cache_dir).expect("cache dir readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "mpgc") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("artifact readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("artifact writable");
        n += 1;
    }
    n
}

#[test]
fn warm_runs_are_byte_identical_across_demo_workloads() {
    for wl in WORKLOADS {
        let trace = tmp(&format!("trace-{wl}"));
        let cache = tmp(&format!("cache-{wl}"));
        let _ = std::fs::remove_dir_all(&trace);
        let _ = std::fs::remove_dir_all(&cache);
        let (_, err, code) = run(&[
            "demo",
            wl,
            "--ranks",
            "8",
            "--seed",
            "3",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "demo {wl}: {err}");
        let trace = trace.to_str().unwrap().to_string();
        let cache_str = cache.to_str().unwrap().to_string();

        let commands: [Vec<&str>; 4] = [
            vec!["replay", &trace, "--os", "200", "--seed", "5"],
            vec!["lint", &trace],
            vec!["explore", &trace, "--budget", "16"],
            vec!["analyze", &trace],
        ];
        for base_args in &commands {
            let what = format!("{wl}/{}", base_args[0]);
            let mut cached_args = base_args.clone();
            cached_args.extend_from_slice(&["--cache", "--cache-dir", &cache_str]);

            let (base_out, _, base_code) = run(base_args);
            assert!(!base_out.is_empty(), "{what}: baseline produced no output");

            // Cold: populates, byte-identical, no warm-hit chatter.
            let (cold_out, cold_err, cold_code) = run(&cached_args);
            assert_eq!(cold_out, base_out, "{what}: cold stdout diverged");
            assert_eq!(cold_code, base_code, "{what}: cold exit diverged");
            assert!(
                !cold_err.contains("warm hit"),
                "{what}: cold run claimed a warm hit: {cold_err}"
            );

            // Warm: hits the memoized report, still byte-identical.
            let (warm_out, warm_err, warm_code) = run(&cached_args);
            assert_eq!(warm_out, base_out, "{what}: warm stdout diverged");
            assert_eq!(warm_code, base_code, "{what}: warm exit diverged");
            assert!(
                warm_err.contains("warm hit"),
                "{what}: warm run missed the cache: {warm_err}"
            );

            // Corrupt every artifact: the run must fall back cold — same
            // bytes, same exit — and repair the cache for the next round.
            assert!(corrupt_every_artifact(&cache) > 0, "{what}: nothing cached");
            let (fb_out, fb_err, fb_code) = run(&cached_args);
            assert_eq!(fb_out, base_out, "{what}: corrupt-fallback stdout diverged");
            assert_eq!(fb_code, base_code, "{what}: corrupt-fallback exit diverged");
            assert!(
                !fb_err.contains("warm hit"),
                "{what}: corrupt artifact served as a warm hit: {fb_err}"
            );
            let (re_out, re_err, re_code) = run(&cached_args);
            assert_eq!(re_out, base_out, "{what}: repaired-warm stdout diverged");
            assert_eq!(re_code, base_code, "{what}: repaired-warm exit diverged");
            assert!(
                re_err.contains("warm hit"),
                "{what}: fallback did not republish: {re_err}"
            );
        }

        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_dir_all(Path::new(&trace));
    }
}

/// Two ranks that each receive before they send: a head-to-head deadlock
/// whose lint and explore exit 1.
const DEADLOCK: &str = "ranks=2
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

/// A `serve` job and the `mpgtool` run with the same options key their
/// reports alike, for every job kind: whichever runs first warms the
/// other, the warm bytes are the cold solo run's, and a warm CLI run
/// exits with the cold run's code — 1 for a lint that finds an error.
#[test]
fn cli_and_service_jobs_share_reports() {
    let ring = tmp("shared-ring");
    let master_worker = tmp("shared-mw");
    let deadlock = tmp("shared-deadlock");
    let deadlock_text = tmp("shared-deadlock.txt");
    for dir in [&ring, &master_worker, &deadlock] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (ring, master_worker, deadlock) = (
        ring.to_str().unwrap(),
        master_worker.to_str().unwrap(),
        deadlock.to_str().unwrap(),
    );
    let (_, err, code) = run(&["demo", "ring", "--ranks", "4", "--seed", "2", ring]);
    assert_eq!(code, 0, "demo: {err}");
    let (_, err, code) = run(&["demo", "master-worker", "--ranks", "4", master_worker]);
    assert_eq!(code, 0, "demo: {err}");
    std::fs::write(&deadlock_text, DEADLOCK).unwrap();
    let (_, err, code) = run(&["import", deadlock_text.to_str().unwrap(), deadlock]);
    assert_eq!(code, 0, "import: {err}");
    // (submit line, CLI twin, the cold run's exit code)
    let mut cases: Vec<(String, Vec<&str>, i32)> = vec![(
        format!("replay {ring} os=200 seed=5"),
        vec!["replay", ring, "--os", "200", "--seed", "5"],
        0,
    )];
    for (trace, code) in [(master_worker, 0), (deadlock, 1)] {
        cases.push((format!("lint {trace}"), vec!["lint", trace], code));
        cases.push((
            format!("explore {trace} budget=8 seed=2"),
            vec!["explore", trace, "--budget", "8", "--seed", "2"],
            code,
        ));
    }
    for (i, (submit, cli_args, cold_code)) in cases.iter().enumerate() {
        let (cold, err, code) = run(cli_args);
        assert_eq!(code, *cold_code, "{submit}: {err}");
        for cli_first in [true, false] {
            let cache = tmp(&format!("shared-cache-{i}-{cli_first}"));
            let result = tmp(&format!("shared-result-{i}-{cli_first}"));
            let script = tmp(&format!("shared-script-{i}-{cli_first}"));
            let _ = std::fs::remove_dir_all(&cache);
            std::fs::write(
                &script,
                format!(
                    "submit {submit}\nwait job-1\nresult job-1 out={}\nstats\nshutdown\n",
                    result.display()
                ),
            )
            .unwrap();
            let cache = cache.to_str().unwrap();
            let serve = || {
                let (out, err, code) = run(&[
                    "serve",
                    "--script",
                    script.to_str().unwrap(),
                    "--workers",
                    "1",
                    "--cache-dir",
                    cache,
                ]);
                assert_eq!(code, 0, "serve: {err}");
                assert!(out.contains("ok job-1 done"), "{submit}: {out}");
                (out, std::fs::read_to_string(&result).unwrap())
            };
            let cli = || {
                let mut args = cli_args.clone();
                args.extend(["--cache-dir", cache]);
                run(&args)
            };
            if cli_first {
                let (out, err, code) = cli();
                assert_eq!((out.as_str(), code), (cold.as_str(), *cold_code), "{err}");
                assert!(!err.contains("warm hit"), "{err}");
                let (stats, job) = serve();
                assert!(stats.contains(" cache-hits=1 "), "{submit}: {stats}");
                assert_eq!(job, cold, "{submit}");
            } else {
                let (stats, job) = serve();
                assert!(stats.contains(" cache-hits=0 "), "{submit}: {stats}");
                assert_eq!(job, cold, "{submit}");
                let (warm, err, code) = cli();
                let verb = cli_args[0];
                assert!(err.contains(&format!("warm hit ({verb} report)")), "{err}");
                assert_eq!(
                    (warm.as_str(), code),
                    (cold.as_str(), *cold_code),
                    "{submit}"
                );
            }
            let _ = std::fs::remove_dir_all(cache);
            let _ = std::fs::remove_file(&result);
            let _ = std::fs::remove_file(&script);
        }
    }
    for dir in [ring, master_worker, deadlock] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_file(&deadlock_text);
}

/// The one `arena-*` artifact in a cache directory.
fn arena_artifact(cache_dir: &Path) -> PathBuf {
    let mut arenas = std::fs::read_dir(cache_dir)
        .expect("cache dir readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("arena-"))
        });
    let path = arenas.next().expect("an arena artifact");
    assert!(arenas.next().is_none(), "more than one arena artifact");
    path
}

/// A well-formed arena artifact of *another* trace, planted under this
/// trace's key (the key is only a fingerprint; the directory is
/// untrusted): the warm path sees the layout differ from the trace's, so
/// it re-records — output byte-identical to a cold run — and republishes.
#[test]
fn planted_arena_of_another_trace_is_a_miss() {
    let dirs: Vec<PathBuf> = ["ring", "stencil"]
        .iter()
        .map(|wl| tmp(&format!("planted-{wl}")))
        .collect();
    let caches: Vec<PathBuf> = ["ring", "stencil"]
        .iter()
        .map(|wl| tmp(&format!("planted-cache-{wl}")))
        .collect();
    for (wl, (dir, cache)) in ["ring", "stencil"].iter().zip(dirs.iter().zip(&caches)) {
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(cache);
        let (_, err, code) = run(&[
            "demo",
            wl,
            "--ranks",
            "8",
            "--seed",
            "3",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "demo {wl}: {err}");
        let (_, err, code) = run(&[
            "analyze",
            dir.to_str().unwrap(),
            "--cache",
            "--cache-dir",
            cache.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "cold analyze {wl}: {err}");
    }
    let (ring, cache) = (dirs[0].to_str().unwrap(), caches[0].to_str().unwrap());
    let (cold, _, code) = run(&["analyze", ring]);
    assert_eq!(code, 0);

    // Drop the memoized report so the run reads the arena, and put the
    // stencil's arena under the ring's key.
    for entry in std::fs::read_dir(&caches[0]).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("report-")
        {
            std::fs::remove_file(path).unwrap();
        }
    }
    let ring_arena = arena_artifact(&caches[0]);
    let planted = std::fs::read(arena_artifact(&caches[1])).unwrap();
    assert_ne!(std::fs::read(&ring_arena).unwrap(), planted);
    std::fs::write(&ring_arena, &planted).unwrap();

    let (out, err, code) = run(&["analyze", ring, "--cache", "--cache-dir", cache]);
    assert_eq!((out.as_str(), code), (cold.as_str(), 0), "{err}");
    assert_ne!(
        std::fs::read(&ring_arena).unwrap(),
        planted,
        "the re-recorded arena was not republished"
    );
    for dir in dirs.iter().chain(&caches) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn cache_subcommand_ls_gc_clear() {
    let trace = tmp("trace-cachecmd");
    let cache = tmp("cache-cachecmd");
    let _ = std::fs::remove_dir_all(&trace);
    let _ = std::fs::remove_dir_all(&cache);
    let (_, _, code) = run(&[
        "demo",
        "ring",
        "--ranks",
        "4",
        "--seed",
        "1",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    let trace = trace.to_str().unwrap().to_string();
    let cache_str = cache.to_str().unwrap().to_string();

    let (_, _, code) = run(&["analyze", &trace, "--cache", "--cache-dir", &cache_str]);
    assert_eq!(code, 0);

    let (ls_out, _, code) = run(&["cache", "ls", "--cache-dir", &cache_str]);
    assert_eq!(code, 0);
    assert!(ls_out.contains("report-"), "{ls_out}");
    assert!(ls_out.contains("arena-"), "{ls_out}");

    // gc to zero prunes everything; clear on an empty cache is a no-op.
    let (gc_out, _, code) = run(&["cache", "gc", "--cache-dir", &cache_str, "--max-mib", "0"]);
    assert_eq!(code, 0);
    assert!(gc_out.contains("gc removed"), "{gc_out}");
    let (ls_out, _, _) = run(&["cache", "ls", "--cache-dir", &cache_str]);
    assert!(ls_out.contains("(0 entries)"), "{ls_out}");
    let (clear_out, _, code) = run(&["cache", "clear", "--cache-dir", &cache_str]);
    assert_eq!(code, 0);
    assert!(clear_out.contains("cleared 0"), "{clear_out}");

    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(Path::new(&trace));
}
