//! Integration tests for the supervised job runtime: admission control,
//! deadlines, panic quarantine + respawn, transient-failure retries, warm
//! cache interop, resident traces, the line protocol, and the chaos
//! invariant checker.

use std::path::{Path, PathBuf};
use std::time::Duration;

use mpg_apps::{MasterWorker, Stencil, TokenRing, Workload};
use mpg_core::{ArtifactKind, CacheStore, Replayer};
use mpg_noise::PlatformSignature;
use mpg_serve::{
    render_explore_report, render_lint_report, render_replay_report, replay_config, serve_script,
    ChaosOp, ChaosPlan, JobId, JobKind, JobRuntime, JobSpec, JobState, RetryPolicy, RuntimeConfig,
    ServeError,
};
use mpg_sim::Simulation;
use mpg_trace::{FileTraceSet, MemTrace};

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mpg-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// A small token ring on four ranks.
fn ring_trace(traversals: u32) -> MemTrace {
    let ring = TokenRing {
        traversals,
        particles_per_rank: 8,
        work_per_pair: 25,
    };
    Simulation::new(4, PlatformSignature::quiet("svc"))
        .seed(17)
        .run(|ctx| ring.run(ctx))
        .unwrap()
        .trace
}

/// Simulates a small token ring and writes its trace to a fresh dir.
fn ring_trace_dir(tag: &str) -> PathBuf {
    let dir = unique_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    ring_trace(3).save(&dir).unwrap();
    dir
}

/// A bigger stencil trace: enough events that a token fired after one
/// check interval cuts the replay short mid-flight.
fn stencil_trace_dir(tag: &str) -> PathBuf {
    let stencil = Stencil {
        iters: 24,
        cells_per_rank: 400,
        work_per_cell: 20,
        halo_bytes: 256,
    };
    let out = Simulation::new(4, PlatformSignature::quiet("svc"))
        .seed(23)
        .run(|ctx| stencil.run(ctx))
        .unwrap();
    let dir = unique_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    out.trace.save(&dir).unwrap();
    dir
}

/// A master-worker trace on four ranks: wildcard receives, so the
/// explorer has schedules to walk.
fn master_worker_dir(tag: &str) -> PathBuf {
    let mw = MasterWorker {
        tasks: 12,
        task_work: 400,
        task_bytes: 64,
        result_bytes: 32,
    };
    let dir = unique_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    Simulation::new(4, PlatformSignature::quiet("svc"))
        .seed(3)
        .run(|ctx| mw.run(ctx))
        .unwrap()
        .trace
        .save(&dir)
        .unwrap();
    dir
}

fn replay_spec(dir: &Path) -> JobSpec {
    replay_spec_seeded(dir, 9)
}

fn replay_spec_seeded(dir: &Path, seed: u64) -> JobSpec {
    JobSpec::new(JobKind::Replay {
        dir: dir.to_path_buf(),
        os_mean: 300.0,
        latency: 120.0,
        per_byte: 0.5,
        seed,
    })
}

fn load(dir: &Path) -> MemTrace {
    FileTraceSet::open(dir).unwrap().load().unwrap()
}

/// The solo-CLI rendering of the same replay, computed through the shared
/// render path — the byte-identity oracle.
fn solo_output(dir: &Path) -> String {
    solo_replay(dir, 9)
}

fn solo_replay(dir: &Path, seed: u64) -> String {
    let trace = load(dir);
    let cfg = replay_config(300.0, 120.0, 0.5, seed);
    let report = Replayer::new(cfg).run(&trace).unwrap();
    render_replay_report(&report)
}

/// `mpgtool lint <dir>` through the shared render path.
fn solo_lint(dir: &Path) -> String {
    let trace = load(dir);
    let mut diags = mpg_lint::lint_full(&trace);
    mpg_trace::sort_diagnostics(&mut diags);
    render_lint_report(&diags, false, trace.total_events(), trace.num_ranks())
}

/// `mpgtool explore <dir> --budget B --seed S` through the shared render
/// path.
fn solo_explore(dir: &Path, budget: u64, seed: u64) -> String {
    let trace = load(dir);
    let opts = mpg_lint::ExploreOptions {
        seed,
        ..mpg_lint::ExploreOptions::cli_default().budget(budget)
    };
    let mut out = mpg_lint::lint_explore(&trace, &opts, None);
    mpg_trace::sort_diagnostics(&mut out.diags);
    render_explore_report(
        &out.diags,
        &out.stats,
        false,
        trace.total_events(),
        trace.num_ranks(),
    )
}

/// What the runtime reported for an unreadable trace before it kept any
/// trace resident: the error of a direct open + load.
fn direct_error(dir: &Path) -> String {
    FileTraceSet::open(dir)
        .and_then(|set| set.load())
        .unwrap_err()
        .to_string()
}

fn wait_done(rt: &JobRuntime, id: JobId) -> mpg_serve::JobStatus {
    let st = rt.wait(id, Duration::from_secs(30)).unwrap();
    assert!(st.state.is_terminal(), "{id} wedged in {}", st.state);
    st
}

#[test]
fn bounded_queue_sheds_load_with_typed_error() {
    let dir = ring_trace_dir("overload");
    let chaos = ChaosPlan::none()
        .pin(1, ChaosOp::Delay(Duration::from_millis(400)))
        .pin(2, ChaosOp::Delay(Duration::from_millis(400)));
    let rt = JobRuntime::start(RuntimeConfig {
        workers: 1,
        queue_depth: 1,
        chaos,
        ..RuntimeConfig::default()
    });
    let first = rt.submit(replay_spec(&dir)).unwrap();
    // Wait for the worker to pick job 1 up so the queue is empty again.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.status(first).unwrap().state == JobState::Queued {
        assert!(std::time::Instant::now() < deadline, "worker never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    let second = rt.submit(replay_spec(&dir)).unwrap();
    // Worker is stalled in job 1's chaos delay; job 2 fills the queue.
    let third = rt.submit(replay_spec(&dir));
    assert_eq!(third.unwrap_err(), ServeError::Overloaded { depth: 1 });
    assert_eq!(wait_done(&rt, first).state, JobState::Done);
    assert_eq!(wait_done(&rt, second).state, JobState::Done);
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deadline_cuts_job_short_with_partial_output() {
    let dir = ring_trace_dir("deadline");
    let chaos = ChaosPlan::none().pin(1, ChaosOp::Delay(Duration::from_millis(300)));
    let rt = JobRuntime::start(RuntimeConfig {
        chaos,
        ..RuntimeConfig::default()
    });
    let id = rt
        .submit(replay_spec(&dir).deadline(Duration::from_millis(40)))
        .unwrap();
    let st = wait_done(&rt, id);
    assert_eq!(st.state, JobState::DeadlineExceeded);
    assert!(st.output.is_some(), "cut-short jobs carry partial output");
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explicit_cancel_of_queued_job_is_immediate() {
    let dir = ring_trace_dir("cancel-queued");
    let chaos = ChaosPlan::none().pin(1, ChaosOp::Delay(Duration::from_millis(300)));
    let rt = JobRuntime::start(RuntimeConfig {
        workers: 1,
        chaos,
        ..RuntimeConfig::default()
    });
    let first = rt.submit(replay_spec(&dir)).unwrap();
    let second = rt.submit(replay_spec(&dir)).unwrap();
    rt.cancel(second).unwrap();
    let st = rt.status(second).unwrap();
    assert_eq!(st.state, JobState::Cancelled);
    assert_eq!(wait_done(&rt, first).state, JobState::Done);
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_replay_cancellation_yields_partial_frontier_report() {
    let dir = stencil_trace_dir("cancel-running");
    // PanicAtCheck arms `fire_after_checks` — reuse the arming without the
    // panic by pinning a plain explicit cancel instead: submit, wait for
    // Running, cancel, and expect a partial report.
    let chaos = ChaosPlan::none().pin(1, ChaosOp::Delay(Duration::from_millis(60)));
    let rt = JobRuntime::start(RuntimeConfig {
        chaos,
        ..RuntimeConfig::default()
    });
    let id = rt.submit(replay_spec(&dir)).unwrap();
    // Cancel only once the worker has the job (the chaos delay holds it
    // there), so this exercises the running-job path, not the queued one.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.status(id).unwrap().state == JobState::Queued {
        assert!(std::time::Instant::now() < deadline, "worker never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    rt.cancel(id).unwrap();
    let st = wait_done(&rt, id);
    assert_eq!(st.state, JobState::Cancelled);
    let out = st.output.expect("partial output");
    // Either the pre-execution check caught it (empty) or the engine cut
    // mid-replay and rendered the degradation frontier.
    if !out.is_empty() {
        assert!(
            out.contains("partial replay"),
            "partial render should mention the degradation summary:\n{out}"
        );
    }
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn panicking_job_is_quarantined_and_worker_respawns() {
    let dir = ring_trace_dir("panic");
    let chaos = ChaosPlan::none().pin(1, ChaosOp::PanicOnOpen);
    let rt = JobRuntime::start(RuntimeConfig {
        workers: 2,
        chaos,
        ..RuntimeConfig::default()
    });
    let bad = rt.submit(replay_spec(&dir)).unwrap();
    let good = rt.submit(replay_spec(&dir)).unwrap();
    let st = wait_done(&rt, bad);
    assert_eq!(st.state, JobState::Crashed);
    assert!(st.error.unwrap().contains("chaos: injected panic"));
    let good_st = wait_done(&rt, good);
    assert_eq!(good_st.state, JobState::Done);
    assert_eq!(good_st.output.unwrap(), solo_output(&dir));
    let q = rt.quarantine();
    assert_eq!(q.len(), 1);
    assert_eq!(q[0].0, bad);
    rt.supervise();
    assert_eq!(rt.live_workers(), 2, "pool healed after the crash");
    assert!(rt.stats().respawns >= 1);
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn panic_mid_engine_is_also_contained() {
    let dir = stencil_trace_dir("panic-mid");
    let chaos = ChaosPlan::none().pin(1, ChaosOp::PanicAtCheck(1));
    let rt = JobRuntime::start(RuntimeConfig {
        chaos,
        ..RuntimeConfig::default()
    });
    let id = rt.submit(replay_spec(&dir)).unwrap();
    let st = wait_done(&rt, id);
    assert_eq!(st.state, JobState::Crashed);
    assert!(st.error.unwrap().contains("chaos: injected panic after"));
    assert_eq!(rt.quarantine().len(), 1);
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn transient_io_errors_are_retried_to_success() {
    let dir = ring_trace_dir("retry");
    let chaos = ChaosPlan::none().pin(1, ChaosOp::IoError { failures: 1 });
    let rt = JobRuntime::start(RuntimeConfig {
        retry: RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            seed: 5,
        },
        chaos,
        ..RuntimeConfig::default()
    });
    let id = rt.submit(replay_spec(&dir)).unwrap();
    let st = wait_done(&rt, id);
    assert_eq!(st.state, JobState::Done);
    assert_eq!(st.attempts, 2, "one injected failure, one real attempt");
    assert_eq!(st.output.unwrap(), solo_output(&dir));
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retries_exhaust_into_typed_failure() {
    let dir = ring_trace_dir("retry-exhaust");
    let chaos = ChaosPlan::none().pin(1, ChaosOp::IoError { failures: 10 });
    let rt = JobRuntime::start(RuntimeConfig {
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            seed: 5,
        },
        chaos,
        ..RuntimeConfig::default()
    });
    let id = rt.submit(replay_spec(&dir)).unwrap();
    let st = wait_done(&rt, id);
    assert_eq!(st.state, JobState::Failed);
    assert_eq!(st.attempts, 2);
    assert!(st.error.unwrap().contains("transient I/O error"));
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_warms_across_jobs_and_corruption_is_a_silent_miss() {
    let dir = ring_trace_dir("cache");
    let cache_dir = unique_dir("cache-store");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let store = CacheStore::open(&cache_dir).unwrap();
    let oracle = solo_output(&dir);

    // Cold run publishes; warm run hits.
    let rt = JobRuntime::start(RuntimeConfig {
        cache: Some(store.clone()),
        ..RuntimeConfig::default()
    });
    let cold = rt.submit(replay_spec(&dir)).unwrap();
    assert_eq!(wait_done(&rt, cold).output.unwrap(), oracle);
    let warm = rt.submit(replay_spec(&dir)).unwrap();
    assert_eq!(wait_done(&rt, warm).output.unwrap(), oracle);
    assert_eq!(rt.stats().cache_hits, 1);
    rt.shutdown(Duration::from_secs(10));

    // Corrupted artifacts must degrade to a silent miss, not wrong bytes.
    let chaos = ChaosPlan::none().pin(1, ChaosOp::CorruptArtifact);
    let rt = JobRuntime::start(RuntimeConfig {
        cache: Some(store),
        chaos,
        ..RuntimeConfig::default()
    });
    let id = rt.submit(replay_spec(&dir)).unwrap();
    let st = wait_done(&rt, id);
    assert_eq!(st.state, JobState::Done);
    assert_eq!(st.output.unwrap(), oracle);
    assert_eq!(rt.stats().cache_hits, 0, "corrupt artifact must not hit");
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&cache_dir).unwrap();
}

/// Every artifact in `store` reads back whole: each one a job found
/// damaged was a miss, and the job published it again.
fn all_artifacts_valid(store: &CacheStore) -> bool {
    store.ls().iter().all(|e| {
        let kind = match e.key.split('-').next() {
            Some("report") => ArtifactKind::Report,
            Some("arena") => ArtifactKind::Arena,
            _ => ArtifactKind::HbClocks,
        };
        store.get(&e.key, kind).is_some()
    })
}

/// Flips the last byte of every artifact whose kind is in `kinds`.
fn damage(store: &CacheStore, kinds: &[&str]) {
    for e in store.ls() {
        if kinds.iter().any(|k| e.key.starts_with(&format!("{k}-"))) {
            let path = store.root().join(format!("{}.mpgc", e.key));
            let mut bytes = std::fs::read(&path).unwrap();
            *bytes.last_mut().unwrap() ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
        }
    }
}

/// Chaos `corrupt-artifact` over lint and explore jobs, and the same
/// damage dealt to one kind of artifact at a time: a damaged report,
/// arena or clock blob is each a silent miss. The job prints the solo
/// run's bytes, publishes what it found damaged again, and the
/// invariants stay clean.
#[test]
fn corrupt_lint_and_explore_artifacts_are_silent_misses() {
    let dir = master_worker_dir("corrupt-lint");
    let cache_dir = unique_dir("corrupt-lint-store");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let store = CacheStore::open(&cache_dir).unwrap();
    let lint = || JobSpec::new(JobKind::Lint { dir: dir.clone() });
    let explore = || {
        JobSpec::new(JobKind::Explore {
            dir: dir.clone(),
            budget: 8,
            seed: 2,
        })
    };
    let (lint_oracle, explore_oracle) = (solo_lint(&dir), solo_explore(&dir, 8, 2));
    let chaos = ChaosPlan::none()
        .pin(2, ChaosOp::CorruptArtifact)
        .pin(4, ChaosOp::CorruptArtifact);
    let rt = JobRuntime::start(RuntimeConfig {
        workers: 1,
        cache: Some(store.clone()),
        chaos,
        ..RuntimeConfig::default()
    });
    let run = |spec: JobSpec, oracle: &str| {
        let id = rt.submit(spec).unwrap();
        let st = wait_done(&rt, id);
        assert_eq!(st.state, JobState::Done, "{id}: {:?}", st.error);
        assert_eq!(st.output.unwrap(), oracle, "{id}");
    };
    // Job 1 publishes the lint report, the arena and the clocks; job 2
    // finds all three damaged. Job 3 adds the explore report; job 4 finds
    // all four damaged, and job 5 the lint report job 4 left so.
    run(lint(), &lint_oracle);
    assert_eq!(store.ls().len(), 3);
    run(lint(), &lint_oracle);
    run(explore(), &explore_oracle);
    run(explore(), &explore_oracle);
    run(lint(), &lint_oracle);
    assert_eq!(rt.stats().cache_hits, 0, "a damaged report hit");
    assert_eq!(store.ls().len(), 4);
    assert!(all_artifacts_valid(&store));
    // A report alone, then with the arena, then with the clocks: a job
    // reaches the arena and the clocks only when its report misses.
    for kinds in [&["report"][..], &["report", "arena"], &["report", "hb"]] {
        damage(&store, kinds);
        run(lint(), &lint_oracle);
        run(explore(), &explore_oracle);
        assert_eq!(rt.stats().cache_hits, 0, "damaged {kinds:?} hit");
        assert!(all_artifacts_valid(&store), "damaged {kinds:?}");
    }
    run(lint(), &lint_oracle);
    assert_eq!(rt.stats().cache_hits, 1, "the republished report hits");
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&cache_dir).unwrap();
}

/// A master-worker trace on eight ranks with 600 tasks: a lint long
/// enough that a second worker arrives while it runs.
fn busy_master_worker_dir(tag: &str) -> PathBuf {
    let mw = MasterWorker {
        tasks: 600,
        task_work: 400,
        task_bytes: 64,
        result_bytes: 32,
    };
    let dir = unique_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    Simulation::new(8, PlatformSignature::quiet("svc"))
        .seed(3)
        .run(|ctx| mw.run(ctx))
        .unwrap()
        .trace
        .save(&dir)
        .unwrap();
    dir
}

/// Two workers take lint jobs of one trace together: the second waits for
/// the first's report instead of running the same lint beside it, so four
/// such jobs on a fresh store run the lint once and hit three times.
#[test]
fn report_misses_of_one_key_run_once() {
    let dir = busy_master_worker_dir("single-flight");
    let cache_dir = unique_dir("single-flight-store");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let rt = JobRuntime::start(RuntimeConfig {
        workers: 2,
        cache: Some(CacheStore::open(&cache_dir).unwrap()),
        ..RuntimeConfig::default()
    });
    let ids: Vec<JobId> = (0..4)
        .map(|_| {
            rt.submit(JobSpec::new(JobKind::Lint { dir: dir.clone() }))
                .unwrap()
        })
        .collect();
    let oracle = solo_lint(&dir);
    for id in ids {
        let st = wait_done(&rt, id);
        assert_eq!(st.state, JobState::Done, "{id}: {:?}", st.error);
        assert_eq!(st.output.unwrap(), oracle, "{id}");
    }
    assert_eq!(rt.stats().cache_hits, 3, "two workers both ran the lint");
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&cache_dir).unwrap();
}

/// A job whose deadline passes while it waits for another worker's run of
/// the same report key stops waiting and ends `DeadlineExceeded`; the run
/// it waited on is still going.
#[test]
fn deadline_fires_while_waiting_for_a_report_turn() {
    let dir = busy_master_worker_dir("turn-deadline");
    let cache_dir = unique_dir("turn-deadline-store");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let rt = JobRuntime::start(RuntimeConfig {
        workers: 2,
        cache: Some(CacheStore::open(&cache_dir).unwrap()),
        ..RuntimeConfig::default()
    });
    let explore = || {
        JobSpec::new(JobKind::Explore {
            dir: dir.clone(),
            budget: 1_000_000,
            seed: 2,
        })
    };
    let long = rt.submit(explore()).unwrap();
    // Held turns show up as a violation while `long` runs.
    let start = std::time::Instant::now();
    while rt.invariant_violations().is_empty() {
        assert!(start.elapsed() < Duration::from_secs(5), "no turn taken");
        std::thread::sleep(Duration::from_millis(1));
    }
    let short = rt
        .submit(explore().deadline(Duration::from_millis(100)))
        .unwrap();
    assert_eq!(wait_done(&rt, short).state, JobState::DeadlineExceeded);
    assert_eq!(rt.status(long).unwrap().state, JobState::Running);
    rt.cancel(long).unwrap();
    assert_eq!(wait_done(&rt, long).state, JobState::Cancelled);
    assert_eq!(rt.stats().cache_hits, 0);
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&cache_dir).unwrap();
}

#[test]
fn lint_jobs_run_and_render_through_the_shared_path() {
    let dir = ring_trace_dir("lint");
    let rt = JobRuntime::start(RuntimeConfig::default());
    let id = rt
        .submit(JobSpec::new(JobKind::Lint { dir: dir.clone() }))
        .unwrap();
    let st = wait_done(&rt, id);
    assert_eq!(st.state, JobState::Done);
    assert!(st.output.unwrap().contains("lint:"));
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn line_protocol_round_trip() {
    let dir = ring_trace_dir("proto");
    let rt = JobRuntime::start(RuntimeConfig::default());
    let script = format!(
        "# chaos-free smoke\n\
         submit replay {d} os=300 latency=120 per-byte=0.5 seed=9\n\
         submit lint {d}\n\
         wait job-1\n\
         wait 2\n\
         status job-1\n\
         result job-1\n\
         stats\n\
         quarantine\n\
         check\n\
         submit bogus {d}\n\
         cancel job-99\n\
         shutdown\n",
        d = dir.display()
    );
    let mut out = Vec::new();
    serve_script(script.as_bytes(), &mut out, &rt).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "ok job-1 queued");
    assert_eq!(lines[1], "ok job-2 queued");
    assert_eq!(lines[2], "ok job-1 done attempts=1");
    assert_eq!(lines[3], "ok job-2 done attempts=1");
    assert_eq!(lines[4], "ok job-1 done attempts=1");
    // result block: status line, raw body, then `end job-1`.
    assert_eq!(lines[5], "ok job-1 done attempts=1");
    let end = lines.iter().position(|l| *l == "end job-1").unwrap();
    let body = lines[6..end].join("\n");
    assert_eq!(body, solo_output(&dir).trim_end_matches('\n'));
    assert!(text.contains("ok stats submitted=2 done=2"));
    assert!(text.contains("ok quarantine 0"));
    assert!(text.contains("ok check clean"));
    assert!(text.contains("err unknown job kind 'bogus'"));
    assert!(text.contains("err unknown job job-99"));
    assert!(text.contains("ok shutdown drained=true"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeded_chaos_storm_upholds_every_invariant() {
    let dir = ring_trace_dir("storm");
    let oracle = solo_output(&dir);
    let chaos = ChaosPlan::seeded(42, &["panic", "delay", "io-error"]).unwrap();
    let rt = JobRuntime::start(RuntimeConfig {
        workers: 3,
        queue_depth: 64,
        retry: RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            seed: 42,
        },
        chaos: chaos.clone(),
        ..RuntimeConfig::default()
    });
    let ids: Vec<JobId> = (0..24)
        .map(|_| rt.submit(replay_spec(&dir)).unwrap())
        .collect();
    assert!(rt.drain(Duration::from_secs(60)), "chaos run wedged");
    let violations = rt.invariant_violations();
    assert!(violations.is_empty(), "invariants broken: {violations:?}");
    let mut crashed = 0;
    for id in ids {
        let st = rt.status(id).unwrap();
        match st.state {
            JobState::Done => {
                // Unfaulted controls and retry-recovered jobs must be
                // byte-identical to the solo CLI run.
                assert_eq!(st.output.unwrap(), oracle, "{id} diverged from solo run");
            }
            JobState::Crashed => crashed += 1,
            JobState::Cancelled | JobState::DeadlineExceeded => {
                assert!(st.output.is_some());
            }
            JobState::Failed => panic!("{id} failed: {:?}", st.error),
            s => panic!("{id} non-terminal after drain: {s}"),
        }
    }
    assert_eq!(rt.quarantine().len(), crashed);
    // Replayability: the same seed assigns the same operators.
    let replay_plan = ChaosPlan::seeded(42, &["panic", "delay", "io-error"]).unwrap();
    for job in 1..=24u64 {
        assert_eq!(chaos.op_for(job), replay_plan.op_for(job));
    }
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_rejects_new_work() {
    let dir = ring_trace_dir("shutdown");
    let rt = JobRuntime::start(RuntimeConfig::default());
    let id = rt.submit(replay_spec(&dir)).unwrap();
    wait_done(&rt, id);
    rt.shutdown(Duration::from_secs(10));
    assert_eq!(
        rt.submit(replay_spec(&dir)).unwrap_err(),
        ServeError::ShuttingDown
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_regenerated_in_place_is_decoded_again() {
    let dir = ring_trace_dir("regen");
    let rt = JobRuntime::start(RuntimeConfig::default());
    let old = solo_output(&dir);
    let first = rt.submit(replay_spec(&dir)).unwrap();
    assert_eq!(wait_done(&rt, first).output.unwrap(), old);
    assert_eq!(rt.stats().trace_loads, 1);

    ring_trace(5).save(&dir).unwrap();
    let new = solo_output(&dir);
    assert_ne!(old, new);
    let second = rt.submit(replay_spec(&dir)).unwrap();
    assert_eq!(wait_done(&rt, second).output.unwrap(), new);
    let stats = rt.stats();
    assert_eq!((stats.trace_loads, stats.trace_hits), (2, 0));
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damaged_trace_fails_as_a_direct_load_does_and_is_not_retained() {
    let dir = ring_trace_dir("damage");
    let oracle = solo_output(&dir);
    let rt = JobRuntime::start(RuntimeConfig {
        retry: RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            seed: 1,
        },
        ..RuntimeConfig::default()
    });
    let good = rt.submit(replay_spec(&dir)).unwrap();
    assert_eq!(wait_done(&rt, good).output.unwrap(), oracle);
    let healthy = rt.stats();
    assert_eq!((healthy.trace_loads, healthy.trace_hits), (1, 0));

    let rank2 = dir.join("rank-2.mpg");
    let sealed = std::fs::read(&rank2).unwrap();
    // (what is wrong with the directory, attempts the job is given)
    let damage: [(&dyn Fn(), u32); 3] = [
        // Unsealed: the footer is cut off. Structural, so no retry.
        (
            &|| std::fs::write(&rank2, &sealed[..sealed.len() - 5]).unwrap(),
            1,
        ),
        (&|| std::fs::remove_file(&rank2).unwrap(), 1),
        // A vanished directory is the transient class: retried to the end.
        (&|| std::fs::remove_dir_all(&dir).unwrap(), 3),
    ];
    for (apply, attempts) in damage {
        apply();
        let expected = direct_error(&dir);
        let id = rt.submit(replay_spec(&dir)).unwrap();
        let st = wait_done(&rt, id);
        assert_eq!(st.state, JobState::Failed);
        assert_eq!(st.error.unwrap(), expected);
        assert_eq!(st.attempts, attempts, "{expected}");
        let stats = rt.stats();
        assert_eq!(
            (stats.trace_loads, stats.trace_hits, stats.resident_bytes),
            (1, 0, healthy.resident_bytes),
            "{expected}"
        );
    }

    ring_trace(3).save(&dir).unwrap();
    let repaired = rt.submit(replay_spec(&dir)).unwrap();
    let st = wait_done(&rt, repaired);
    assert_eq!(st.state, JobState::Done, "{:?}", st.error);
    assert_eq!(st.output.unwrap(), oracle);
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The benchmark's `serve-small-jobs` shape: four traces, 150 jobs each
/// (nine replays of distinct seed to one lint), four jobs outstanding, a
/// fresh store. Returns the runtime's counters after the last job.
fn small_jobs_pass(workers: usize, tag: &str) -> mpg_serve::RuntimeStats {
    let dirs: Vec<PathBuf> = (0..4)
        .map(|i| {
            let dir = unique_dir(&format!("{tag}-trace-{i}"));
            let _ = std::fs::remove_dir_all(&dir);
            ring_trace(2 + i).save(&dir).unwrap();
            dir
        })
        .collect();
    let cache_dir = unique_dir(&format!("{tag}-store"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let rt = JobRuntime::start(RuntimeConfig {
        workers,
        queue_depth: 64,
        cache: Some(CacheStore::open(&cache_dir).unwrap()),
        ..RuntimeConfig::default()
    });
    let mut in_flight = std::collections::VecDeque::new();
    for job in 0..600u64 {
        if in_flight.len() == 4 {
            assert_eq!(
                wait_done(&rt, in_flight.pop_front().unwrap()).state,
                JobState::Done
            );
        }
        let dir = &dirs[job as usize % 4];
        let spec = if job % 10 == 9 {
            JobSpec::new(JobKind::Lint { dir: dir.clone() })
        } else {
            replay_spec_seeded(dir, job)
        };
        in_flight.push_back(rt.submit(spec).unwrap());
    }
    for id in in_flight {
        assert_eq!(wait_done(&rt, id).state, JobState::Done);
    }
    let stats = rt.stats();
    assert!(rt.invariant_violations().is_empty());
    rt.shutdown(Duration::from_secs(10));
    for dir in dirs.iter().chain([&cache_dir]) {
        std::fs::remove_dir_all(dir).unwrap();
    }
    stats
}

#[test]
fn a_pass_of_small_jobs_decodes_each_trace_once() {
    let one = small_jobs_pass(1, "pass-w1");
    // The 60 lints fall on traces 1 and 3, 30 each; only the first of
    // each misses. Same-trace lints are 20 jobs apart and at most four
    // are outstanding, so each earlier one has published by then. Every
    // replay has its own seed and misses.
    assert_eq!(one.cache_hits, 58);
    assert_eq!((one.trace_loads, one.trace_hits), (4, 538));

    // Two workers that miss a trace neither has seen take turns: the
    // second waits for the first's decode and is served its copy.
    assert_eq!(small_jobs_pass(2, "pass-w2"), one);
}

/// Runs `script` against a fresh runtime and returns its reply lines; the
/// script must run to its end for `serve_script` to return `Ok`.
fn serve_lines(script: &[u8]) -> Vec<String> {
    let rt = JobRuntime::start(RuntimeConfig::default());
    let mut out = Vec::new();
    serve_script(script, &mut out, &rt).expect("a protocol error is answered, not fatal");
    rt.shutdown(Duration::from_secs(10));
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn non_utf8_line_is_answered_and_the_script_goes_on() {
    let lines = serve_lines(b"check\n\xff\xfe submit\ncheck\n");
    assert_eq!(
        lines,
        [
            "ok check clean",
            "err line is not valid UTF-8",
            "ok check clean"
        ]
    );
}

#[test]
fn unwritable_result_path_is_answered_and_the_script_goes_on() {
    let dir = ring_trace_dir("proto-unwritable");
    // A regular file cannot hold a directory entry, whoever runs the test.
    let blocker = dir.join("meta.txt");
    let script = format!(
        "submit lint {d}\nwait job-1\nresult job-1 out={b}/report.txt\ncheck\n",
        d = dir.display(),
        b = blocker.display()
    );
    let lines = serve_lines(script.as_bytes());
    assert_eq!(lines[..2], ["ok job-1 queued", "ok job-1 done attempts=1"]);
    assert!(
        lines[2].starts_with(&format!("err writing {}/report.txt: ", blocker.display())),
        "{lines:?}"
    );
    assert_eq!(lines[3..], ["ok check clean"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_wait_timeout_is_refused_like_a_bad_deadline() {
    let dir = ring_trace_dir("proto-timeout");
    let script = format!(
        "submit lint {d} deadline-ms=abc\nsubmit lint {d}\nwait job-1 timeout-ms=abc\n\
         wait job-1\n",
        d = dir.display()
    );
    let lines = serve_lines(script.as_bytes());
    assert_eq!(
        lines,
        [
            "err bad deadline-ms=abc",
            "ok job-1 queued",
            "err bad timeout-ms=abc",
            "ok job-1 done attempts=1",
        ]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
