//! The end-to-end run: tracing off, every number taken from outside a real
//! `mpgtool` process — wall clock from spawn to exit, peak RSS from `wait4`
//! — by one thread that runs one child at a time.
//!
//! A run is set-up (three times or more, median reported) followed by
//! rounds. Each round runs every verb and one serve pass, so a burst of
//! host noise costs every metric a sample instead of costing one metric all
//! of them; medians over the rounds are reported. Verbs that finish in
//! milliseconds are repeated within a round, so that their medians rest on
//! enough samples to outweigh spawn jitter.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::{self, Json};
use crate::workloads::{self, strings, Inputs, Workload};
use crate::{proc, serve, stats};

/// Where the programs and the benchmark's directories are.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The release `mpgtool` binary under test.
    pub mpgtool: String,
    /// This binary, for the sweep child.
    pub self_exe: String,
    /// `benchmark/out`: inputs, caches, span files, results.
    pub out_dir: PathBuf,
    /// `benchmark/expected`: pinned counts per seed.
    pub expected_dir: PathBuf,
}

/// Set-up is repeated at least `MIN_SETUPS` times per run, and further
/// while it has used less than `SETUP_SLICE_S` in all, up to `MAX_SETUPS`;
/// `setup_s` is the median. Set-ups that take milliseconds need the extra
/// samples to repeat within their bound.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_SLICE_S: f64 = 2.5;
/// Rounds every run completes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Within a round a verb is repeated until it has used about this long.
const VERB_SLICE_S: f64 = 0.1;
const MAX_REPS: usize = 20;

/// Operations attempted and failed, and what went wrong. An operation is
/// one spawned verb, one serve job or one in-process sweep; it fails on an
/// unexpected exit code, a job that does not end `done`, or a failed
/// output check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Books a failed output check against the operations already attempted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Counts that repeat exactly for a given seed, compared with
/// `expected/seed-<n>.json` when that file exists.
pub type Pins = BTreeMap<String, Json>;

/// One reported metric: the median of `n` samples and, where the samples
/// were kept, their quartiles.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
    pub n: usize,
}

/// What one run of one workload measured.
#[derive(Debug)]
pub struct Report {
    pub metrics: Vec<Measured>,
    pub tally: Tally,
    pub pins: Pins,
}

impl Report {
    /// The value measured for the metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Generates the workload's inputs once into `out/work/<name>-s<seed>`.
pub fn work_dir(ctx: &Ctx, w: &Workload, seed: u64) -> PathBuf {
    ctx.out_dir.join("work").join(format!("{}-s{seed}", w.name))
}

/// One verb measured across rounds.
struct Verb {
    program: String,
    args: Vec<String>,
    ok_codes: &'static [i32],
    reps: usize,
    /// Standard output of the first good run; every later run must match.
    reference: Option<String>,
    walls: Vec<f64>,
    rss: Vec<f64>,
}

impl Verb {
    fn new(program: &str, args: Vec<String>, ok_codes: &'static [i32]) -> Self {
        Verb {
            program: program.to_string(),
            args,
            ok_codes,
            reps: 1,
            reference: None,
            walls: Vec::new(),
            rss: Vec::new(),
        }
    }

    fn describe(&self) -> String {
        format!("{} {}", self.program, self.args.join(" "))
    }

    /// Runs the verb `reps` times, then sizes `reps` for the next round.
    fn round(&mut self, tally: &mut Tally) {
        let mut last = None;
        for _ in 0..self.reps {
            tally.attempted += 1;
            let done = match proc::run(&self.program, &self.args) {
                Ok(done) => done,
                Err(e) => {
                    tally.fail(format!("{}: {e}", self.describe()));
                    continue;
                }
            };
            if !self.ok_codes.contains(&done.exit_code) {
                tally.fail(format!("{}: exit code {}", self.describe(), done.exit_code));
                continue;
            }
            match &self.reference {
                Some(reference) if *reference != done.stdout => {
                    tally.fail(format!("{}: output changed between runs", self.describe()));
                    continue;
                }
                Some(_) => {}
                None => self.reference = Some(done.stdout),
            }
            self.walls.push(done.wall_s);
            self.rss.push(done.peak_rss_mib);
            last = Some(done.wall_s);
        }
        if let Some(wall) = last {
            self.reps = ((VERB_SLICE_S / wall).round() as usize).clamp(1, MAX_REPS);
        }
    }

    fn stdout(&self) -> &str {
        self.reference.as_deref().unwrap_or("")
    }
}

/// Lines of `text` that do not start with any of `prefixes`.
fn without_lines(text: &str, prefixes: &[&str]) -> String {
    text.lines()
        .filter(|l| !prefixes.iter().any(|p| l.starts_with(p)))
        .fold(String::new(), |mut out, l| {
            out.push_str(l);
            out.push('\n');
            out
        })
}

/// `analyze --json` must satisfy compute + transfer + waits = makespan × ranks.
fn analyze_identity_holds(stdout: &str) -> Result<(), String> {
    let doc = json::parse(stdout.trim()).map_err(|e| format!("analyze --json: {e}"))?;
    let n = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("analyze --json: no count '{key}'"))
    };
    let (busy, total) = (
        n("compute")? + n("transfer")? + n("wait_total")?,
        n("makespan")? * n("ranks")?,
    );
    if busy == total {
        Ok(())
    } else {
        Err(format!(
            "analyze --json: compute + transfer + waits = {busy}, makespan x ranks = {total}"
        ))
    }
}

/// Compares the run's pinned counts with `expected/seed-<seed>.json`, for
/// the keys both sides have. A seed without a file pins nothing.
pub fn check_pins(ctx: &Ctx, w: &Workload, seed: u64, pins: &Pins, tally: &mut Tally) {
    let path = ctx.expected_dir.join(format!("seed-{seed}.json"));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let expected = match json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => return tally.fail(format!("{}: {e}", path.display())),
    };
    let Some(Json::Obj(expected)) = expected.get(w.name) else {
        return;
    };
    for (key, want) in expected {
        if let Some(got) = pins.get(key) {
            tally.check(got == want, || {
                format!("{}: pinned {key} is {want:?}, run gave {got:?}", w.name)
            });
        }
    }
}

fn measured(name: &'static str, values: &[f64]) -> Result<Measured, String> {
    if values.is_empty() {
        return Err(format!("{name}: no run succeeded"));
    }
    Ok(Measured {
        name,
        value: stats::median(values),
        quartiles: Some(stats::quartiles(values)),
        n: values.len(),
    })
}

/// Runs one workload end to end for about `seconds` of measuring.
pub fn run(ctx: &Ctx, w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let work = work_dir(ctx, w, seed);
    let mut tally = Tally::default();
    let mut pins = Pins::new();

    let mut setup_s: Vec<f64> = Vec::new();
    let inputs: Inputs = loop {
        let t = Instant::now();
        let inputs = workloads::set_up(&ctx.mpgtool, w, seed, &work)?;
        setup_s.push(t.elapsed().as_secs_f64());
        tally.attempted += w.traces.len() as u64;
        let enough = setup_s.len() >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_SLICE_S;
        if enough || setup_s.len() == MAX_SETUPS {
            break inputs;
        }
    };
    pins.insert(
        "events".into(),
        Json::Arr(inputs.events.iter().map(|&e| Json::Num(e as f64)).collect()),
    );

    let replay_args = workloads::replay_args(
        &inputs.trace_dirs[0],
        workloads::VERB_OS,
        workloads::verb_seed(seed),
    );
    let primary = inputs.trace_dirs[0].display().to_string();
    let mut ooc_args = replay_args.clone();
    ooc_args.push("--ooc".into());
    let analyze_args = strings(&["analyze", &primary, "--json"]);
    let seed_text = seed.to_string();
    let mut replay = Verb::new(&ctx.mpgtool, replay_args, &[0]);
    let mut replay_ooc = Verb::new(&ctx.mpgtool, ooc_args, &[0]);
    let mut analyze = Verb::new(&ctx.mpgtool, analyze_args.clone(), &[0]);
    // 1 means findings of error severity, which is an answer, not a failure.
    let mut lint = Verb::new(&ctx.mpgtool, strings(&["lint", &primary, "--all"]), &[0, 1]);
    let mut explore = Verb::new(
        &ctx.mpgtool,
        strings(&["explore", &primary, "--budget", "32", "--seed", &seed_text]),
        &[0, 1],
    );
    let sweep_args = |mode: &str| strings(&["--sweep-child", &primary, &seed_text, mode]);
    let mut sweep = Verb::new(&ctx.self_exe, sweep_args("lanes"), &[0]);

    let job_lines: Vec<String> = inputs.jobs.iter().map(workloads::Job::submit).collect();
    let (mut jobs_per_s, mut job_p50_ms) = (Vec::new(), Vec::new());
    // The first replay job's service output is fetched once and compared
    // with the solo CLI run of the same arguments.
    let fetched = work.join("served-job.out");
    let twin = inputs.jobs.iter().position(|j| j.replay.is_some());

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        for verb in [
            &mut replay,
            &mut replay_ooc,
            &mut analyze,
            &mut lint,
            &mut explore,
            &mut sweep,
        ] {
            verb.round(&mut tally);
        }
        // A fresh cache directory: every replay job publishes.
        let cache = work.join("serve-cache");
        let _ = std::fs::remove_dir_all(&cache);
        let fetch = twin.filter(|_| rounds == 0).map(|i| (i, fetched.as_path()));
        tally.attempted += job_lines.len() as u64;
        match serve::pass(&ctx.mpgtool, &cache, &job_lines, fetch) {
            Ok(pass) => {
                tally.failed += pass.failed_jobs as u64;
                if pass.problems.is_empty() {
                    jobs_per_s.push(job_lines.len() as f64 / pass.wall_s);
                    job_p50_ms.push(stats::percentile(&pass.latencies_ms, 50.0));
                }
                tally.problems.extend(pass.problems);
            }
            Err(e) => tally.fail(format!("serve pass: {e}")),
        }
        rounds += 1;
    }

    // Output checks that need one more run each.
    if let Some((job, cli)) = twin.and_then(|i| Some((&inputs.jobs[i], inputs.jobs[i].cli()?))) {
        tally.attempted += 1;
        match proc::run(&ctx.mpgtool, &cli) {
            Ok(solo) => {
                let served = std::fs::read(&fetched).unwrap_or_default();
                tally.check(
                    solo.exit_code == 0 && solo.stdout.as_bytes() == served,
                    || format!("serve: '{}' differs from the solo CLI run", job.submit()),
                );
            }
            Err(e) => tally.fail(format!("solo twin of a serve job: {e}")),
        }
    }
    let cache = work.join("analyze-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let mut cached_args = analyze_args;
    cached_args.extend(strings(&["--cache-dir", &cache.display().to_string()]));
    for temperature in ["cold", "warm"] {
        tally.attempted += 1;
        match proc::run(&ctx.mpgtool, &cached_args) {
            Ok(done) => tally.check(
                done.exit_code == 0 && done.stdout == analyze.stdout(),
                || format!("analyze --cache ({temperature}) differs from the uncached run"),
            ),
            Err(e) => tally.fail(format!("analyze --cache ({temperature}): {e}")),
        }
    }
    tally.attempted += 1;
    match proc::run(&ctx.self_exe, &sweep_args("threads")) {
        Ok(done) => tally.check(done.exit_code == 0 && done.stdout == sweep.stdout(), || {
            "sweep: Lanes reports differ from ThreadsOnly reports".to_string()
        }),
        Err(e) => tally.fail(format!("threads-only sweep: {e}")),
    }

    // Output checks on what the rounds already produced.
    let unordered = ["out-of-core:", "scheduler:"];
    tally.check(
        without_lines(replay_ooc.stdout(), &unordered)
            == without_lines(replay.stdout(), &unordered),
        || "replay --ooc output differs from the in-memory replay".to_string(),
    );
    if let Err(e) = analyze_identity_holds(analyze.stdout()) {
        tally.fail(e);
    }
    let line_with = |text: &str, prefix: &str| {
        Json::Str(
            text.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or("")
                .to_string(),
        )
    };
    pins.insert("lint_summary".into(), line_with(lint.stdout(), "lint:"));
    pins.insert(
        "explore_coverage".into(),
        line_with(explore.stdout(), "explore:"),
    );
    pins.insert(
        "scheduler_wakeups".into(),
        line_with(replay.stdout(), "scheduler:"),
    );
    check_pins(ctx, w, seed, &pins, &mut tally);
    tally.failed = tally.failed.min(tally.attempted);

    let samples: [(&'static str, &[f64]); 12] = [
        ("setup_s", &setup_s),
        ("replay_wall_s", &replay.walls),
        ("replay_ooc_wall_s", &replay_ooc.walls),
        ("replay_peak_rss_mib", &replay_ooc.rss),
        ("analyze_wall_s", &analyze.walls),
        ("analyze_peak_rss_mib", &analyze.rss),
        ("lint_wall_s", &lint.walls),
        ("lint_peak_rss_mib", &lint.rss),
        ("explore_wall_s", &explore.walls),
        ("sweep_wall_s", &sweep.walls),
        ("serve_jobs_per_s", &jobs_per_s),
        ("serve_job_p50_ms", &job_p50_ms),
    ];
    let metrics = samples
        .into_iter()
        .map(|(name, values)| measured(name, values))
        .collect::<Result<_, _>>()?;
    Ok(Report {
        metrics,
        tally,
        pins,
    })
}

/// Removes a workload's generated inputs and caches.
pub fn clean(work: &Path) {
    let _ = std::fs::remove_dir_all(work);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unordered_lines_are_dropped_before_comparing() {
        let mem = "model: m\nrank 0: drift 5\nscheduler: 9 wakeups\nlanes: 1\n";
        let ooc =
            "out-of-core: 8 ranks\nmodel: m\nrank 0: drift 5\nscheduler: 11 wakeups\nlanes: 1\n";
        let drop = ["out-of-core:", "scheduler:"];
        assert_eq!(without_lines(mem, &drop), without_lines(ooc, &drop));
        assert_eq!(
            without_lines(mem, &drop),
            "model: m\nrank 0: drift 5\nlanes: 1\n"
        );
    }

    #[test]
    fn analyze_identity_is_checked_on_the_json() {
        let good = r#"{"ranks":2,"makespan":50,"compute":60,"transfer":10,"wait_total":30}"#;
        assert_eq!(analyze_identity_holds(good), Ok(()));
        let bad = r#"{"ranks":2,"makespan":50,"compute":60,"transfer":10,"wait_total":31}"#;
        assert!(analyze_identity_holds(bad).is_err());
        assert!(analyze_identity_holds("{}").is_err());
        assert!(analyze_identity_holds("not json").is_err());
    }

    #[test]
    fn failed_checks_count_as_failed_operations() {
        let mut tally = Tally {
            attempted: 10,
            ..Tally::default()
        };
        tally.check(true, || unreachable!());
        tally.check(false, || "output differs".to_string());
        assert_eq!((tally.attempted, tally.failed), (10, 1));
        assert_eq!(stats::failed_share(tally.failed, tally.attempted), 0.1);
        assert_eq!(tally.problems, vec!["output differs"]);
    }
}
