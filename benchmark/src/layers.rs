//! The traced run: the per-layer ledger, measured from outside in.
//!
//! This binary links the product crates and wraps every call into a
//! layer's public function in a span. Three chains re-enact, stage by
//! stage and on one thread, what `mpgtool lint`, `analyze` and `replay` do
//! inside. Each pass of a chain runs in a fresh child of this binary, as
//! the verb itself does, so a stage pays for its page faults the way it
//! does in `mpgtool`; in a process that has run the chain before, the heap
//! is already mapped and the same stages read a fifth faster. The child
//! hands its spans back on stdout. A stage's metric is its median over the
//! passes. Stages outside the verbs (fingerprint, out-of-core decode,
//! lanes, MPGA, cache, sweep, DES, simulator, job runtime) are timed in
//! this process. A few spawned `mpgtool` runs give the walls the shares
//! are taken against. Nothing in the product is instrumented.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use mpg_analysis::sweep::{sweep_replays, SweepMode};
use mpg_core::{
    decode_arena, drift_slack, encode_arena, replay_batch, ArtifactKind, CacheStore, CachedReport,
    EventGraph, HbIndex, LaneBatch, MatchPlan, PerturbationModel, ReplayConfig, Replayer,
    SlackSweep,
};
use mpg_des::{DimemasReplay, MachineModel};
use mpg_lint::{
    analyze_graph, explore, forced_replay, run_progress, ExploreOptions, LintContext, MatchPolicy,
    PASSES,
};
use mpg_noise::{Dist, PlatformSignature, StreamRng};
use mpg_serve::{JobKind, JobRuntime, JobSpec, JobState, RuntimeConfig};
use mpg_sim::Simulation;
use mpg_trace::{
    sort_diagnostics, trace_fingerprint, validate_trace_diagnostics, FileTraceSet, MemTrace,
    OocTraceSet,
};

use crate::e2e::{check_pins, work_dir, Ctx, Measured, Pins, Report, Tally};
use crate::json::Json;
use crate::spans::{self_times_ns, Recorder, Span};
use crate::workloads::{self, strings, Job, Workload, JOB_LATENCY, JOB_PER_BYTE};
use crate::{proc, serve, stats, sweep};

/// Passes of each verb chain, each in a fresh child process.
const PASSES_PER_CHAIN: usize = 5;
/// Repetitions of each stand-alone stage.
const REPEATS: usize = 3;

/// Spans plus, per span name, the seconds of every occurrence.
struct Ledger {
    rec: Recorder,
    seconds: BTreeMap<String, Vec<f64>>,
}

impl Ledger {
    fn new(workload: &str, enabled: bool) -> Self {
        Ledger {
            rec: Recorder::new(workload, enabled),
            seconds: BTreeMap::new(),
        }
    }

    /// Runs `f` in a span; spans `f` opens through the ledger nest under it.
    fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Ledger) -> R) -> R {
        let open = self.rec.begin(name);
        let result = f(self);
        let secs = self.rec.end(open);
        self.seconds.entry(name.to_string()).or_default().push(secs);
        result
    }

    /// Takes over the spans a chain child recorded, as if they had been
    /// recorded here starting at `offset_ns`.
    fn adopt(&mut self, spans: Vec<Span>, offset_ns: u64) {
        for s in &spans {
            self.seconds
                .entry(s.name.clone())
                .or_default()
                .push(s.duration_ns() as f64 / 1e9);
        }
        self.rec.adopt(spans, offset_ns);
    }

    /// Runs a stand-alone stage `REPEATS` times; the last result.
    fn repeat<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> R {
        let mut last = self.time(name, |_| f());
        for _ in 1..REPEATS {
            last = self.time(name, |_| f());
        }
        last
    }

    /// Median seconds of the spans named `name`.
    fn median_s(&self, name: &str) -> f64 {
        self.seconds
            .get(name)
            .map_or(f64::NAN, |v| stats::median(v))
    }

    fn ms(&self, name: &str) -> f64 {
        self.median_s(name) * 1e3
    }
}

/// For the root spans named `chain`: the median, over its passes, of the
/// self time summed over everything beneath the root. That is the time the
/// chain's stages account for, leaving out the root's own loop overhead.
fn attributed_s(spans: &[Span], chain: &str) -> f64 {
    let selfs = self_times_ns(spans);
    let mut root_of: Vec<usize> = (0..spans.len()).collect();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            root_of[i] = root_of[p];
        }
    }
    let per_pass: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == chain)
        .map(|(root, _)| {
            (0..spans.len())
                .filter(|&i| i != root && root_of[i] == root)
                .map(|i| selfs[i] as f64 / 1e9)
                .sum()
        })
        .collect();
    stats::median(&per_pass)
}

fn lint_config() -> ReplayConfig {
    // What `mpg_lint` records its graph with (its constructor is private).
    ReplayConfig::new(PerturbationModel::quiet("lint"))
        .seed(0)
        .ack_arm(false)
        .record_graph(true)
}

fn analyze_config() -> ReplayConfig {
    // What `mpgtool analyze` records its graph with.
    ReplayConfig::new(PerturbationModel::quiet("analyze"))
        .seed(0)
        .record_graph(true)
}

fn load(dir: &Path) -> Result<MemTrace, String> {
    FileTraceSet::open(dir)
        .and_then(|set| set.load())
        .map_err(|e| format!("loading {}: {e}", dir.display()))
}

fn record(cfg: ReplayConfig, trace: &MemTrace) -> Result<EventGraph, String> {
    Replayer::new(cfg)
        .run(trace)
        .map_err(|e| format!("recording replay: {e}"))?
        .graph
        .ok_or_else(|| "recording replay returned no graph".to_string())
}

/// Counts a chain pass hands back beside its spans.
type Counts = Vec<(&'static str, f64)>;

/// `mpgtool lint --all`, stage by stage on one thread. Returns what the
/// verb would print; counts the race pass's findings and the RSS growth
/// across the three artifacts a lint holds at once (the process is fresh,
/// so nothing freed is reused).
fn lint_chain(ledger: &mut Ledger, dir: &Path, counts: &mut Counts) -> Result<String, String> {
    ledger.time("chain.lint", |l| {
        let mut at = proc::resident_mib();
        let mut growth = || {
            let now = proc::resident_mib();
            let grown = now - at;
            at = now;
            grown
        };
        let trace = l.time("trace.load", |_| load(dir))?;
        counts.push(("rss_memtrace_mib", growth()));
        let mut diags = l.time("trace.validate", |_| validate_trace_diagnostics(&trace));
        let progress = l.time("lint.run_progress", |_| {
            run_progress(&trace, &MatchPolicy::Recorded)
        });
        growth();
        let graph = l.time("core.record_graph", |_| record(lint_config(), &trace))?;
        counts.push(("rss_graph_mib", growth()));
        let hb = l.time("core.hb_build", |_| HbIndex::build(&graph));
        counts.push(("rss_hb_mib", growth()));
        let ctx = LintContext {
            trace: &trace,
            progress,
            graph: Some(graph),
            graph_error: None,
            hb: Some(hb),
        };
        for pass in PASSES {
            let found = l.time(&format!("lint.pass.{}", pass.name), |_| (pass.run)(&ctx));
            if pass.name == "race" {
                counts.push(("race_findings", found.len() as f64));
            }
            diags.extend(found);
        }
        let rendered = l.time("lint.render", |_| {
            sort_diagnostics(&mut diags);
            mpg_serve::render_lint_report(&diags, true, trace.total_events(), trace.num_ranks())
        });
        l.time("chain.drop", |_| drop((ctx, diags)));
        Ok(rendered)
    })
}

/// `mpgtool analyze --json`, stage by stage. Returns the JSON line; counts
/// the recorded graph's nodes and edges.
fn analyze_chain(ledger: &mut Ledger, dir: &Path, counts: &mut Counts) -> Result<String, String> {
    ledger.time("chain.analyze", |l| {
        let trace = l.time("trace.load", |_| load(dir))?;
        let graph = l.time("core.record_graph", |_| record(analyze_config(), &trace))?;
        let report = l.time("lint.analyze_graph", |_| analyze_graph(&trace, &graph));
        let rendered = l.time("lint.render_json", |_| report.to_json() + "\n");
        counts.push(("graph_nodes", graph.node_count() as f64));
        counts.push(("graph_edges", graph.edge_count() as f64));
        l.time("chain.drop", |_| drop((report, graph, trace)));
        Ok(rendered)
    })
}

/// `mpgtool replay` with the benchmark's perturbation, stage by stage.
/// Counts scheduler wakeups per event.
fn replay_chain(
    ledger: &mut Ledger,
    dir: &Path,
    seed: u64,
    counts: &mut Counts,
) -> Result<String, String> {
    ledger.time("chain.replay", |l| {
        let trace = l.time("trace.load", |_| load(dir))?;
        let report = l
            .time("core.replay", |_| {
                Replayer::new(replay_config(seed)).run(&trace)
            })
            .map_err(|e| format!("replay: {e}"))?;
        let rendered = l.time("serve.render_replay", |_| {
            mpg_serve::render_replay_report(&report)
        });
        counts.push((
            "wakeups_per_event",
            report.stats.scheduler_wakeups as f64 / report.stats.events as f64,
        ));
        l.time("chain.drop", |_| drop(trace));
        Ok(rendered)
    })
}

/// What `mpgtool` builds from `workloads::replay_args` for the verbs.
fn replay_config(seed: u64) -> ReplayConfig {
    mpg_serve::replay_config(
        workloads::VERB_OS as f64,
        JOB_LATENCY,
        JOB_PER_BYTE,
        workloads::verb_seed(seed),
    )
}

/// Body of the `--chain-child <verb> <trace-dir> <seed> <0|1> <out-file>`
/// process: one pass of one chain in a fresh process. What the verb would
/// print goes to `<out-file>`; spans and counts go to stdout, one per line:
/// `span <name> <start_ns> <end_ns> <parent|->` and `count <key> <value>`.
pub fn chain_child(verb: &str, dir: &str, seed: u64, traced: bool, out_file: &str) -> i32 {
    let mut ledger = Ledger::new("", traced);
    let mut counts = Counts::new();
    let dir = Path::new(dir);
    let rendered = match verb {
        "lint" => lint_chain(&mut ledger, dir, &mut counts),
        "analyze" => analyze_chain(&mut ledger, dir, &mut counts),
        "replay" => replay_chain(&mut ledger, dir, seed, &mut counts),
        other => Err(format!("unknown chain '{other}'")),
    };
    let written = rendered
        .and_then(|text| std::fs::write(out_file, text).map_err(|e| format!("{out_file}: {e}")));
    if let Err(e) = written {
        eprintln!("chain child: {e}");
        return 2;
    }
    for s in ledger.rec.spans() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        println!("span {} {} {} {parent}", s.name, s.start_ns, s.end_ns);
    }
    for (key, value) in counts {
        println!("count {key} {value}");
    }
    0
}

/// What one chain pass in a child process gave back.
struct ChainPass {
    /// What the verb would have printed.
    output: String,
    counts: BTreeMap<String, f64>,
    /// The child's wall clock, spawn to exit.
    wall_s: f64,
}

/// Runs one pass of `verb`'s chain in a fresh child and adopts its spans.
fn chain_pass(
    ctx: &Ctx,
    ledger: &mut Ledger,
    verb: &str,
    dir: &Path,
    seed: u64,
    traced: bool,
    tally: &mut Tally,
) -> Result<ChainPass, String> {
    let out_file = dir.with_file_name(format!("chain-{verb}.out"));
    let args = [
        "--chain-child".to_string(),
        verb.to_string(),
        dir.display().to_string(),
        seed.to_string(),
        u8::from(traced).to_string(),
        out_file.display().to_string(),
    ];
    tally.attempted += 1;
    let offset_ns = ledger.rec.now_ns();
    let done = proc::run(&ctx.self_exe, &args).map_err(|e| format!("{verb} chain: {e}"))?;
    if done.exit_code != 0 {
        return Err(format!("{verb} chain: exit code {}", done.exit_code));
    }
    let malformed = |line: &str| format!("{verb} chain: cannot read '{line}'");
    let mut spans = Vec::new();
    let mut counts = BTreeMap::new();
    for line in done.stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields[..] {
            ["span", name, start, end, parent] => spans.push(Span {
                name: name.to_string(),
                start_ns: start.parse().map_err(|_| malformed(line))?,
                end_ns: end.parse().map_err(|_| malformed(line))?,
                parent: match parent {
                    "-" => None,
                    p => Some(p.parse().map_err(|_| malformed(line))?),
                },
            }),
            ["count", key, value] => {
                counts.insert(key.to_string(), value.parse().map_err(|_| malformed(line))?);
            }
            _ => return Err(malformed(line)),
        }
    }
    ledger.adopt(spans, offset_ns);
    let output =
        std::fs::read_to_string(&out_file).map_err(|e| format!("{}: {e}", out_file.display()))?;
    Ok(ChainPass {
        output,
        counts,
        wall_s: done.wall_s,
    })
}

/// `PASSES_PER_CHAIN` traced passes of one chain. Returns the verb's
/// output, each count's median over the passes, and the median child wall.
fn chain_passes(
    ctx: &Ctx,
    ledger: &mut Ledger,
    verb: &str,
    dir: &Path,
    seed: u64,
    tally: &mut Tally,
) -> Result<ChainPass, String> {
    let mut passes = Vec::new();
    for _ in 0..PASSES_PER_CHAIN {
        passes.push(chain_pass(ctx, ledger, verb, dir, seed, true, tally)?);
    }
    let keys: Vec<String> = passes[0].counts.keys().cloned().collect();
    let counts = keys
        .into_iter()
        .map(|k| {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.counts.get(&k).copied())
                .collect();
            (k, stats::median(&values))
        })
        .collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    tally.check(passes.iter().all(|p| p.output == passes[0].output), || {
        format!("{verb} chain: output changed between passes")
    });
    Ok(ChainPass {
        output: passes.swap_remove(0).output,
        counts,
        wall_s: stats::median(&walls),
    })
}

/// What a closed loop over an in-process `JobRuntime` observed.
struct InprocPass {
    jobs_per_s: f64,
    latencies_ms: Vec<f64>,
    failed: usize,
}

fn job_spec(job: &Job) -> JobSpec {
    JobSpec::new(match job.replay {
        Some((os, seed)) => JobKind::Replay {
            dir: job.dir.clone(),
            os_mean: os as f64,
            latency: JOB_LATENCY,
            per_byte: JOB_PER_BYTE,
            seed,
        },
        None => JobKind::Lint {
            dir: job.dir.clone(),
        },
    })
}

/// The serve client's closed loop (`serve::WINDOW` outstanding, waited for
/// in order), against the runtime directly instead of through the pipes.
fn inproc_pass(rt: &JobRuntime, jobs: &[Job]) -> InprocPass {
    let mut out = InprocPass {
        jobs_per_s: 0.0,
        latencies_ms: Vec::new(),
        failed: 0,
    };
    let mut in_flight = std::collections::VecDeque::new();
    let settle = |in_flight: &mut std::collections::VecDeque<(mpg_serve::JobId, Instant)>,
                  out: &mut InprocPass| {
        let (id, submitted) = in_flight.pop_front().expect("a job is in flight");
        let done = rt.wait(id, Duration::from_secs(60));
        out.latencies_ms
            .push(submitted.elapsed().as_secs_f64() * 1e3);
        if !matches!(done, Ok(st) if st.state == JobState::Done) {
            out.failed += 1;
        }
    };
    let start = Instant::now();
    for job in jobs {
        if in_flight.len() == serve::WINDOW {
            settle(&mut in_flight, &mut out);
        }
        let submitted = Instant::now();
        match rt.submit(job_spec(job)) {
            Ok(id) => in_flight.push_back((id, submitted)),
            Err(_) => out.failed += 1,
        }
    }
    while !in_flight.is_empty() {
        settle(&mut in_flight, &mut out);
    }
    out.jobs_per_s = jobs.len() as f64 / start.elapsed().as_secs_f64();
    out
}

fn spawn_median(
    ctx: &Ctx,
    args: &[String],
    n: usize,
    tally: &mut Tally,
) -> Result<(f64, String), String> {
    let mut walls = Vec::new();
    let mut stdout = String::new();
    for _ in 0..n {
        tally.attempted += 1;
        match proc::run(&ctx.mpgtool, args) {
            Ok(done) if done.exit_code == 0 || done.exit_code == 1 => {
                walls.push(done.wall_s);
                stdout = done.stdout;
            }
            Ok(done) => tally.fail(format!("mpgtool {args:?}: exit code {}", done.exit_code)),
            Err(e) => tally.fail(format!("mpgtool {args:?}: {e}")),
        }
    }
    if walls.is_empty() {
        return Err(format!("mpgtool {args:?}: no run succeeded"));
    }
    Ok((stats::median(&walls), stdout))
}

/// Runs the traced per-layer measurement of one workload and writes its
/// span file to `out/trace-<workload>.json`.
pub fn run(ctx: &Ctx, w: &Workload, seed: u64) -> Result<Report, String> {
    let work = work_dir(ctx, w, seed);
    let io = |e: std::io::Error| format!("{}: {e}", work.display());
    let mut tally = Tally::default();
    let inputs = workloads::set_up(&ctx.mpgtool, w, seed, &work)?;
    tally.attempted += w.traces.len() as u64;
    let dir = inputs.trace_dirs[0].as_path();
    let dir_text = dir.display().to_string();
    let spec = w.traces[0];
    let events = inputs.events[0] as f64;
    let mut ledger = Ledger::new(w.name, true);
    let replay_cfg = replay_config(seed);

    // The three verb chains, each pass in a fresh child.
    let lint = chain_passes(ctx, &mut ledger, "lint", dir, seed, &mut tally)?;
    let analyze = chain_passes(ctx, &mut ledger, "analyze", dir, seed, &mut tally)?;
    let replay = chain_passes(ctx, &mut ledger, "replay", dir, seed, &mut tally)?;
    // Tracing overhead: the analyze chain again with the recorder off.
    let mut untraced_walls = Vec::new();
    for _ in 0..PASSES_PER_CHAIN {
        let pass = chain_pass(ctx, &mut ledger, "analyze", dir, seed, false, &mut tally)?;
        untraced_walls.push(pass.wall_s);
    }
    let overhead_ms = (analyze.wall_s - stats::median(&untraced_walls)) * 1e3;
    let count = |pass: &ChainPass, key: &str| pass.counts.get(key).copied().unwrap_or(f64::NAN);
    let (graph_nodes, graph_edges) = (
        count(&analyze, "graph_nodes"),
        count(&analyze, "graph_edges"),
    );

    // Stand-alone stages over one loaded trace and one recorded graph.
    let trace = load(dir)?;
    let graph = record(analyze_config(), &trace)?;
    let replay_report = Replayer::new(replay_cfg.clone())
        .run(&trace)
        .map_err(|e| format!("replay: {e}"))?;

    const FINGERPRINTS: usize = 20;
    let trace_key = trace_fingerprint(dir)
        .map_err(|e| format!("fingerprint: {e}"))?
        .key();
    ledger.repeat("trace.fingerprint_x20", || {
        for _ in 0..FINGERPRINTS {
            std::hint::black_box(trace_fingerprint(dir).is_ok());
        }
    });
    let ooc = ledger
        .repeat("trace.ooc_open", || OocTraceSet::open(dir))
        .map_err(|e| format!("ooc open: {e}"))?;
    let decoded = ledger.repeat("trace.ooc_decode", || {
        (0..ooc.num_ranks())
            .map(|r| ooc.cursor(r).filter(Result::is_ok).count())
            .sum::<usize>()
    });
    tally.check(decoded as f64 == events, || {
        format!("out-of-core cursors decoded {decoded} of {events} events")
    });
    for (name, shards) in [("core.replay_ooc", 1), ("core.replay_sharded", 2)] {
        let streamed = ledger
            .repeat(name, || {
                let cursors: Vec<_> = (0..ooc.num_ranks()).map(|r| ooc.cursor(r)).collect();
                Replayer::new(replay_cfg.clone()).run_streams_parallel(cursors, shards)
            })
            .map_err(|e| format!("{name}: {e}"))?;
        tally.check(streamed.final_drift == replay_report.final_drift, || {
            format!("{name}: drifts differ from the in-memory replay")
        });
    }
    ledger.repeat("trace.validate", || validate_trace_diagnostics(&trace));
    ledger.repeat("core.feasible_sweep", || {
        SlackSweep::sweep(&graph).zero_slack_edges()
    });
    let drifted = record(replay_cfg.clone().record_graph(true), &trace)?;
    ledger.repeat("core.drift_slack", || drift_slack(&drifted).is_some());
    drop(drifted);

    let sweep_cfgs = sweep::configs(seed);
    const LANES: usize = 8;
    let batch = LaneBatch {
        members: (0..LANES).collect(),
    };
    let laned = ledger.repeat("core.lane_batch", || {
        replay_batch(&trace, &sweep_cfgs, &batch)
    });
    let traversals_saved = laned
        .first()
        .and_then(|r| r.as_ref().ok())
        .map_or(0, |r| r.stats.traversals_saved);
    let lanes_digest = sweep::digest(&ledger.repeat("analysis.sweep", || {
        sweep_replays(&trace, &sweep_cfgs, SweepMode::Lanes)
    }));
    let threads_digest = sweep::digest(&ledger.repeat("analysis.sweep_threads_only", || {
        sweep_replays(&trace, &sweep_cfgs, SweepMode::ThreadsOnly)
    }));
    tally.attempted += 2;
    tally.check(lanes_digest == threads_digest, || {
        "sweep: Lanes reports differ from ThreadsOnly reports".to_string()
    });

    let encoded = ledger.repeat("core.mpga_encode", || encode_arena(graph.arena()));
    let decoded_arena = ledger
        .repeat("core.mpga_decode", || decode_arena(&encoded))
        .map_err(|e| format!("MPGA decode: {e}"))?;
    tally.check(encode_arena(&decoded_arena) == encoded, || {
        "MPGA: decode then encode changed the bytes".to_string()
    });
    drop(decoded_arena);
    let store = CacheStore::open(&work.join("layer-cache")).map_err(io)?;
    let arena_key = CacheStore::artifact_key(&trace_key, ArtifactKind::Arena, "benchmark");
    ledger
        .repeat("core.cache_put", || {
            store.put(&arena_key, ArtifactKind::Arena, &encoded)
        })
        .map_err(io)?;
    let fetched = ledger.repeat("core.cache_get_hit", || {
        store.get(&arena_key, ArtifactKind::Arena)
    });
    tally.check(fetched.as_deref() == Some(&encoded[..]), || {
        "cache: artifact read back differs from what was published".to_string()
    });
    let report_key = CacheStore::artifact_key(&trace_key, ArtifactKind::Report, "benchmark");
    let cached = CachedReport {
        exit_code: 0,
        stdout: replay.output.clone(),
    };
    store.put_report(&report_key, &cached).map_err(io)?;
    let hit = ledger.repeat("core.cache_report_hit", || {
        let key = trace_fingerprint(dir).ok()?.key();
        store.get_report(&CacheStore::artifact_key(
            &key,
            ArtifactKind::Report,
            "benchmark",
        ))
    });
    tally.check(hit.is_some_and(|r| r.stdout == replay.output), || {
        "cache: report read back differs from what was published".to_string()
    });

    const DRAWS: usize = 1_000_000;
    ledger.repeat("noise.sample_x1e6", || {
        let mut rng = StreamRng::new(seed, 7);
        let dist = Dist::Exponential { mean: 500.0 };
        std::hint::black_box((0..DRAWS).map(|_| dist.sample_f64(&mut rng)).sum::<f64>())
    });
    let des = DimemasReplay::new(MachineModel::from_signature(&PlatformSignature::noisy(
        "target", 1.0,
    )));
    ledger
        .repeat("des.dimemas", || des.run(&trace))
        .map_err(|e| format!("DES replay: {e}"))?;

    let app = workloads::app(spec.kind, spec.scale)
        .ok_or_else(|| format!("no app for '{}'", spec.kind))?;
    let simulated = ledger
        .repeat("sim.gen", || {
            proc::on_one_cpu(|| {
                Simulation::new(spec.ranks, PlatformSignature::quiet("mpgtool-gen"))
                    .seed(seed)
                    .run(|rank| app.run(rank))
            })
        })
        .map_err(|e| format!("simulation: {e}"))?;
    tally.check(simulated.trace.total_events() as f64 == events, || {
        format!(
            "the benchmark's copy of the '{}' program makes {} events, mpgtool gen made {events}",
            spec.kind,
            simulated.trace.total_events()
        )
    });
    let saved = work.join("saved");
    ledger
        .repeat("trace.save", || simulated.trace.save(&saved))
        .map_err(|e| format!("saving the simulated trace: {e}"))?;
    drop(simulated);

    let context = ledger.repeat("lint.context_build", || LintContext::build(&trace));
    ledger.repeat("lint.forced_replay", || {
        forced_replay(&trace, &MatchPlan::new())
    });
    let explore_opts = ExploreOptions {
        seed,
        ..ExploreOptions::cli_default().budget(32)
    };
    let explored = ledger.repeat("lint.explore", || explore(&context, &explore_opts).stats);
    drop(context);

    // The walls the shares are taken against, and the spawn floor.
    let (spawn_floor_s, _) = spawn_median(ctx, &strings(&["lint", "--rules"]), 15, &mut tally)?;
    let replay_args = workloads::replay_args(dir, workloads::VERB_OS, workloads::verb_seed(seed));
    let (replay_wall_s, replay_cli) = spawn_median(ctx, &replay_args, 9, &mut tally)?;
    let analyze_args = strings(&["analyze", &dir_text, "--json"]);
    let (analyze_wall_s, analyze_cli) = spawn_median(ctx, &analyze_args, 7, &mut tally)?;
    let (lint_wall_s, lint_cli) =
        spawn_median(ctx, &strings(&["lint", &dir_text, "--all"]), 5, &mut tally)?;
    let mut warm_args = analyze_args;
    warm_args.extend(strings(&[
        "--cache-dir",
        &work.join("analyze-cache").display().to_string(),
    ]));
    spawn_median(ctx, &warm_args, 1, &mut tally)?;
    let (analyze_warm_s, analyze_warm_cli) = spawn_median(ctx, &warm_args, 15, &mut tally)?;
    tally.check(replay.output == replay_cli, || {
        "the replay chain prints other bytes than mpgtool replay".to_string()
    });
    tally.check(
        analyze.output == analyze_cli && analyze_cli == analyze_warm_cli,
        || {
            "the analyze chain, mpgtool analyze and its warm run do not print the same bytes"
                .to_string()
        },
    );
    tally.check(lint.output == lint_cli, || {
        "the lint chain prints other bytes than mpgtool lint --all".to_string()
    });

    // The job runtime in process: the serve workload's mix, 1 and 2 workers.
    let mut by_workers = Vec::new();
    let (mut warm_jobs_per_s, mut hit_share) = (0.0, 0.0);
    for workers in [1usize, 2] {
        let cache_dir = work.join(format!("inproc-cache-w{workers}"));
        let rt = JobRuntime::start(RuntimeConfig {
            workers,
            queue_depth: 64,
            cache: Some(CacheStore::open(&cache_dir).map_err(io)?),
            ..RuntimeConfig::default()
        });
        let cold = inproc_pass(&rt, &inputs.jobs);
        if workers == 2 {
            // The same keys again: every replay job is fingerprint + read.
            let before = rt.stats().cache_hits;
            let warm = inproc_pass(&rt, &inputs.jobs);
            let replays = inputs.jobs.iter().filter(|j| j.replay.is_some()).count();
            hit_share = (rt.stats().cache_hits - before) as f64 / replays.max(1) as f64;
            warm_jobs_per_s = warm.jobs_per_s;
            tally.attempted += inputs.jobs.len() as u64;
            tally.failed += warm.failed as u64;
        }
        tally.attempted += inputs.jobs.len() as u64;
        tally.failed += cold.failed as u64;
        if !rt.shutdown(Duration::from_secs(60)) {
            tally.fail(format!(
                "in-process runtime ({workers} workers) did not drain"
            ));
        }
        by_workers.push(cold);
    }
    let failed_jobs: usize = by_workers.iter().map(|p| p.failed).sum();
    tally.check(failed_jobs == 0, || {
        format!("{failed_jobs} in-process job(s) did not end done")
    });

    let spans = ledger.rec.spans();
    let lint_stage_s = attributed_s(spans, "chain.lint");
    let per_s = |name: &str| events / ledger.median_s(name);
    let explore_s = ledger.median_s("lint.explore");
    let [w1, w2] = &by_workers[..] else {
        unreachable!("two worker counts were measured");
    };
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("sim.gen_events_per_s", per_s("sim.gen")),
        ("trace.save_events_per_s", per_s("trace.save")),
        (
            "trace.fingerprint_ms",
            ledger.ms("trace.fingerprint_x20") / FINGERPRINTS as f64,
        ),
        ("trace.ooc_open_ms", ledger.ms("trace.ooc_open")),
        ("trace.ooc_decode_events_per_s", per_s("trace.ooc_decode")),
        ("trace.load_events_per_s", per_s("trace.load")),
        ("trace.memtrace_rss_mib", count(&lint, "rss_memtrace_mib")),
        ("trace.validate_ms", ledger.ms("trace.validate")),
        (
            "noise.sample_ns",
            ledger.median_s("noise.sample_x1e6") * 1e9 / DRAWS as f64,
        ),
        ("core.replay_events_per_s", per_s("core.replay")),
        ("core.replay_ooc_events_per_s", per_s("core.replay_ooc")),
        (
            "core.replay_sharded_events_per_s",
            per_s("core.replay_sharded"),
        ),
        ("host_cpus", proc::host_cpus() as f64),
        (
            "core.replay_wakeups_per_event",
            count(&replay, "wakeups_per_event"),
        ),
        ("core.record_graph_events_per_s", per_s("core.record_graph")),
        ("core.graph_nodes", graph_nodes),
        ("core.graph_edges", graph_edges),
        ("core.graph_rss_mib", count(&lint, "rss_graph_mib")),
        ("core.hb_build_ms", ledger.ms("core.hb_build")),
        ("core.hb_rss_mib", count(&lint, "rss_hb_mib")),
        ("core.feasible_sweep_ms", ledger.ms("core.feasible_sweep")),
        ("core.drift_slack_ms", ledger.ms("core.drift_slack")),
        (
            "core.lane_configs_per_s",
            LANES as f64 / ledger.median_s("core.lane_batch"),
        ),
        ("core.lane_traversals_saved", traversals_saved as f64),
        ("core.mpga_encode_ms", ledger.ms("core.mpga_encode")),
        ("core.mpga_decode_ms", ledger.ms("core.mpga_decode")),
        ("core.mpga_bytes", encoded.len() as f64),
        ("core.cache_put_ms", ledger.ms("core.cache_put")),
        ("core.cache_get_hit_ms", ledger.ms("core.cache_get_hit")),
        (
            "core.cache_report_hit_ms",
            ledger.ms("core.cache_report_hit"),
        ),
        ("cli.analyze_warm_ms", analyze_warm_s * 1e3),
        ("lint.run_progress_ms", ledger.ms("lint.run_progress")),
        ("lint.context_build_ms", ledger.ms("lint.context_build")),
        ("lint.pass.causality_ms", ledger.ms("lint.pass.causality")),
        ("lint.pass.race_ms", ledger.ms("lint.pass.race")),
        ("lint.pass.perf_ms", ledger.ms("lint.pass.perf")),
        ("lint.pass.sync_ms", ledger.ms("lint.pass.sync")),
        ("lint.race_findings", count(&lint, "race_findings")),
        ("lint.analyze_graph_ms", ledger.ms("lint.analyze_graph")),
        ("lint.forced_replay_ms", ledger.ms("lint.forced_replay")),
        (
            "lint.explore_schedules_per_s",
            explored.explored as f64 / explore_s,
        ),
        (
            "lint.explore_useful_share",
            if explored.explored == 0 {
                0.0
            } else {
                (explored.explored - explored.infeasible) as f64 / explored.explored as f64
            },
        ),
        ("lint.overlap_ratio", lint_stage_s / lint_wall_s),
        (
            "analysis.sweep_configs_per_s",
            sweep_cfgs.len() as f64 / ledger.median_s("analysis.sweep"),
        ),
        (
            "analysis.sweep_threads_only_configs_per_s",
            sweep_cfgs.len() as f64 / ledger.median_s("analysis.sweep_threads_only"),
        ),
        ("cli.spawn_floor_ms", spawn_floor_s * 1e3),
        (
            "cli.analyze_unattributed_share",
            1.0 - (spawn_floor_s + attributed_s(spans, "chain.analyze")) / analyze_wall_s,
        ),
        (
            "cli.replay_unattributed_share",
            1.0 - (spawn_floor_s + attributed_s(spans, "chain.replay")) / replay_wall_s,
        ),
        ("serve.inproc_jobs_per_s_w1", w1.jobs_per_s),
        ("serve.inproc_jobs_per_s_w2", w2.jobs_per_s),
        ("serve.worker_scaling", w2.jobs_per_s / w1.jobs_per_s),
        (
            "serve.submit_to_done_p50_ms",
            stats::percentile(&w2.latencies_ms, 50.0),
        ),
        (
            "serve.submit_to_done_p99_ms",
            stats::percentile(&w2.latencies_ms, 99.0),
        ),
        ("serve.warm_jobs_per_s", warm_jobs_per_s),
        ("serve.cache_hit_share", hit_share),
        ("serve.failed_jobs", failed_jobs as f64),
        ("des.dimemas_events_per_s", per_s("des.dimemas")),
        (
            "des.graph_over_des_ratio",
            ledger.median_s("des.dimemas") / ledger.median_s("core.replay"),
        ),
        ("bench.trace_overhead_ms", overhead_ms),
    ];

    let mut pins = Pins::new();
    pins.insert(
        "events".into(),
        Json::Arr(inputs.events.iter().map(|&e| Json::Num(e as f64)).collect()),
    );
    pins.insert("graph_nodes".into(), Json::Num(graph_nodes));
    pins.insert("graph_edges".into(), Json::Num(graph_edges));
    check_pins(ctx, w, seed, &pins, &mut tally);
    tally.failed = tally.failed.min(tally.attempted);
    metrics.push((
        "bench.failed_share",
        stats::failed_share(tally.failed, tally.attempted),
    ));

    std::fs::write(
        ctx.out_dir.join(format!("trace-{}.json", w.name)),
        ledger.rec.to_json(),
    )
    .map_err(io)?;
    for chain in ["chain.lint", "chain.analyze", "chain.replay"] {
        print_stages(ledger.rec.spans(), chain);
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, value)| Measured {
            name,
            value,
            quartiles: None,
            // The fewest samples behind any per-layer metric.
            n: REPEATS,
        })
        .collect();
    Ok(Report {
        metrics,
        tally,
        pins,
    })
}

/// A chain's stages with their share of the chain's stage time, on stderr.
/// For the lint chain this is the table the workload choices are checked
/// against: race above nine tenths on master-worker-wild-8, hb_build the
/// largest stage on stencil-wide-128.
fn print_stages(spans: &[Span], chain: &str) {
    let in_chain = |s: &Span| s.parent.is_some_and(|p| spans[p].name == chain);
    let mut names: Vec<&str> = Vec::new();
    for s in spans.iter().filter(|s| in_chain(s)) {
        if !names.contains(&s.name.as_str()) {
            names.push(&s.name);
        }
    }
    let total_s = attributed_s(spans, chain);
    eprintln!(
        "{chain} stages (median of {PASSES_PER_CHAIN} passes; share of {:.3} ms):",
        total_s * 1e3
    );
    for name in names {
        // Only the chain's own occurrences count, not stand-alone repeats.
        let secs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && in_chain(s))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect();
        let s = stats::median(&secs);
        eprintln!(
            "  {name:<22} {:>10.3} ms {:>6.1} %",
            s * 1e3,
            100.0 * s / total_s
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn attributed_time_is_the_median_pass_of_stage_self_times() {
        let spans = vec![
            span("chain.x", 0, 100, None),
            span("load", 0, 30, Some(0)),
            span("work", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
            span("other", 100, 400, None),
            span("chain.x", 400, 600, None),
            span("load", 400, 450, Some(5)),
            span("chain.x", 600, 640, None),
            span("load", 600, 630, Some(7)),
        ];
        // Passes account for 90, 50 and 30 ns; the median pass is 50 ns.
        assert!((attributed_s(&spans, "chain.x") - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn ledger_keeps_every_occurrence_of_a_span_name() {
        let mut ledger = Ledger::new("w", true);
        let v = ledger.repeat("stage", || 5);
        assert_eq!(v, 5);
        ledger.time("chain", |l| l.time("stage", |_| ()));
        assert_eq!(ledger.seconds["stage"].len(), REPEATS + 1);
        assert_eq!(ledger.rec.spans().last().unwrap().parent, Some(REPEATS));
        let adopted = vec![span("chain.x", 5, 25, None), span("stage", 10, 20, Some(0))];
        let before = ledger.rec.spans().len();
        ledger.adopt(adopted, 1_000);
        assert_eq!(ledger.seconds["stage"].len(), REPEATS + 2);
        let child = &ledger.rec.spans()[before + 1];
        assert_eq!(
            (child.start_ns, child.end_ns, child.parent),
            (1_010, 1_020, Some(before))
        );
        assert!(ledger.median_s("stage") >= 0.0);
        assert!(ledger.median_s("absent").is_nan());
    }
}
