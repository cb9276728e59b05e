//! `mpgtool` — command-line front end for the trace/replay pipeline.
//!
//! ```text
//! mpgtool demo <workload> [--ranks N] [--seed S] <trace-dir>
//!     Run a built-in workload on the simulated platform and write its
//!     per-rank trace files. Workloads: ring, stencil, master-worker,
//!     solver, pipeline, transpose, summa (summa needs --ranks 8).
//!
//! mpgtool stats <trace-dir>
//!     Event/kind statistics and the communication matrix.
//!
//! mpgtool validate <trace-dir> [--json]
//!     Structural validation (§4.3 preconditions), reported as MPG-* rule
//!     diagnostics.
//!
//! mpgtool lint <trace-dir> [--json] [--all] [--deny <MPG-RULE>]... [--salvage]
//!     Static defect analysis: match resolution, deadlock cycles, graph
//!     causality, wildcard races, collective consistency, wait-state
//!     performance findings. Advisory (info-severity) findings are hidden
//!     unless --all is given; --deny escalates a rule to error severity.
//!     With --salvage, read the trace through the salvage path and merge
//!     MPG-TRUNCATED-TRACE / MPG-MISSING-RANK findings (deny those codes
//!     to reject salvaged input). `mpgtool lint --rules` prints the full
//!     rule registry (code, default severity, owning pass, doc line) —
//!     add --json for machine-readable output; `mpgtool lint --explain
//!     MPG-RULE` prints one entry. Exit code contract: 0 when no
//!     error-severity diagnostic fired, 1 when at least one did, 2 on
//!     usage or I/O errors.
//!
//! mpgtool explore <trace-dir> [--budget N] [--depth N] [--threshold PCT]
//!                 [--seed S] [--json] [--all] [--deny <MPG-RULE>]...
//!     Schedule-space exploration (lint pass 8 with a real budget): run
//!     the full lint, then systematically re-replay the trace under forced
//!     alternate wildcard matchings — up to --budget forced replays (default
//!     64), branching to --depth levels (default 3: a schedule composes at
//!     most that many candidate swaps, each one or two forced matches; the
//!     single swaps of the recorded matching are level 1 and are replayed
//!     even at --depth 0) — reporting
//!     MPG-MAY-DEADLOCK when an alternate matching reaches a wait-for cycle
//!     (the finding names the exact forced match sequence, independently
//!     re-replayable) and MPG-SCHEDULE-DIVERGENCE when it shifts the
//!     estimated makespan past --threshold percent (default 10). Every
//!     report carries one coverage line (schedules replayed / pruned /
//!     frontier left unexplored) so an exhausted budget is never silent.
//!     Same exit contract as lint; `mpgtool lint <dir> --explore` is a
//!     shorthand.
//!
//! mpgtool analyze <trace-dir> [--json] [--top K] [--salvage]
//!     Static wait-state & slack analysis (no perturbation): decompose
//!     every rank's time into compute / transfer / wait classes (late
//!     sender, late receiver, wait-at-collective, imbalance, exit skew),
//!     identify root-cause ranks, and print the static critical path and
//!     the top-K tight chains. The decomposition is exact:
//!     compute + transfer + waits == makespan × ranks. With --salvage,
//!     analyze a damaged trace to its crash frontier.
//!
//! mpgtool fsck <trace-dir> [--json] [--inject KIND [--seed S] [--out DIR]]
//!     Integrity-check a trace directory against the MPG2 framing: per-frame
//!     CRCs, sealed footers, missing rank files. Exit 0 when every rank is
//!     clean, 1 when damage was found but records were salvaged, 2 when the
//!     directory is unrecoverable. With --inject, first copy the trace to
//!     DIR (default `<trace-dir>-injected`), apply one deterministic fault
//!     (truncate, bitflip, frame-drop, frame-dup, frame-swap, splice,
//!     delete-rank, io-error, delay), then fsck the damaged copy — the
//!     self-test harness.
//!
//! mpgtool replay <trace-dir> [--os MEAN] [--latency CYCLES]
//!                [--per-byte CPB] [--seed S] [--history FILE] [--lint]
//!                [--salvage] [--ooc] [--shards N]
//!     Replay under an injected-perturbation model; print per-rank drifts.
//!     With --history, append the result to an analysis-history log (§7).
//!     With --lint, refuse to replay a trace that has error-severity lint
//!     diagnostics. With --salvage, accept a damaged/partial trace: read it
//!     through the salvage path and replay crash-tolerantly to the crash
//!     frontier, printing the degradation report. With --ooc, mmap the
//!     trace files and stream frames lazily instead of loading the trace —
//!     peak memory stays flat however big the trace is. With --shards N,
//!     partition the ranks over N worker threads; results are bit-identical
//!     to the single-threaded replay.
//!
//! mpgtool gen [--workload W] [--ranks N] [--scale S] [--seed S] <trace-dir>
//!     Synthesize a large trace for out-of-core experiments: one of the
//!     demo workloads with its iteration count multiplied by --scale
//!     (default workload: stencil, whose event volume is ranks x 7 x 20 x
//!     scale).
//!
//! mpgtool dot <trace-dir>
//!     Print the message-passing graph as Graphviz DOT (Fig. 5).
//!
//! mpgtool export <trace-dir>
//!     Print the trace in the line-oriented text interchange format.
//!
//! mpgtool import <text-file> <trace-dir>
//!     Convert a text-format trace into a binary trace directory.
//!
//! mpgtool timeline <trace-dir> [--width N]
//!     ASCII per-rank phase timelines (Fig. 1).
//!
//! mpgtool diff <trace-dir-a> <trace-dir-b>
//!     Compare two traces' per-kind time accounting.
//!
//! mpgtool cache <ls|gc|clear> [--cache-dir DIR] [--max-mib N]
//!     Manage the content-addressed artifact cache. `ls` lists entries,
//!     `gc` evicts oldest-first down to --max-mib (default 512), `clear`
//!     empties the cache.
//!
//! mpgtool serve [--script FILE] [--workers N] [--queue N] [--deadline-ms N]
//!               [--retries N] [--chaos OPS --chaos-seed S] [--cache] [--cache-dir DIR]
//!     Run the supervised job runtime: a bounded-queue worker pool with
//!     per-job deadlines, cooperative cancellation (partial frontier
//!     reports, not errors), panic quarantine with worker respawn, and
//!     transient-failure retries, driven by a line protocol (submit /
//!     status / wait / result / cancel / stats / quarantine / check /
//!     shutdown) from stdin or --script. Completed job output is
//!     byte-identical to the solo CLI run and shares the --cache artifact
//!     store with it. --chaos enables the seeded fault-injection harness
//!     (operators: panic, delay, io-error, corrupt-artifact); `check`
//!     audits the runtime invariants afterwards.
//!
//! mpgtool bench [--out FILE] [--check] [--reps N]
//!     Measure four pairs of walls, each pair taken in this process
//!     seconds apart: the lane-batched sweep against one scalar traversal
//!     per config (both on one thread), a strict frame-cursor drain of the
//!     pinned 10^7-event trace against a bare decode of its frames, the
//!     out-of-core replay of that trace at 1 shard against several (with
//!     its peak-RSS growth), and a warm cached analyze against a cold one.
//!     With --out, write the snapshot (BENCH_replay.json). With --check,
//!     exit 1 if a ratio passes its fixed bound.
//! ```
//!
//! `replay`, `lint`, `explore` and `analyze` accept `--cache` (or
//! `--cache-dir DIR`, which implies it) and cache alike: the finished
//! report — exit code and stdout — is memoized in a content-addressed
//! on-disk cache under a key made of the trace's sealed-footer CRC chain
//! and every option that shapes the output, so a repeat run prints it
//! without opening the trace. On a miss, `lint`, `explore` and `analyze`
//! still load the recorded graph (an MPGA artifact) and `lint`/`explore`
//! the happens-before clocks from the same cache. Cached output is
//! byte-identical to a cold run; cache status notes go to stderr.
//! Salvaged, unsealed, and history-logging runs are never cached.
//! Numeric flags take a number: a value that does not parse, or a flag
//! given last with no value, exits 2 naming the flag.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use mpg_analysis::history::{record_from_report, HistoryStore};
use mpg_analysis::Table;
use mpg_apps::{
    AllreduceSolver, GridSumma, MasterWorker, Pipeline, Stencil, TokenRing, Transpose, Workload,
};
use mpg_core::timeline::render_trace_gantt;
use mpg_core::{
    cached_recorded_graph, dot, ArtifactKind, CacheStore, CachedReport, PerturbationModel,
    ReplayConfig, Replayer,
};
use mpg_noise::PlatformSignature;
use mpg_sim::Simulation;
use mpg_trace::{
    inject_dir, sort_diagnostics, text_to_trace, trace_stats, trace_to_text, validate_trace,
    validate_trace_diagnostics, Diagnostic, FaultKind, FileTraceSet, OocTraceSet, Rule,
    SalvageReport, Severity, TraceError,
};

fn fail(msg: &str) -> ExitCode {
    eprintln!("mpgtool: {msg}");
    eprintln!("run with no arguments for usage");
    ExitCode::from(2)
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    eprintln!(
        "  mpgtool demo <ring|stencil|master-worker|solver|pipeline|transpose|summa> \
         [--ranks N] [--seed S] <trace-dir>"
    );
    eprintln!(
        "  mpgtool gen [--workload W] [--ranks N] [--scale S] [--seed S] <trace-dir> \
         (synthesize a large trace)"
    );
    eprintln!("  mpgtool stats <trace-dir>");
    eprintln!("  mpgtool validate <trace-dir> [--json]");
    eprintln!(
        "  mpgtool lint <trace-dir> [--json] [--all] [--deny <MPG-RULE>]... [--salvage] \
         [--cache] [--cache-dir DIR]"
    );
    eprintln!("  mpgtool lint --rules [--json]   (print the MPG-* rule registry)");
    eprintln!("  mpgtool lint --explain <MPG-RULE> [--json]");
    eprintln!(
        "  mpgtool explore <trace-dir> [--budget N] [--depth N] [--threshold PCT] [--seed S] \
         [--json] [--all] [--deny <MPG-RULE>]... [--cache] [--cache-dir DIR]"
    );
    eprintln!(
        "  mpgtool analyze <trace-dir> [--json] [--top K] [--salvage] \
         [--cache] [--cache-dir DIR]"
    );
    eprintln!("  mpgtool fsck <trace-dir> [--json] [--inject KIND [--seed S] [--out DIR]]");
    eprintln!(
        "  mpgtool replay <trace-dir> [--os MEAN] [--latency CYCLES] [--per-byte CPB] \
         [--seed S] [--history FILE] [--lint] [--salvage] [--ooc] [--shards N] \
         [--cache] [--cache-dir DIR]"
    );
    eprintln!("  mpgtool cache <ls|gc|clear> [--cache-dir DIR] [--max-mib N]");
    eprintln!(
        "  mpgtool serve [--script FILE] [--workers N] [--queue N] [--deadline-ms N] \
         [--retries N] [--chaos OPS --chaos-seed S] [--cache] [--cache-dir DIR]"
    );
    eprintln!("  mpgtool dot <trace-dir>");
    eprintln!("  mpgtool export <trace-dir>");
    eprintln!("  mpgtool import <text-file> <trace-dir>");
    eprintln!("  mpgtool timeline <trace-dir> [--width N]");
    eprintln!("  mpgtool diff <trace-dir-a> <trace-dir-b>");
    eprintln!("  mpgtool bench [--out FILE] [--check] [--reps N]");
    ExitCode::from(2)
}

/// Parses `--cache` / `--cache-dir DIR` (the latter implies the former)
/// and opens the store. `Ok(None)` when caching was not requested.
fn take_cache(args: &mut Vec<String>) -> Result<Option<CacheStore>, String> {
    let dir = take_flag(args, "--cache-dir");
    if !take_switch(args, "--cache") && dir.is_none() {
        return Ok(None);
    }
    let root = dir.map_or_else(CacheStore::default_dir, PathBuf::from);
    CacheStore::open(&root)
        .map(Some)
        .map_err(|e| format!("opening cache {}: {e}", root.display()))
}

/// Where one verb run keeps its finished report: the store, the trace's
/// content key (the arena and clock artifacts are keyed by it too) and
/// the key the report's `(exit code, stdout)` is memoized under.
struct ReportTier {
    store: CacheStore,
    trace_key: String,
    key: String,
}

impl ReportTier {
    /// Opens the report tier of a `verb` run on `dir`, `report_key`
    /// deriving the report's key from the trace's content key. A trace
    /// that cannot be fingerprinted cheaply (unsealed) runs cold and
    /// uncached; the note goes to stderr so stdout stays byte-identical to
    /// an uncached run. On a warm hit the cached stdout is printed and
    /// `Break` carries the cached exit code.
    fn open(
        cache: Option<CacheStore>,
        dir: &str,
        verb: &str,
        report_key: impl FnOnce(&str) -> String,
    ) -> ControlFlow<ExitCode, Option<Self>> {
        let Some(store) = cache else {
            return ControlFlow::Continue(None);
        };
        let trace_key = match mpg_trace::trace_fingerprint(Path::new(dir)) {
            Ok(fp) => fp.key(),
            Err(e) => {
                eprintln!("mpgtool: cache: {e}; running cold without caching");
                return ControlFlow::Continue(None);
            }
        };
        let key = report_key(&trace_key);
        if let Some(rep) = store.get_report(&key) {
            eprintln!("mpgtool: cache: warm hit ({verb} report)");
            print!("{}", rep.stdout);
            return ControlFlow::Break(ExitCode::from(rep.exit_code));
        }
        ControlFlow::Continue(Some(ReportTier {
            store,
            trace_key,
            key,
        }))
    }

    /// The store and trace key the arena and clock artifacts go through.
    fn artifacts(&self) -> (&CacheStore, &str) {
        (&self.store, &self.trace_key)
    }
}

/// Prints a finished report and exits with `exit_code`, publishing the
/// report to `tier` first. A failed publish is nonfatal: the run already
/// has its output.
fn finish(tier: Option<&ReportTier>, exit_code: u8, stdout: &str) -> ExitCode {
    if let Some(tier) = tier {
        let report = CachedReport {
            exit_code,
            stdout: stdout.to_string(),
        };
        let _ = tier.store.put_report(&tier.key, &report);
    }
    print!("{stdout}");
    ExitCode::from(exit_code)
}

/// Pulls `--flag value` out of `args` and parses the value; `Ok(None)`
/// when the flag is absent. A value that does not parse, or the flag
/// given last with no value, is a usage error naming the flag.
fn take_num<T: FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String> {
    if args.last().is_some_and(|a| a == flag) {
        return Err(format!("{flag} needs a value"));
    }
    take_flag(args, flag)
        .map(|v| v.parse().map_err(|_| format!("bad {flag} '{v}'")))
        .transpose()
}

/// `--ranks N` of `gen` and `demo`: 8 unless given, and never 0.
fn take_ranks(args: &mut Vec<String>) -> Result<u32, String> {
    match take_num(args, "--ranks")? {
        Some(0) => Err("bad --ranks '0': a job needs at least one rank".into()),
        ranks => Ok(ranks.unwrap_or(8)),
    }
}

/// Pulls every `--deny MPG-RULE` out of `args`.
fn take_deny(args: &mut Vec<String>) -> Result<Vec<Rule>, String> {
    let mut deny = Vec::new();
    while let Some(code) = take_flag(args, "--deny") {
        deny.push(Rule::from_code(&code).ok_or(format!("unknown rule '{code}' for --deny"))?);
    }
    Ok(deny)
}

/// The `--deny` set as a report key names it: codes sorted, comma-joined.
fn deny_key(deny: &[Rule]) -> String {
    let mut codes: Vec<&str> = deny.iter().map(|r| r.code()).collect();
    codes.sort_unstable();
    codes.join(",")
}

/// Escalates every `--deny` rule to error severity, then re-sorts.
fn apply_deny(diags: &mut [Diagnostic], deny: &[Rule]) {
    for d in diags.iter_mut() {
        if deny.contains(&d.rule) {
            d.severity = Severity::Error;
        }
    }
    sort_diagnostics(diags);
}

/// Pulls `--flag value` out of `args`, returning the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        return None;
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Pulls a bare `--flag` switch out of `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Renders diagnostics as a JSON array (one object per diagnostic).
fn diags_to_json(diags: &[&Diagnostic]) -> String {
    let objs: Vec<String> = diags.iter().map(|d| d.to_json()).collect();
    format!("[{}]", objs.join(","))
}

/// One registry entry as a JSON object, from the same single source of
/// truth (`Rule::ALL` + code/severity/pass/doc) as `lint --help` and the
/// DESIGN.md §7 table.
fn rule_to_json(rule: Rule) -> String {
    let mut s = String::from("{\"code\":\"");
    mpg_trace::json_escape_into(rule.code(), &mut s);
    s.push_str("\",\"severity\":\"");
    mpg_trace::json_escape_into(rule.default_severity().label(), &mut s);
    s.push_str("\",\"pass\":\"");
    mpg_trace::json_escape_into(rule.pass(), &mut s);
    s.push_str("\",\"doc\":\"");
    mpg_trace::json_escape_into(rule.doc(), &mut s);
    s.push_str("\"}");
    s
}

/// The whole registry as a JSON array (`mpgtool lint --rules --json`).
fn rules_to_json(rules: &[Rule]) -> String {
    let objs: Vec<String> = rules.iter().map(|&r| rule_to_json(r)).collect();
    format!("[{}]", objs.join(","))
}

/// The demo workloads: the `gen` table at scale 1, plus `summa`.
fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        // Requires --ranks 8 (a 2×4 grid).
        "summa" => Some(Box::new(GridSumma {
            rows: 2,
            cols: 4,
            panel_bytes: 4_096,
            local_work: 200_000,
        })),
        _ => scaled_workload(name, 1),
    }
}

fn open_trace(dir: &str) -> Result<mpg_trace::MemTrace, String> {
    let open_err = |e: TraceError| match &e {
        // Strict-read failures that the salvage path can usually work
        // around: point the user at fsck. (MissingRanks' own Display
        // already carries the suggestion.)
        TraceError::Checksum(_) | TraceError::Unsealed(_) | TraceError::Corrupt(_) => {
            format!("{e} — try `mpgtool fsck {dir}`")
        }
        _ => e.to_string(),
    };
    let set = FileTraceSet::open(Path::new(dir)).map_err(open_err)?;
    set.load().map_err(open_err)
}

/// Loads a trace through the salvage path, failing only on unrecoverable
/// directories. Prints nothing; callers decide how to surface the report.
fn open_salvage(dir: &str) -> Result<(mpg_trace::MemTrace, SalvageReport), String> {
    FileTraceSet::load_salvage(Path::new(dir)).map_err(|e| format!("unrecoverable trace: {e}"))
}

/// A workload sized for trace synthesis: `scale` multiplies the
/// iteration-count knob, so event volume grows linearly with it (and with
/// `--ranks` for the per-rank patterns). `summa` has no iteration knob and
/// is not synthesizable.
fn scaled_workload(name: &str, scale: u64) -> Option<Box<dyn Workload>> {
    let s = |base: u64| -> u32 { base.saturating_mul(scale).min(u64::from(u32::MAX)) as u32 };
    Some(match name {
        "ring" => Box::new(TokenRing {
            traversals: s(5),
            particles_per_rank: 16,
            work_per_pair: 25,
        }),
        "stencil" => Box::new(Stencil {
            iters: s(20),
            cells_per_rank: 2_000,
            work_per_cell: 40,
            halo_bytes: 1_024,
        }),
        "master-worker" => Box::new(MasterWorker {
            tasks: s(64),
            task_work: 200_000,
            task_bytes: 128,
            result_bytes: 128,
        }),
        "solver" => Box::new(AllreduceSolver {
            iters: s(20),
            local_work: 200_000,
            vector_bytes: 256,
        }),
        "pipeline" => Box::new(Pipeline {
            waves: s(20),
            work_per_stage: 100_000,
            payload: 512,
        }),
        "transpose" => Box::new(Transpose {
            steps: s(10),
            rows_per_rank: 32,
            work_per_element: 10,
            block_bytes: 512,
        }),
        _ => return None,
    })
}

/// `mpgtool gen`: synthesize an arbitrarily large trace for out-of-core
/// replay experiments — a `demo` whose event volume is dialed by `--scale`.
fn cmd_gen(mut args: Vec<String>) -> Result<ExitCode, String> {
    let workload = take_flag(&mut args, "--workload").unwrap_or_else(|| "stencil".into());
    let ranks = take_ranks(&mut args)?;
    let scale: u64 = take_num(&mut args, "--scale")?.unwrap_or(1);
    let seed: u64 = take_num(&mut args, "--seed")?.unwrap_or(1);
    let [dir] = args.as_slice() else {
        return Err("gen needs a trace directory".into());
    };
    let w = scaled_workload(&workload, scale.max(1)).ok_or(format!(
        "unknown or unscalable workload '{workload}' \
         (one of: ring, stencil, master-worker, solver, pipeline, transpose)"
    ))?;
    let outcome = Simulation::new(ranks, PlatformSignature::quiet("mpgtool-gen"))
        .seed(seed)
        .run(|ctx| w.run(ctx))
        .map_err(|e| format!("simulation failed: {e}"))?;
    outcome
        .trace
        .save(&PathBuf::from(dir))
        .map_err(|e| format!("writing trace: {e}"))?;
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    println!(
        "generated '{workload}' x{scale} on {ranks} ranks: {} events, {} MiB on disk -> {dir}",
        outcome.trace.total_events(),
        bytes / (1 << 20),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_demo(mut args: Vec<String>) -> Result<ExitCode, String> {
    let ranks = take_ranks(&mut args)?;
    let seed: u64 = take_num(&mut args, "--seed")?.unwrap_or(1);
    let [name, dir] = args.as_slice() else {
        return Err("demo needs a workload name and a trace directory".into());
    };
    let w = workload_by_name(name).ok_or(format!("unknown workload '{name}'"))?;
    let outcome = Simulation::new(ranks, PlatformSignature::quiet("mpgtool"))
        .seed(seed)
        .run(|ctx| w.run(ctx))
        .map_err(|e| format!("simulation failed: {e}"))?;
    outcome
        .trace
        .save(&PathBuf::from(dir))
        .map_err(|e| format!("writing trace: {e}"))?;
    println!(
        "traced '{name}' on {ranks} ranks: {} events, makespan {} cycles -> {dir}",
        outcome.trace.total_events(),
        outcome.makespan()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(args: Vec<String>) -> Result<ExitCode, String> {
    let [dir] = args.as_slice() else {
        return Err("stats needs a trace directory".into());
    };
    print!("{}", trace_stats(&open_trace(dir)?).render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_validate(mut args: Vec<String>) -> Result<ExitCode, String> {
    let json = take_switch(&mut args, "--json");
    let [dir] = args.as_slice() else {
        return Err("validate needs a trace directory".into());
    };
    // Strict read first; when it fails, fall back to the salvage path so
    // validate can still report *which* rank files are missing, short, or
    // corrupt (as MPG-MISSING-RANK / MPG-TRUNCATED-TRACE diagnostics)
    // instead of dying on the first bad byte.
    let (trace, salvage) = match open_trace(dir) {
        Ok(trace) => (trace, None),
        Err(strict_err) => match open_salvage(dir) {
            Ok((trace, report)) => (trace, Some(report)),
            Err(_) => return Err(strict_err),
        },
    };
    let mut diags = validate_trace_diagnostics(&trace);
    if let Some(report) = &salvage {
        diags.extend(report.diagnostics());
    }
    sort_diagnostics(&mut diags);
    let shown: Vec<&Diagnostic> = diags.iter().collect();
    if json {
        println!("{}", diags_to_json(&shown));
    } else if diags.is_empty() {
        println!(
            "ok: {} events across {} ranks",
            trace.total_events(),
            trace.num_ranks()
        );
    } else {
        for d in &shown {
            println!("{d}");
        }
    }
    Ok(if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `mpgtool lint`: the full static-analysis pipeline of `mpg-lint`.
///
/// Exit code contract (also used by `validate`): 0 when no error-severity
/// diagnostic fired, 1 when at least one did, 2 on usage or I/O errors.
fn cmd_lint(mut args: Vec<String>) -> Result<ExitCode, String> {
    // `lint --explore` is a shorthand for the explore subcommand with its
    // defaults; explore's own flags (--budget etc.) pass straight through.
    if take_switch(&mut args, "--explore") {
        return cmd_explore(args);
    }
    let json = take_switch(&mut args, "--json");
    if take_switch(&mut args, "--help") || take_switch(&mut args, "--rules") {
        // The registry itself (Rule::ALL + Rule::doc/pass) is the single
        // source of truth; DESIGN.md §7 renders the same table and a
        // consistency test keeps the two in sync.
        if json {
            println!("{}", rules_to_json(mpg_trace::Rule::ALL));
        } else {
            println!(
                "{}",
                mpg_analysis::Table::rule_registry(mpg_trace::Rule::ALL).render()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(code) = take_flag(&mut args, "--explain") {
        let rule = Rule::from_code(&code).ok_or(format!("unknown rule '{code}' for --explain"))?;
        if json {
            println!("{}", rule_to_json(rule));
        } else {
            println!("{}", rule.code());
            println!("  severity: {}", rule.default_severity().label());
            println!("  pass:     {}", rule.pass());
            println!("  meaning:  {}", rule.doc());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let all = take_switch(&mut args, "--all");
    let salvage = take_switch(&mut args, "--salvage");
    let cache = take_cache(&mut args)?;
    let deny = take_deny(&mut args)?;
    let [dir] = args.as_slice() else {
        return Err("lint needs a trace directory".into());
    };
    // Salvaged traces have no trustworthy content fingerprint — never
    // cached.
    let tier = match ReportTier::open(cache.filter(|_| !salvage), dir, "lint", |trace_key| {
        CacheStore::artifact_key(
            trace_key,
            ArtifactKind::Report,
            &format!(
                "cmd=lint;json={json};all={all};deny={};rules={}",
                deny_key(&deny),
                mpg_lint::ruleset_fingerprint()
            ),
        )
    }) {
        ControlFlow::Break(code) => return Ok(code),
        ControlFlow::Continue(tier) => tier,
    };
    let (trace, mut diags) = if salvage {
        let (t, report) = open_salvage(dir)?;
        let d = mpg_lint::lint_salvaged(&t, &report);
        (t, d)
    } else {
        let t = open_trace(dir)?;
        let d = mpg_lint::lint_full_with(&t, tier.as_ref().map(ReportTier::artifacts), None);
        (t, d.diags)
    };
    apply_deny(&mut diags, &deny);
    let out = if json {
        let shown: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| all || d.severity >= Severity::Warning)
            .collect();
        format!("{}\n", diags_to_json(&shown))
    } else {
        // Shared with `mpgtool serve` — service lint output must stay
        // byte-identical to this path.
        mpg_serve::render_lint_report(&diags, all, trace.total_events(), trace.num_ranks())
    };
    let errors = diags.iter().any(|d| d.severity == Severity::Error);
    Ok(finish(tier.as_ref(), u8::from(errors), &out))
}

/// `mpgtool explore`: full lint plus the bounded pass-8 schedule-space
/// walk. Exit contract matches lint (0 clean / 1 errors / 2 usage), and
/// so does `--cache`: the rendered report is memoized under a key naming
/// every explore option.
fn cmd_explore(mut args: Vec<String>) -> Result<ExitCode, String> {
    let json = take_switch(&mut args, "--json");
    let all = take_switch(&mut args, "--all");
    let cache = take_cache(&mut args)?;
    let deny = take_deny(&mut args)?;
    let mut opts = mpg_lint::ExploreOptions::cli_default();
    opts.budget = take_num(&mut args, "--budget")?.unwrap_or(opts.budget);
    opts.depth = take_num(&mut args, "--depth")?.unwrap_or(opts.depth);
    opts.divergence_pct = take_num(&mut args, "--threshold")?.unwrap_or(opts.divergence_pct);
    opts.seed = take_num(&mut args, "--seed")?.unwrap_or(opts.seed);
    if !opts.divergence_pct.is_finite() || opts.divergence_pct < 0.0 {
        return Err("--threshold must be a non-negative percentage".into());
    }
    let [dir] = args.as_slice() else {
        return Err("explore needs a trace directory".into());
    };
    let tier = match ReportTier::open(cache, dir, "explore", |trace_key| {
        CacheStore::artifact_key(
            trace_key,
            ArtifactKind::Report,
            &format!(
                "cmd=explore;json={json};all={all};deny={};{};rules={}",
                deny_key(&deny),
                opts.fingerprint(),
                mpg_lint::ruleset_fingerprint()
            ),
        )
    }) {
        ControlFlow::Break(code) => return Ok(code),
        ControlFlow::Continue(tier) => tier,
    };
    let trace = open_trace(dir)?;
    let mut out = mpg_lint::lint_explore(&trace, &opts, tier.as_ref().map(ReportTier::artifacts));
    apply_deny(&mut out.diags, &deny);
    let rendered = if json {
        let shown: Vec<Diagnostic> = out
            .diags
            .iter()
            .filter(|d| all || d.severity >= Severity::Warning)
            .cloned()
            .collect();
        format!("{}\n", mpg_lint::explore_json(&shown, &out.stats))
    } else {
        let (events, ranks) = (trace.total_events(), trace.num_ranks());
        mpg_serve::render_explore_report(&out.diags, &out.stats, all, events, ranks)
    };
    let errors = out.diags.iter().any(|d| d.severity == Severity::Error);
    Ok(finish(tier.as_ref(), u8::from(errors), &rendered))
}

/// `mpgtool analyze`: static wait-state & slack analysis of a trace — no
/// perturbation, no sweep; just "where does the time go?".
///
/// Records a quiet replay graph (identical to the `lint` pass-3 /
/// `dot` path), runs the zero-drift slack sweep, and renders the exact
/// compute/transfer/wait decomposition, root causes, and tight chains.
/// Exit 0 on success (findings are advisory), 2 on usage/I-O errors or if
/// the accounting identity fails (which would mean the analyzer is wrong
/// about this trace, so no report is better than a lying one).
fn cmd_analyze(mut args: Vec<String>) -> Result<ExitCode, String> {
    let json = take_switch(&mut args, "--json");
    let salvage = take_switch(&mut args, "--salvage");
    let cache = take_cache(&mut args)?;
    let top: usize = take_num(&mut args, "--top")?.unwrap_or(5);
    let [dir] = args.as_slice() else {
        return Err("analyze needs a trace directory".into());
    };
    let cfg = ReplayConfig::new(PerturbationModel::quiet("analyze"))
        .seed(0)
        .record_graph(true)
        .crash_tolerant(salvage);
    // Salvaged traces have no trustworthy content fingerprint — never
    // cached.
    let tier = match ReportTier::open(cache.filter(|_| !salvage), dir, "analyze", |trace_key| {
        CacheStore::artifact_key(
            trace_key,
            ArtifactKind::Report,
            &format!(
                "cmd=analyze;json={json};top={top};thresholds={:?};{}",
                mpg_lint::PerfThresholds::default(),
                cfg.fingerprint()
            ),
        )
    }) {
        ControlFlow::Break(code) => return Ok(code),
        ControlFlow::Continue(tier) => tier,
    };
    let mut o = String::new();
    let trace = if salvage {
        let (t, report) = open_salvage(dir)?;
        if !report.is_clean() && !json {
            let _ = writeln!(o, "salvage: {report}");
        }
        t
    } else {
        open_trace(dir)?
    };
    // On a report miss with caching enabled, the recorded graph itself is
    // still memoized as an MPGA artifact — a warm arena skips the
    // recording replay even when the rendered report key changed (e.g. a
    // different --top).
    let graph = match tier.as_ref().map(ReportTier::artifacts) {
        Some((store, trace_key)) => {
            cached_recorded_graph(store, trace_key, &trace, cfg).map(|(graph, _, _)| graph)
        }
        None => Replayer::new(cfg)
            .run(&trace)
            .map(|r| r.graph.expect("graph recorded")),
    }
    .map_err(|e| format!("replay failed: {e}"))?;
    let report = mpg_lint::analyze_graph(&trace, &graph);
    if !report.identity_holds() {
        return Err(format!(
            "accounting identity violated: compute {} + transfer {} + waits {} != makespan {} x {} ranks",
            report.compute,
            report.transfer,
            report.wait_total(),
            report.makespan,
            report.ranks
        ));
    }
    if json {
        let _ = writeln!(o, "{}", report.to_json());
        return Ok(finish(tier.as_ref(), 0, &o));
    }

    let total = report.makespan * report.ranks as u64;
    let share = |c: u64| {
        if total == 0 {
            "0.0%".to_string()
        } else {
            mpg_analysis::table::pct(c as f64 / total as f64)
        }
    };
    let _ = writeln!(
        o,
        "analyze: {} ranks, makespan {} cycles, efficiency {} (identity exact: busy + waits == makespan x ranks)",
        report.ranks,
        report.makespan,
        mpg_analysis::table::pct(report.efficiency()),
    );
    if report.causality_clamps > 0 || report.retime_mismatches > 0 {
        let _ = writeln!(
            o,
            "warning: clock skew defeated {} cross-rank comparison(s) ({} re-time mismatch(es)); cross-rank attributions are approximate",
            report.causality_clamps, report.retime_mismatches
        );
    }
    let mut t = Table::new("where the time goes", &["bucket", "cycles", "share"]);
    t.row(vec![
        "compute".into(),
        report.compute.to_string(),
        share(report.compute),
    ]);
    t.row(vec![
        "transfer".into(),
        report.transfer.to_string(),
        share(report.transfer),
    ]);
    for class in mpg_lint::WaitClass::ALL {
        t.row(vec![
            format!("wait:{}", class.label()),
            report.wait[class.idx()].to_string(),
            share(report.wait[class.idx()]),
        ]);
    }
    let _ = write!(o, "{}", t.render());

    let mut t = Table::new("per rank", &["rank", "compute", "transfer", "wait", "busy"]);
    for r in &report.per_rank {
        let busy = r.compute + r.transfer;
        t.row(vec![
            r.rank.to_string(),
            r.compute.to_string(),
            r.transfer.to_string(),
            r.wait_total().to_string(),
            if report.makespan == 0 {
                "100.0%".into()
            } else {
                mpg_analysis::table::pct(busy as f64 / report.makespan as f64)
            },
        ]);
    }
    let _ = write!(o, "{}", t.render());

    if !report.by_op.is_empty() {
        let mut t = Table::new("waits by operation", &["op", "count", "cycles"]);
        for k in report.by_op.iter().take(top) {
            t.row(vec![k.key.clone(), k.count.to_string(), k.wait.to_string()]);
        }
        let _ = write!(o, "{}", t.render());
    }
    if !report.by_tag.is_empty() {
        let mut t = Table::new("waits by tag", &["tag", "count", "cycles"]);
        for k in report.by_tag.iter().take(top) {
            t.row(vec![k.key.clone(), k.count.to_string(), k.wait.to_string()]);
        }
        let _ = write!(o, "{}", t.render());
    }
    if !report.collectives.is_empty() {
        let mut worst: Vec<_> = report.collectives.iter().collect();
        worst.sort_by_key(|c| std::cmp::Reverse(c.total_wait));
        let mut t = Table::new(
            "collectives by wasted cycles",
            &[
                "op",
                "members",
                "wait",
                "cause rank",
                "saved by cause",
                "verdict",
            ],
        );
        for c in worst.iter().take(top) {
            t.row(vec![
                c.op.to_string(),
                c.members.to_string(),
                c.total_wait.to_string(),
                c.cause.0.to_string(),
                c.saved.to_string(),
                if c.dominated {
                    "late rank"
                } else {
                    "imbalance"
                }
                .to_string(),
            ]);
        }
        let _ = write!(o, "{}", t.render());
    }
    if !report.chains.is_empty() {
        let mut t = Table::new(
            "tight chains (index 0 = static critical path)",
            &[
                "anchor rank",
                "finish",
                "steps",
                "msg hops",
                "ranks",
                "chain waits",
            ],
        );
        for c in report.chains.iter().take(top) {
            t.row(vec![
                c.rank.to_string(),
                c.finish.to_string(),
                c.steps.to_string(),
                c.message_hops.to_string(),
                c.ranks_touched.to_string(),
                c.wait_cycles.to_string(),
            ]);
        }
        let _ = write!(o, "{}", t.render());
    }
    let _ = writeln!(
        o,
        "slack: {} of {} edges are zero-slack (the static critical network); perturbations below an edge's slack are absorbed before reaching the finish",
        report.zero_slack_edges, report.edge_count
    );
    let findings = {
        let thresholds = mpg_lint::PerfThresholds::default();
        let mut d = mpg_lint::lint_waitstates(&report, &thresholds);
        d.extend(mpg_lint::lint_chains(&report, &thresholds));
        sort_diagnostics(&mut d);
        d
    };
    for d in &findings {
        let _ = writeln!(o, "{d}");
    }
    Ok(finish(tier.as_ref(), 0, &o))
}

fn cmd_replay(mut args: Vec<String>) -> Result<ExitCode, String> {
    let os_mean: f64 = take_num(&mut args, "--os")?.unwrap_or(0.0);
    let latency: f64 = take_num(&mut args, "--latency")?.unwrap_or(0.0);
    let per_byte: f64 = take_num(&mut args, "--per-byte")?.unwrap_or(0.0);
    let seed: u64 = take_num(&mut args, "--seed")?.unwrap_or(0);
    let history = take_flag(&mut args, "--history");
    let lint = take_switch(&mut args, "--lint");
    let salvage = take_switch(&mut args, "--salvage");
    let ooc = take_switch(&mut args, "--ooc");
    let cache = take_cache(&mut args)?;
    let shards: usize = take_num(&mut args, "--shards")?.unwrap_or(1);
    if lint && salvage {
        // A salvaged partial trace cannot pass the completed-run lint gate
        // (missing finalizes, unmatched tails) — the combination would
        // always refuse to replay.
        return Err("--lint and --salvage are mutually exclusive".into());
    }
    if ooc && (lint || salvage) {
        // Both need the whole trace in memory (the gate pre-scans it, the
        // salvage path rewrites it), which defeats out-of-core streaming.
        return Err("--ooc is incompatible with --lint and --salvage".into());
    }
    let [dir] = args.as_slice() else {
        return Err("replay needs a trace directory".into());
    };

    // Model + config construction shared with `mpgtool serve`.
    let mut cfg =
        mpg_serve::replay_config(os_mean, latency, per_byte, seed).crash_tolerant(salvage);
    if lint {
        cfg = cfg.gate(mpg_lint::replay_gate());
    }

    // Salvaged traces have no trustworthy fingerprint, and --history
    // appends to an external store on every run — neither may short-circuit
    // through the cache. The key is the one a service replay job uses.
    let cache = cache.filter(|_| !salvage && history.is_none());
    let tier = match ReportTier::open(cache, dir, "replay", |trace_key| {
        let knobs = (os_mean, latency, per_byte, seed);
        mpg_serve::replay_report_key(trace_key, knobs, shards, ooc, lint, &cfg)
    }) {
        ControlFlow::Break(code) => return Ok(code),
        ControlFlow::Continue(tier) => tier,
    };
    let mut o = String::new();

    let run = if ooc {
        // Out-of-core: mmap the MPG2 files and stream frames lazily —
        // the trace is never materialized in memory.
        let set = OocTraceSet::open(Path::new(dir))
            .map_err(|e| format!("{e} — try `mpgtool fsck {dir}`"))?;
        let _ = writeln!(
            o,
            "out-of-core: {} ranks, {} records, {} MiB mapped, {} shard(s)",
            set.num_ranks(),
            set.total_records(),
            set.total_bytes() / (1 << 20),
            shards.max(1),
        );
        let streams: Vec<_> = (0..set.num_ranks()).map(|r| set.cursor(r)).collect();
        Replayer::new(cfg).run_streams_parallel(streams, shards)
    } else {
        let trace = if salvage {
            let (t, report) = open_salvage(dir)?;
            if !report.is_clean() {
                let _ = writeln!(o, "salvage: {report}");
            }
            t
        } else {
            open_trace(dir)?
        };
        if shards > 1 {
            // The shards run on scoped threads, so they stream the
            // loaded ranks in place.
            let streams = (0..trace.num_ranks())
                .map(|r| trace.iter_rank(r).map(Ok))
                .collect();
            Replayer::new(cfg).run_streams_parallel(streams, shards)
        } else {
            Replayer::new(cfg).run(&trace)
        }
    };
    let report = match run {
        Ok(r) => r,
        Err(mpg_core::ReplayError::Gated(diags)) => {
            print!("{o}");
            for d in &diags {
                eprintln!("mpgtool: {d}");
            }
            eprintln!(
                "mpgtool: trace rejected by lint gate ({} error(s))",
                diags.len()
            );
            return Ok(ExitCode::FAILURE);
        }
        Err(e) => {
            print!("{o}");
            return Err(format!("replay failed: {e}"));
        }
    };
    // Shared with `mpgtool serve` — service output must stay
    // byte-identical to this path.
    o.push_str(&mpg_serve::render_replay_report(&report));
    if let Some(hist) = history {
        let store = HistoryStore::at(Path::new(&hist));
        let rec = record_from_report(dir, seed, &report, "mpgtool replay");
        if let Err(e) = store.append(&rec) {
            print!("{o}");
            return Err(format!("writing history: {e}"));
        }
        let n = store.for_trace(dir).map(|v| v.len()).unwrap_or(0);
        let _ = writeln!(
            o,
            "history: appended to {hist} ({n} record(s) for this trace)"
        );
    }
    Ok(finish(tier.as_ref(), 0, &o))
}

/// Copies the flat trace directory `src` into `dst` (created fresh).
fn copy_trace_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// `mpgtool fsck`: integrity-check (and optionally fault-inject) a trace
/// directory.
///
/// Exit code contract: 0 clean, 1 damaged-but-salvaged, 2 unrecoverable
/// (or usage/I/O error). Scripts rely on this — see `lint.sh`.
fn cmd_fsck(mut args: Vec<String>) -> Result<ExitCode, String> {
    let json = take_switch(&mut args, "--json");
    let inject = take_flag(&mut args, "--inject");
    let seed: u64 = take_num(&mut args, "--seed")?.unwrap_or(1);
    let out = take_flag(&mut args, "--out");
    let [dir] = args.as_slice() else {
        return Err("fsck needs a trace directory".into());
    };
    let mut target = PathBuf::from(dir);
    if let Some(kind_name) = inject {
        let Some(kind) = FaultKind::from_name(&kind_name) else {
            let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
            return Err(format!(
                "unknown fault kind '{kind_name}' (one of: {})",
                names.join(", ")
            ));
        };
        let dst = out.map_or_else(|| PathBuf::from(format!("{dir}-injected")), PathBuf::from);
        copy_trace_dir(&target, &dst)
            .map_err(|e| format!("copying {dir} -> {}: {e}", dst.display()))?;
        let plan = inject_dir(&dst, kind, seed).map_err(|e| format!("injecting fault: {e}"))?;
        eprintln!(
            "fsck: injected into {}: {} (rank {})",
            dst.display(),
            plan.description,
            plan.rank
        );
        target = dst;
    }
    // Streaming scan: frames are CRC-checked and counted without ever
    // buffering the decoded records, so fsck runs in O(frame) memory even
    // on traces far bigger than RAM.
    Ok(match FileTraceSet::scan_salvage(&target) {
        Ok(report) => {
            let status = report.status();
            if json {
                println!("{}", report.to_json());
            } else {
                println!("{report}");
            }
            ExitCode::from(status.exit_code() as u8)
        }
        Err(e) => {
            if json {
                println!(
                    "{{\"status\":\"unrecoverable\",\"error\":\"{}\"}}",
                    e.to_string().replace('\\', "\\\\").replace('"', "\\\"")
                );
            } else {
                eprintln!("mpgtool: unrecoverable trace: {e}");
            }
            ExitCode::from(2)
        }
    })
}

fn cmd_dot(args: Vec<String>) -> Result<ExitCode, String> {
    let [dir] = args.as_slice() else {
        return Err("dot needs a trace directory".into());
    };
    let trace = open_trace(dir)?;
    let report =
        Replayer::new(ReplayConfig::new(PerturbationModel::quiet("dot")).record_graph(true))
            .run(&trace)
            .map_err(|e| format!("replay failed: {e}"))?;
    print!(
        "{}",
        dot::to_dot(report.graph.as_ref().expect("graph recorded"), dir)
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_export(args: Vec<String>) -> Result<ExitCode, String> {
    let [dir] = args.as_slice() else {
        return Err("export needs a trace directory".into());
    };
    print!("{}", trace_to_text(&open_trace(dir)?));
    Ok(ExitCode::SUCCESS)
}

fn cmd_import(args: Vec<String>) -> Result<ExitCode, String> {
    let [file, dir] = args.as_slice() else {
        return Err("import needs a text file and a trace directory".into());
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let trace = text_to_trace(&text).map_err(|e| format!("parsing {file}: {e}"))?;
    let violations = validate_trace(&trace);
    if !violations.is_empty() {
        eprintln!(
            "mpgtool: warning: imported trace has {} violation(s)",
            violations.len()
        );
    }
    trace
        .save(&PathBuf::from(dir))
        .map_err(|e| format!("writing trace: {e}"))?;
    println!(
        "imported {} events across {} ranks -> {dir}",
        trace.total_events(),
        trace.num_ranks()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_timeline(mut args: Vec<String>) -> Result<ExitCode, String> {
    let width: usize = take_num(&mut args, "--width")?.unwrap_or(100);
    let [dir] = args.as_slice() else {
        return Err("timeline needs a trace directory".into());
    };
    let trace = open_trace(dir)?;
    print!("{}", render_trace_gantt(&trace, width.clamp(10, 400)));
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: Vec<String>) -> Result<ExitCode, String> {
    let [a, b] = args.as_slice() else {
        return Err("diff needs two trace directories".into());
    };
    let (ta, tb) = (open_trace(a)?, open_trace(b)?);
    let (sa, sb) = (trace_stats(&ta), trace_stats(&tb));
    println!("{:>12} {:>20} {:>20} {:>10}", "kind", a, b, "ratio");
    let kinds: std::collections::BTreeSet<&str> = sa
        .by_kind
        .keys()
        .chain(sb.by_kind.keys())
        .copied()
        .collect();
    for kind in kinds {
        let ca = sa.by_kind.get(kind).map_or(0, |k| k.total_cycles);
        let cb = sb.by_kind.get(kind).map_or(0, |k| k.total_cycles);
        let ratio = if ca == 0 {
            f64::INFINITY
        } else {
            cb as f64 / ca as f64
        };
        println!("{kind:>12} {ca:>20} {cb:>20} {ratio:>10.3}");
    }
    println!(
        "{:>12} {:>20} {:>20} {:>10.3}",
        "total span",
        sa.total_span,
        sb.total_span,
        if sa.total_span == 0 {
            f64::INFINITY
        } else {
            sb.total_span as f64 / sa.total_span as f64
        }
    );
    Ok(ExitCode::SUCCESS)
}

/// `mpgtool bench`: measure the four same-process ratios, optionally
/// writing the `BENCH_replay.json` snapshot and/or gating them against
/// their fixed floors ([`mpg_analysis::perf::check`]).
fn cmd_bench(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out = take_flag(&mut args, "--out");
    let check = take_switch(&mut args, "--check");
    let reps: u32 = take_num(&mut args, "--reps")?.unwrap_or(5);
    if !args.is_empty() {
        return Err(format!("bench: unexpected argument '{}'", args[0]));
    }
    let snap = mpg_analysis::perf::measure(reps)?;
    let (s, i, o, c) = (&snap.sweep, &snap.ingest, &snap.ooc, &snap.cache);
    println!(
        "sweep: {} configs on {} in {} lane batch(es), {} traversal(s) saved: \
         {:.1} configs/sec vs {:.1} scalar, one thread each ({:.2}x)",
        s.configs,
        s.workload,
        s.lane_batches,
        s.traversals_saved,
        s.configs_per_sec,
        s.scalar_configs_per_sec,
        s.speedup_vs_scalar()
    );
    println!(
        "ingest: {}, {} events ({:.0} MiB): strict cursor drain {:.3}s vs bare decode \
         {:.3}s ({:.2}x), open maps +{:.1} MiB",
        i.name,
        i.events,
        i.trace_mib,
        i.cursor_secs,
        i.decode_secs,
        i.cursor_over_decode(),
        i.open_rss_growth_mib
    );
    println!(
        "ooc: {} on {} ranks, {} events ({:.0} MiB mapped): \
         {:.0} ev/sec windowed, {:.0} ev/sec at {} shards ({:.2}x, {} cpu(s)), \
         peak RSS +{:.1} MiB",
        o.name,
        o.ranks,
        o.events,
        o.trace_mib,
        o.events_per_sec_1shard,
        o.events_per_sec_sharded,
        o.shards,
        o.shard_speedup(),
        o.host_cpus,
        o.peak_rss_growth_mib
    );
    println!(
        "cache: {} on {} ranks, {} events: cold analyze {:.2}s, warm {:.3}s ({:.1}x)",
        c.name,
        c.ranks,
        c.events,
        c.cold_secs,
        c.warm_secs,
        c.warm_speedup()
    );
    if let Some(path) = out {
        std::fs::write(&path, snap.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("snapshot: wrote {path}");
    }
    if check {
        let msgs = mpg_analysis::perf::check(&snap);
        if !msgs.is_empty() {
            for m in &msgs {
                eprintln!("mpgtool: bench regression: {m}");
            }
            return Ok(ExitCode::FAILURE);
        }
        println!("check: every ratio within its bound");
    }
    Ok(ExitCode::SUCCESS)
}

/// `mpgtool cache`: inspect and maintain the on-disk artifact cache.
///
/// `ls` lists entries, `gc --max-mib N` evicts oldest-first down to N MiB
/// (default 512) and sweeps leftover temp files, `clear` removes
/// everything. All operate on `--cache-dir DIR`, else `$MPG_CACHE_DIR`,
/// else the system temp default.
fn cmd_cache(mut args: Vec<String>) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("cache needs a subcommand: ls, gc, or clear".into());
    }
    let sub = args.remove(0);
    let root =
        take_flag(&mut args, "--cache-dir").map_or_else(CacheStore::default_dir, PathBuf::from);
    let max_mib: u64 = take_num(&mut args, "--max-mib")?.unwrap_or(512);
    if !args.is_empty() {
        return Err(format!("cache: unexpected argument '{}'", args[0]));
    }
    let store =
        CacheStore::open(&root).map_err(|e| format!("opening cache {}: {e}", root.display()))?;
    Ok(match sub.as_str() {
        "ls" => {
            let entries = store.ls();
            let total: u64 = entries.iter().map(|e| e.bytes).sum();
            println!(
                "cache: {} ({} entries)",
                store.root().display(),
                entries.len()
            );
            for e in &entries {
                println!("{:>12} {}", e.bytes, e.key);
            }
            println!("{:>12} total bytes", total);
            ExitCode::SUCCESS
        }
        "gc" => {
            let (removed, freed) = store.gc(max_mib.saturating_mul(1 << 20));
            println!(
                "cache: gc removed {removed} entr{} ({freed} bytes) keeping <= {max_mib} MiB",
                if removed == 1 { "y" } else { "ies" }
            );
            ExitCode::SUCCESS
        }
        "clear" => {
            let removed = store.clear();
            println!(
                "cache: cleared {removed} entr{}",
                if removed == 1 { "y" } else { "ies" }
            );
            ExitCode::SUCCESS
        }
        other => {
            return Err(format!(
                "unknown cache subcommand '{other}' (ls, gc, clear)"
            ))
        }
    })
}

/// `mpgtool serve`: the supervised job runtime driven by the line
/// protocol (submit/status/result/cancel/wait/stats/check/shutdown — see
/// `mpg_serve::proto`). `--script FILE` reads the command stream from a
/// file; `-` or no flag reads stdin. Exit 0 on a completed stream
/// (protocol-level errors are in-band `err` lines), 2 on usage or I/O
/// failure.
fn cmd_serve(mut args: Vec<String>) -> Result<ExitCode, String> {
    use std::time::Duration;
    let script = take_flag(&mut args, "--script");
    let workers: usize = take_num(&mut args, "--workers")?.unwrap_or(2);
    let queue: usize = take_num(&mut args, "--queue")?.unwrap_or(16);
    let deadline_ms: Option<u64> = take_num(&mut args, "--deadline-ms")?;
    let retries: u32 = take_num(&mut args, "--retries")?.unwrap_or(3);
    let retry_base_ms: u64 = take_num(&mut args, "--retry-base-ms")?.unwrap_or(10);
    let chaos_seed: u64 = take_num(&mut args, "--chaos-seed")?.unwrap_or(0);
    let chaos_ops = take_flag(&mut args, "--chaos");
    let cache = take_cache(&mut args)?;
    if let Some(extra) = args.first() {
        return Err(format!("serve: unexpected argument '{extra}'"));
    }
    let chaos = match chaos_ops {
        Some(list) => {
            let fams: Vec<&str> = list.split(',').filter(|s| !s.is_empty()).collect();
            mpg_serve::ChaosPlan::seeded(chaos_seed, &fams)?
        }
        None => mpg_serve::ChaosPlan::none(),
    };
    let rt = mpg_serve::JobRuntime::start(mpg_serve::RuntimeConfig {
        workers,
        queue_depth: queue,
        default_deadline: deadline_ms.map(Duration::from_millis),
        retry: mpg_serve::RetryPolicy {
            attempts: retries.max(1),
            base: Duration::from_millis(retry_base_ms),
            seed: chaos_seed,
        },
        cache,
        chaos,
    });
    let stdout = std::io::stdout();
    let res = match script.as_deref() {
        None | Some("-") => {
            mpg_serve::serve_script(std::io::stdin().lock(), &mut stdout.lock(), &rt)
        }
        Some(path) => {
            let f = std::fs::File::open(path).map_err(|e| format!("serve: opening {path}: {e}"))?;
            mpg_serve::serve_script(std::io::BufReader::new(f), &mut stdout.lock(), &rt)
        }
    };
    rt.shutdown(Duration::from_secs(60));
    res.map_err(|e| format!("serve: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    let run = match cmd.as_str() {
        "demo" => cmd_demo(args),
        "gen" => cmd_gen(args),
        "stats" => cmd_stats(args),
        "validate" => cmd_validate(args),
        "lint" => cmd_lint(args),
        "explore" => cmd_explore(args),
        "analyze" => cmd_analyze(args),
        "fsck" => cmd_fsck(args),
        "replay" => cmd_replay(args),
        "dot" => cmd_dot(args),
        "export" => cmd_export(args),
        "import" => cmd_import(args),
        "timeline" => cmd_timeline(args),
        "diff" => cmd_diff(args),
        "bench" => cmd_bench(args),
        "cache" => cmd_cache(args),
        "serve" => cmd_serve(args),
        _ => return usage(),
    };
    run.unwrap_or_else(|e| fail(&e))
}
