//! `mpg-benchmark`: process-level walls of the real `mpgtool` on four
//! workloads, and an outside-in per-layer ledger. `run.sh` builds both
//! binaries and starts this one; see README.md for what is measured and why.
//!
//! ```text
//! mpg-benchmark --mpgtool PATH [--bench-dir DIR] [--seed N] [--seconds S]
//!               [--workload NAME [--trace 0|1]] [--self-check]
//! ```
//!
//! With `--workload` and `--trace` it makes one run and ends its output
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`): the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload` it runs all four workloads, untraced
//! then traced, writes `out/results.json`, and exits non-zero if a check
//! failed. `--self-check` makes the untraced set twice and prints, per
//! metric and workload, how far the second is from the first against the
//! metric's bound in `BENCHMARK.json`.

mod e2e;
mod json;
mod layers;
mod metrics;
mod proc;
mod serve;
mod spans;
mod stats;
mod sweep;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use e2e::{Ctx, Report};
use json::Json;
use workloads::{Workload, WORKLOADS};

struct Args {
    mpgtool: String,
    bench_dir: PathBuf,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    self_check: bool,
}

fn parse_args(mut argv: Vec<String>) -> Result<Args, String> {
    let mut take = |flag: &str| -> Result<Option<String>, String> {
        let Some(i) = argv.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= argv.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = argv.remove(i + 1);
        argv.remove(i);
        Ok(Some(value))
    };
    let number = |flag: &str, text: Option<String>, default: f64| match text {
        None => Ok(default),
        Some(t) => t
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or(format!("{flag}: '{t}' is not a non-negative number")),
    };
    let mpgtool = take("--mpgtool")?.ok_or("--mpgtool PATH is required (run.sh passes it)")?;
    let bench_dir = PathBuf::from(take("--bench-dir")?.unwrap_or_else(|| "benchmark".into()));
    let workload = match take("--workload")? {
        None => None,
        Some(name) => Some(workloads::by_name(&name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (one of: {})", known.join(", "))
        })?),
    };
    let seed = number("--seed", take("--seed")?, 1.0)? as u64;
    let seconds = number("--seconds", take("--seconds")?, 22.0)?;
    let trace = match take("--trace")?.as_deref() {
        None => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        Some(other) => return Err(format!("--trace: '{other}' is neither 0 nor 1")),
    };
    let self_check = match argv.iter().position(|a| a == "--self-check") {
        Some(i) => {
            argv.remove(i);
            true
        }
        None => false,
    };
    if let Some(extra) = argv.first() {
        return Err(format!("unexpected argument '{extra}'"));
    }
    Ok(Args {
        mpgtool,
        bench_dir,
        workload,
        seed,
        seconds,
        trace,
        self_check,
    })
}

/// Prints every metric as `name unit value`, then the operation counts.
fn print_report(w: &Workload, kind: &str, report: &Report) {
    println!("# {} ({kind}): {}", w.name, w.why);
    for m in &report.metrics {
        let spread = m
            .quartiles
            .map_or(String::new(), |(q1, q3)| format!(", quartiles {q1} {q3}"));
        println!(
            "{} {} {} (n={}{spread})",
            m.name,
            metrics::unit_of(m.name),
            m.value,
            m.n
        );
    }
    let t = &report.tally;
    println!(
        "failed_share share {} ({} of {} operations)",
        stats::failed_share(t.failed, t.attempted),
        t.failed,
        t.attempted
    );
    for p in &t.problems {
        eprintln!("FAILED CHECK [{}]: {p}", w.name);
    }
}

fn metrics_json(report: &Report) -> String {
    let members: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(metrics::unit_of(m.name))
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The one-line result the driver reads.
fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.tally.problems.is_empty(),
        report.tally.attempted,
        report.tally.failed,
        metrics_json(report)
    )
}

/// One workload's entry of `out/results.json`.
fn results_entry(untraced: &Report, traced: &Report) -> String {
    let problems: Vec<String> = untraced
        .tally
        .problems
        .iter()
        .chain(&traced.tally.problems)
        .map(|p| json::quote(p))
        .collect();
    let mut pins = untraced.pins.clone();
    pins.extend(traced.pins.clone());
    let (attempted, failed) = (
        untraced.tally.attempted + traced.tally.attempted,
        untraced.tally.failed + traced.tally.failed,
    );
    format!(
        "{{\"end_to_end\": {}, \"per_layer\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"failed_share\": {}, \"correct\": {}, \"problems\": [{}], \"pins\": {}}}",
        metrics_json(untraced),
        metrics_json(traced),
        json::number(stats::failed_share(failed, attempted)),
        problems.is_empty(),
        problems.join(", "),
        Json::Obj(pins).render(),
    )
}

/// Untraced then traced, every selected workload; writes `results.json`.
fn run_all(ctx: &Ctx, args: &Args, selected: &[&'static Workload]) -> Result<bool, String> {
    let mut untraced = Vec::new();
    for w in selected {
        let report = e2e::run(ctx, w, args.seed, args.seconds)?;
        print_report(w, "end to end, tracing off", &report);
        untraced.push(report);
    }
    let mut entries = Vec::new();
    let mut clean = true;
    for (w, untraced) in selected.iter().zip(&untraced) {
        let traced = layers::run(ctx, w, args.seed)?;
        print_report(w, "per layer, traced", &traced);
        clean &= untraced.tally.problems.is_empty() && traced.tally.problems.is_empty();
        entries.push(format!(
            "{}: {}",
            json::quote(w.name),
            results_entry(untraced, &traced)
        ));
        e2e::clean(&e2e::work_dir(ctx, w, args.seed));
    }
    let doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"host_cpus\": {}, \"workloads\": {{\n{}\n}}}}\n",
        args.seed,
        json::number(args.seconds),
        proc::host_cpus(),
        entries.join(",\n")
    );
    let path = ctx.out_dir.join("results.json");
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(clean)
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` at the root.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name or bound".to_string())
}

/// Two back-to-back untraced sets and one traced run per workload: the
/// second set must not be worse than the first by more than each metric's
/// bound, and the ledger must attribute the analyze and replay walls.
fn self_check(ctx: &Ctx, args: &Args, selected: &[&'static Workload]) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut sets = Vec::new();
    for set in 1..=2 {
        let mut reports = Vec::new();
        for w in selected {
            eprintln!("self-check: set {set}, {}", w.name);
            reports.push(e2e::run(ctx, w, args.seed, args.seconds)?);
        }
        sets.push(reports);
    }
    let mut clean = true;
    println!("workload metric first second worsening bound verdict");
    for (i, w) in selected.iter().enumerate() {
        let (first, second) = (&sets[0][i], &sets[1][i]);
        for (name, _, lower) in metrics::END_TO_END {
            let (Some(a), Some(b)) = (first.value(name), second.value(name)) else {
                return Err(format!("{}: {name} was not measured", w.name));
            };
            let bound = *bounds
                .get(name)
                .ok_or(format!("BENCHMARK.json: no bound for {name}"))?;
            let worse = stats::worsening(a, b, lower);
            let ok = worse <= bound;
            clean &= ok;
            println!(
                "{} {name} {a} {b} {worse:+.4} {bound} {}",
                w.name,
                if ok { "ok" } else { "OVER" }
            );
        }
        for r in [first, second] {
            clean &= r.tally.problems.is_empty();
            for p in &r.tally.problems {
                eprintln!("FAILED CHECK [{}]: {p}", w.name);
            }
        }
        let traced = layers::run(ctx, w, args.seed)?;
        print_report(w, "per layer, traced", &traced);
        clean &= traced.tally.problems.is_empty();
        for (share, wall) in metrics::UNATTRIBUTED_SHARES {
            let (Some(share_value), Some(wall_s)) = (traced.value(share), first.value(wall)) else {
                return Err(format!("{}: {share} was not measured", w.name));
            };
            let verdict = if wall_s < metrics::MIN_ATTRIBUTED_WALL_S {
                "not judged: the verb is within a few spawn floors"
            } else if share_value <= metrics::MAX_UNATTRIBUTED_SHARE {
                "ok"
            } else {
                clean = false;
                "MISSING STAGE"
            };
            println!(
                "{} {share} {share_value} limit {} {verdict}",
                w.name,
                metrics::MAX_UNATTRIBUTED_SHARE
            );
        }
        e2e::clean(&e2e::work_dir(ctx, w, args.seed));
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir, seed, mode] = &argv[..] {
        if flag == "--sweep-child" {
            let code = sweep::child(dir, seed.parse().unwrap_or(0), mode);
            return ExitCode::from(code as u8);
        }
    }
    if let [flag, verb, dir, seed, traced, out_file] = &argv[..] {
        if flag == "--chain-child" {
            let code = layers::chain_child(
                verb,
                dir,
                seed.parse().unwrap_or(0),
                traced == "1",
                out_file,
            );
            return ExitCode::from(code as u8);
        }
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mpg-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        mpgtool: args.mpgtool.clone(),
        self_exe: std::env::current_exe()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|_| "mpg-benchmark".into()),
        out_dir: args.bench_dir.join("out"),
        expected_dir: args.bench_dir.join("expected"),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("mpg-benchmark: {}: {e}", ctx.out_dir.display());
        return ExitCode::from(2);
    }
    let all: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let selected = args.workload.map_or(all, |w| vec![w]);
    let outcome = match (args.self_check, args.workload, args.trace) {
        (true, _, _) => self_check(&ctx, &args, &selected),
        (false, Some(w), Some(traced)) => {
            let report = if traced {
                layers::run(&ctx, w, args.seed)
            } else {
                e2e::run(&ctx, w, args.seed, args.seconds)
            };
            report.map(|report| {
                let kind = if traced {
                    "per layer, traced"
                } else {
                    "end to end, tracing off"
                };
                print_report(w, kind, &report);
                e2e::clean(&e2e::work_dir(&ctx, w, args.seed));
                println!("{}", result_line(&report));
                // The result line carries the verdict.
                true
            })
        }
        (false, _, _) => run_all(&ctx, &args, &selected),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("mpg-benchmark: a check failed; see FAILED CHECK lines above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("mpg-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
