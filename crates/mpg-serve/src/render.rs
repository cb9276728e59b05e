//! Shared report rendering: the one definition of how a replay or lint
//! result prints, used by both `mpgtool` (solo runs) and the job runtime
//! (service runs). Byte-identity between the two is a chaos-harness
//! invariant, so it is enforced here by construction rather than by
//! keeping two formatting blocks in sync.

use std::fmt::Write as _;

use mpg_core::{PerturbationModel, ReplayConfig, ReplayReport};
use mpg_trace::{Diagnostic, Severity};

/// The `mpgtool replay` perturbation model and config for the given knobs
/// (`--os`, `--latency`, `--per-byte`, `--seed`). One definition so a
/// service replay can never drift from the CLI's.
pub fn replay_config(os_mean: f64, latency: f64, per_byte: f64, seed: u64) -> ReplayConfig {
    let mut model = PerturbationModel::quiet("mpgtool");
    if os_mean > 0.0 {
        model.os_local = mpg_noise::Dist::Exponential { mean: os_mean }.into();
    }
    if latency > 0.0 {
        model.latency = mpg_noise::Dist::Constant(latency).into();
    }
    model.per_byte = per_byte;
    model.name = format!("os={os_mean} latency={latency} per_byte={per_byte}");
    ReplayConfig::new(model).seed(seed)
}

/// Renders a replay report exactly as `mpgtool replay` prints it: model
/// line, per-rank drifts (truncated to 8 beyond 16 ranks), aggregate
/// drift line, scheduler stats (one engine only) and lane stats, warnings,
/// and the degradation
/// frontier when the replay was partial (crash-tolerant or cancelled).
pub fn render_replay_report(report: &ReplayReport) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "model: {}", report.model_name);
    let shown = if report.final_drift.len() > 16 {
        8
    } else {
        report.final_drift.len()
    };
    for (r, (drift, finish)) in report
        .final_drift
        .iter()
        .zip(&report.projected_finish_local)
        .take(shown)
        .enumerate()
    {
        let _ = writeln!(
            o,
            "rank {r:>4}: drift {drift:>12}  projected finish {finish}"
        );
    }
    if shown < report.final_drift.len() {
        let _ = writeln!(o, "  ... ({} more ranks)", report.final_drift.len() - shown);
    }
    let _ = writeln!(
        o,
        "max drift {}, mean {:.0}, message domination {:.2}",
        report.max_final_drift(),
        report.mean_final_drift(),
        report.message_domination_ratio()
    );
    // Summed over several engines, the scheduler counters depend on how
    // the shards' threads interleaved: only one engine's are stable.
    if report.stats.engines <= 1 {
        let _ = writeln!(
            o,
            "scheduler: {} wakeups for {} events ({} matches), {} polls avoided",
            report.stats.scheduler_wakeups,
            report.stats.events,
            report.stats.messages_matched,
            report.stats.polls_avoided
        );
    }
    let _ = writeln!(
        o,
        "lanes: {} lane(s) shared this traversal, {} traversal(s) saved",
        report.stats.lanes, report.stats.traversals_saved
    );
    for w in &report.warnings {
        let _ = writeln!(o, "warning: {w}");
    }
    if let Some(deg) = &report.degradation {
        let _ = writeln!(o, "degradation: {}", deg.summary());
        for f in &deg.frontiers {
            let at = match &f.stuck_at {
                Some((seq, kind)) => format!("stuck at seq {seq} ({kind})"),
                None => "stream ended (crash point)".to_string(),
            };
            let _ = writeln!(
                o,
                "  rank {:>4}: {} events completed, {at}{}",
                f.rank,
                f.events_completed,
                if f.finalized { "" } else { ", no finalize" }
            );
        }
    }
    o
}

/// The exit code `mpgtool lint` and `mpgtool explore` return for a
/// finished run: 1 when any diagnostic is an error, else 0.
pub fn lint_exit_code(diags: &[Diagnostic]) -> u8 {
    u8::from(diags.iter().any(|d| d.severity == Severity::Error))
}

/// Renders sorted lint diagnostics exactly as `mpgtool lint` prints them
/// (the non-JSON branch): one line per shown diagnostic, then the summary
/// with the hidden count. `show_all` ≙ `--all`.
pub fn render_lint_report(
    diags: &[Diagnostic],
    show_all: bool,
    total_events: usize,
    num_ranks: usize,
) -> String {
    let shown: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| show_all || d.severity >= Severity::Warning)
        .collect();
    let mut out = String::new();
    for d in &shown {
        let _ = writeln!(out, "{d}");
    }
    let hidden = diags.len() - shown.len();
    let _ = writeln!(
        out,
        "{}",
        lint_summary(diags, hidden, total_events, num_ranks)
    );
    out
}

/// The lint summary line (shared tail of the lint and explore reports).
fn lint_summary(
    diags: &[Diagnostic],
    hidden: usize,
    total_events: usize,
    num_ranks: usize,
) -> String {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let mut summary = format!(
        "lint: {errors} error(s), {} warning(s), {} advisory(ies) in {} events across {} ranks",
        diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count(),
        diags
            .iter()
            .filter(|d| d.severity == Severity::Info)
            .count(),
        total_events,
        num_ranks
    );
    if hidden > 0 {
        summary.push_str(&format!(" ({hidden} hidden; use --all)"));
    }
    summary
}

/// Renders a schedule-exploration report exactly as `mpgtool explore`
/// prints it (the non-JSON branch): the merged lint + explore
/// diagnostics, one coverage line — always present, so a truncated walk
/// is never silent — then the lint summary. Shared by the solo CLI and
/// `submit explore` service jobs; byte-identity across the two is a test
/// invariant.
pub fn render_explore_report(
    diags: &[Diagnostic],
    stats: &mpg_lint::ExploreStats,
    show_all: bool,
    total_events: usize,
    num_ranks: usize,
) -> String {
    let shown: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| show_all || d.severity >= Severity::Warning)
        .collect();
    let mut out = String::new();
    for d in &shown {
        let _ = writeln!(out, "{d}");
    }
    let _ = writeln!(
        out,
        "explore: {} schedule(s) replayed ({} infeasible), {} pruned, max depth {}; {}",
        stats.explored,
        stats.infeasible,
        stats.pruned,
        stats.max_depth,
        stats.coverage()
    );
    let hidden = diags.len() - shown.len();
    let _ = writeln!(
        out,
        "{}",
        lint_summary(diags, hidden, total_events, num_ranks)
    );
    out
}
