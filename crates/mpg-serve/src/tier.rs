//! The report tier (DESIGN §14.4 tier 1): every report key, and the one
//! lookup and publish path that `mpgtool` and the job runtime both go
//! through, so a CLI run and a service job with the same options warm
//! each other.
//!
//! A key names every option that shapes the rendered bytes. A service job
//! keys as its CLI twin given no output flags: `submit lint DIR` as
//! `mpgtool lint DIR`, `submit explore DIR budget=B seed=S` as `mpgtool
//! explore DIR --budget B --seed S`, `submit replay DIR …` as `mpgtool
//! replay DIR` with the same knobs. The key strings are part of the cache
//! format: editing one turns every existing cache directory cold.

use std::ops::ControlFlow;

use mpg_core::{ArtifactKind, CacheStore, CachedReport, ReplayConfig};
use mpg_lint::ExploreOptions;
use mpg_trace::Rule;

fn report_key(trace_key: &str, config: &str) -> String {
    CacheStore::artifact_key(trace_key, ArtifactKind::Report, config)
}

/// `--deny` rules as a key names them: codes sorted and comma-joined, so
/// the order the flags came in does not matter.
fn deny_codes(deny: &[Rule]) -> String {
    let mut codes: Vec<&str> = deny.iter().map(|r| r.code()).collect();
    codes.sort_unstable();
    codes.join(",")
}

fn lint_config(json: bool, all: bool, deny: &[Rule]) -> String {
    format!(
        "cmd=lint;json={json};all={all};deny={};rules={}",
        deny_codes(deny),
        mpg_lint::ruleset_fingerprint()
    )
}

fn explore_config(json: bool, all: bool, deny: &[Rule], opts: &ExploreOptions) -> String {
    format!(
        "cmd=explore;json={json};all={all};deny={};{};rules={}",
        deny_codes(deny),
        opts.fingerprint(),
        mpg_lint::ruleset_fingerprint()
    )
}

fn analyze_config(json: bool, top: usize, cfg: &ReplayConfig) -> String {
    format!(
        "cmd=analyze;json={json};top={top};thresholds={:?};{}",
        mpg_lint::PerfThresholds::default(),
        cfg.fingerprint()
    )
}

fn replay_config_key(
    (os_mean, latency, per_byte, seed): (f64, f64, f64, u64),
    shards: usize,
    lint: bool,
    cfg: &ReplayConfig,
) -> String {
    format!(
        "cmd=replay;os={os_mean};latency={latency};per_byte={per_byte};seed={seed};\
         shards={shards};lint={lint};{}",
        cfg.fingerprint()
    )
}

/// The report key of `mpgtool lint` with `--json`, `--all` and the
/// `--deny` rules on the trace whose content key is `trace_key`. A
/// service lint job is `false, false, &[]`.
pub fn lint_report_key(trace_key: &str, json: bool, all: bool, deny: &[Rule]) -> String {
    report_key(trace_key, &lint_config(json, all, deny))
}

/// The report key of `mpgtool explore`: [`lint_report_key`]'s flags plus
/// every explore option that changes the walk (`opts.fingerprint()`).
pub fn explore_report_key(
    trace_key: &str,
    json: bool,
    all: bool,
    deny: &[Rule],
    opts: &ExploreOptions,
) -> String {
    report_key(trace_key, &explore_config(json, all, deny, opts))
}

/// The report key of `mpgtool analyze` with `--json` and `--top`, `cfg`
/// being its recording replay's config.
pub fn analyze_report_key(trace_key: &str, json: bool, top: usize, cfg: &ReplayConfig) -> String {
    report_key(trace_key, &analyze_config(json, top, cfg))
}

/// The report key of `mpgtool replay` with the knobs `(os_mean, latency,
/// per_byte, seed)` — what [`replay_config`](crate::replay_config) built
/// `cfg` from. `shards` and `lint` are the replay's `--shards N` and
/// `--lint` (a service job replays as `1, false`).
pub fn replay_report_key(
    trace_key: &str,
    knobs: (f64, f64, f64, u64),
    shards: usize,
    lint: bool,
    cfg: &ReplayConfig,
) -> String {
    report_key(trace_key, &replay_config_key(knobs, shards, lint, cfg))
}

/// Where one run keeps its finished report: the store, the trace's
/// content key (the arena and clock artifacts are keyed by it too) and
/// the key the report's `(exit code, stdout)` is memoized under.
pub struct ReportTier<'a> {
    store: &'a CacheStore,
    trace_key: String,
    key: String,
}

impl<'a> ReportTier<'a> {
    /// Looks up the report `report_key` derives from `trace_key`, the
    /// trace's content key. A hit breaks with the cached report; a miss
    /// continues with the tier the run publishes to. A damaged or foreign
    /// artifact is a miss.
    pub fn open(
        store: &'a CacheStore,
        trace_key: String,
        report_key: impl FnOnce(&str) -> String,
    ) -> ControlFlow<CachedReport, Self> {
        let key = report_key(&trace_key);
        match store.get_report(&key) {
            Some(hit) => ControlFlow::Break(hit),
            None => ControlFlow::Continue(ReportTier {
                store,
                trace_key,
                key,
            }),
        }
    }

    /// The store and trace key the arena and clock artifacts go through.
    pub fn artifacts(&self) -> (&'a CacheStore, &str) {
        (self.store, &self.trace_key)
    }

    /// Publishes a completed run's exit code and stdout. Only a run that
    /// went to its end may publish: a report a token cut short would warm
    /// every later run with a partial answer. A failed write is nonfatal —
    /// the run already has its output.
    pub fn publish(&self, exit_code: u8, stdout: &str) {
        let report = CachedReport {
            exit_code,
            stdout: stdout.to_string(),
        };
        let _ = self.store.put_report(&self.key, &report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_core::PerturbationModel;

    /// The text each key hashes. A cache directory written by an earlier
    /// build stays warm only while these are unchanged.
    #[test]
    fn key_strings_are_pinned() {
        let rules = mpg_lint::ruleset_fingerprint();
        let deny = [Rule::WildRace, Rule::Deadlock];
        assert_eq!(
            lint_config(true, false, &deny),
            format!("cmd=lint;json=true;all=false;deny=MPG-DEADLOCK,MPG-WILD-RACE;rules={rules}")
        );
        let opts = ExploreOptions::cli_default().budget(32);
        assert_eq!(
            explore_config(false, true, &[], &opts),
            format!(
                "cmd=explore;json=false;all=true;deny=;{};rules={rules}",
                opts.fingerprint()
            )
        );
        let cfg = ReplayConfig::new(PerturbationModel::quiet("analyze")).record_graph(true);
        assert_eq!(
            analyze_config(false, 5, &cfg),
            format!(
                "cmd=analyze;json=false;top=5;thresholds={:?};{}",
                mpg_lint::PerfThresholds::default(),
                cfg.fingerprint()
            )
        );
        let cfg = crate::replay_config(500.0, 700.0, 0.05, 3);
        assert_eq!(
            replay_config_key((500.0, 700.0, 0.05, 3), 2, true, &cfg),
            format!(
                "cmd=replay;os=500;latency=700;per_byte=0.05;seed=3;shards=2;lint=true;{}",
                cfg.fingerprint()
            )
        );
        // Each public key is the report artifact key of its string.
        let report = |config: &str| CacheStore::artifact_key("t", ArtifactKind::Report, config);
        assert_eq!(
            lint_report_key("t", true, false, &deny),
            report(&lint_config(true, false, &deny))
        );
        assert_eq!(
            explore_report_key("t", false, true, &[], &opts),
            report(&explore_config(false, true, &[], &opts))
        );
        let quiet = ReplayConfig::new(PerturbationModel::quiet("analyze")).record_graph(true);
        assert_eq!(
            analyze_report_key("t", false, 5, &quiet),
            report(&analyze_config(false, 5, &quiet))
        );
        assert_eq!(
            replay_report_key("t", (500.0, 700.0, 0.05, 3), 2, true, &cfg),
            report(&replay_config_key((500.0, 700.0, 0.05, 3), 2, true, &cfg))
        );
    }

    #[test]
    fn deny_order_does_not_change_the_key() {
        let a = lint_report_key("t", false, false, &[Rule::Deadlock, Rule::WildRace]);
        let b = lint_report_key("t", false, false, &[Rule::WildRace, Rule::Deadlock]);
        assert_eq!(a, b);
        assert_ne!(a, lint_report_key("t", false, false, &[]));
    }
}
