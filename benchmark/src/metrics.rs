//! Names, units and directions of every metric, in the order they are
//! printed. `BENCHMARK.json` lists the same metrics and holds the bounds; a
//! test keeps the two in step.

/// (name, unit, lower is better)
pub type Metric = (&'static str, &'static str, bool);

/// What a user of `mpgtool` sees: walls and peak memory of real
/// invocations, service throughput and latency, and set-up time.
pub const END_TO_END: [Metric; 12] = [
    ("setup_s", "s", true),
    ("replay_wall_s", "s", true),
    ("replay_ooc_wall_s", "s", true),
    ("replay_peak_rss_mib", "MiB", true),
    ("analyze_wall_s", "s", true),
    ("analyze_peak_rss_mib", "MiB", true),
    ("lint_wall_s", "s", true),
    ("lint_peak_rss_mib", "MiB", true),
    ("explore_wall_s", "s", true),
    ("sweep_wall_s", "s", true),
    ("serve_jobs_per_s", "jobs/s", false),
    ("serve_job_p50_ms", "ms", true),
];

/// Single layers, named crate.what.
pub const PER_LAYER: [Metric; 60] = [
    ("sim.gen_events_per_s", "events/s", false),
    ("trace.save_events_per_s", "events/s", false),
    ("trace.fingerprint_ms", "ms", true),
    ("trace.ooc_open_ms", "ms", true),
    ("trace.ooc_decode_events_per_s", "events/s", false),
    ("trace.load_events_per_s", "events/s", false),
    ("trace.memtrace_rss_mib", "MiB", true),
    ("trace.validate_ms", "ms", true),
    ("noise.sample_ns", "ns", true),
    ("core.replay_events_per_s", "events/s", false),
    ("core.replay_ooc_events_per_s", "events/s", false),
    ("core.replay_sharded_events_per_s", "events/s", false),
    ("host_cpus", "count", false),
    ("core.replay_wakeups_per_event", "ratio", true),
    ("core.record_graph_events_per_s", "events/s", false),
    ("core.graph_nodes", "count", true),
    ("core.graph_edges", "count", true),
    ("core.graph_rss_mib", "MiB", true),
    ("core.hb_build_ms", "ms", true),
    ("core.hb_rss_mib", "MiB", true),
    ("core.feasible_sweep_ms", "ms", true),
    ("core.drift_slack_ms", "ms", true),
    ("core.lane_configs_per_s", "configs/s", false),
    ("core.lane_traversals_saved", "count", false),
    ("core.mpga_encode_ms", "ms", true),
    ("core.mpga_decode_ms", "ms", true),
    ("core.mpga_bytes", "bytes", true),
    ("core.cache_put_ms", "ms", true),
    ("core.cache_get_hit_ms", "ms", true),
    ("core.cache_report_hit_ms", "ms", true),
    ("cli.analyze_warm_ms", "ms", true),
    ("lint.run_progress_ms", "ms", true),
    ("lint.context_build_ms", "ms", true),
    ("lint.pass.causality_ms", "ms", true),
    ("lint.pass.race_ms", "ms", true),
    ("lint.pass.perf_ms", "ms", true),
    ("lint.pass.sync_ms", "ms", true),
    ("lint.race_findings", "count", true),
    ("lint.analyze_graph_ms", "ms", true),
    ("lint.forced_replay_ms", "ms", true),
    ("lint.explore_schedules_per_s", "1/s", false),
    ("lint.explore_useful_share", "share", false),
    ("lint.overlap_ratio", "ratio", false),
    ("analysis.sweep_configs_per_s", "configs/s", false),
    (
        "analysis.sweep_threads_only_configs_per_s",
        "configs/s",
        false,
    ),
    ("cli.spawn_floor_ms", "ms", true),
    ("cli.analyze_unattributed_share", "share", true),
    ("cli.replay_unattributed_share", "share", true),
    ("serve.inproc_jobs_per_s_w1", "jobs/s", false),
    ("serve.inproc_jobs_per_s_w2", "jobs/s", false),
    ("serve.worker_scaling", "ratio", false),
    ("serve.submit_to_done_p50_ms", "ms", true),
    ("serve.submit_to_done_p99_ms", "ms", true),
    ("serve.warm_jobs_per_s", "jobs/s", false),
    ("serve.cache_hit_share", "share", false),
    ("serve.failed_jobs", "count", true),
    ("des.dimemas_events_per_s", "events/s", false),
    ("des.graph_over_des_ratio", "ratio", false),
    ("bench.trace_overhead_ms", "ms", true),
    ("bench.failed_share", "share", true),
];

/// Above this share of a verb's wall the ledger is missing a stage.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.20;

/// The unattributed shares and the wall each is a share of. Below
/// `MIN_ATTRIBUTED_WALL_S` the wall is a few process starts (2 ms each,
/// repeating within a tenth at best), and the share is printed, not judged.
pub const UNATTRIBUTED_SHARES: [(&str, &str); 2] = [
    ("cli.analyze_unattributed_share", "analyze_wall_s"),
    ("cli.replay_unattributed_share", "replay_wall_s"),
];
pub const MIN_ATTRIBUTED_WALL_S: f64 = 0.010;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads::WORKLOADS;

    fn names_units_better(list: &Json) -> Vec<(String, String, bool)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("unit"), s("better") == "lower")
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, bool)> {
        list.iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            names_units_better(doc.get("end_to_end").unwrap()),
            ours(&END_TO_END)
        );
        assert_eq!(
            names_units_better(doc.get("per_layer").unwrap()),
            ours(&PER_LAYER)
        );
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap(),
                    w.get("why").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, expected);
        for m in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit_of(name).len() <= 16);
        }
    }
}
