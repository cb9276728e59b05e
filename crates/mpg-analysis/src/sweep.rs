//! Parallel parameter sweeps: a two-level threads × lanes scheduler.
//!
//! A sensitivity study replays one trace under dozens of perturbation
//! models (E6 runs eight, E13 twelve). Replays are independent, and the
//! traversal itself is drift-independent, so the sweep exploits *both*
//! levels of parallelism:
//!
//! 1. **Lanes** — [`mpg_core::plan_lanes`] packs structurally compatible
//!    configs into batches of up to [`mpg_core::MAX_LANES`]; each batch
//!    pays for one graph traversal no matter how many configs ride it.
//! 2. **Threads** — batches spread across worker threads with a
//!    longest-processing-time (LPT) assignment: the heaviest batch goes to
//!    the least-loaded worker, where a batch's cost is estimated as
//!    `trace events × (BASE + lanes)` — a traversal's fixed
//!    matching/scheduling work plus one unit of drift arithmetic per lane.
//!    This replaces the old round-robin chunking, which could hand one
//!    worker a run of wide batches while another drew only singletons.

use std::num::NonZeroUsize;

use mpg_core::{plan_lanes, replay_batch, LaneBatch, ReplayConfig, ReplayError, ReplayReport};
use mpg_trace::MemTrace;

/// How [`sweep_replays`] maps configs onto traversals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Two-level: lane-batch compatible configs, then spread batches
    /// across threads. The default everywhere.
    Lanes,
    /// One scalar traversal per config, threads only — the pre-lane
    /// behaviour, kept as the baseline `benchmark/` times the lane path
    /// against.
    ThreadsOnly,
}

/// Fixed traversal cost in "lane units": the drift-independent
/// matching/scheduling work a traversal pays once regardless of width.
/// From the sweep bench, a scalar replay costs roughly 4 units of which
/// one is drift arithmetic, so a K-lane batch costs about `BASE + K`.
const BATCH_BASE_COST: u64 = 3;

fn batch_cost(events: u64, width: usize) -> u64 {
    events.max(1) * (BATCH_BASE_COST + width as u64)
}

/// Runs every config against `trace` in parallel (bounded by the machine's
/// available parallelism), lane-batching compatible configs so they share
/// traversals. Results come back in input order.
pub fn parallel_replays(
    trace: &MemTrace,
    configs: Vec<ReplayConfig>,
) -> Vec<Result<ReplayReport, ReplayError>> {
    sweep_replays(trace, &configs, SweepMode::Lanes)
}

/// [`parallel_replays`] with an explicit [`SweepMode`]; the threads-only
/// mode exists for baseline benchmarking and for callers that must avoid
/// lane-batched stats (`lanes` > 1) in their reports.
pub fn sweep_replays(
    trace: &MemTrace,
    configs: &[ReplayConfig],
    mode: SweepMode,
) -> Vec<Result<ReplayReport, ReplayError>> {
    let batches: Vec<LaneBatch> = match mode {
        SweepMode::Lanes => plan_lanes(configs),
        SweepMode::ThreadsOnly => (0..configs.len())
            .map(|i| LaneBatch { members: vec![i] })
            .collect(),
    };
    let workers = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
        .min(batches.len().max(1));
    let mut results: Vec<Option<Result<ReplayReport, ReplayError>>> =
        (0..configs.len()).map(|_| None).collect();

    // Degenerate sweeps gain nothing from spawning: run on the caller's
    // thread, so a single traversal also keeps its natural panic behaviour.
    if workers <= 1 || batches.len() <= 1 {
        for batch in &batches {
            for (&i, res) in batch
                .members
                .iter()
                .zip(replay_batch(trace, configs, batch))
            {
                results[i] = Some(res);
            }
        }
        return results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect();
    }

    // LPT assignment: heaviest batch first onto the least-loaded worker.
    // Deterministic — ties in cost keep plan order (stable sort), ties in
    // load pick the lowest worker index.
    let events = trace.total_events() as u64;
    let mut order: Vec<usize> = (0..batches.len()).collect();
    order.sort_by_key(|&b| std::cmp::Reverse(batch_cost(events, batches[b].members.len())));
    let mut assignment: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
    let mut load = vec![0u64; workers];
    for b in order {
        let w = (0..workers).min_by_key(|&w| load[w]).expect("workers >= 1");
        load[w] += batch_cost(events, batches[b].members.len());
        assignment[w].push(b);
    }

    let outputs: Vec<Vec<(usize, Result<ReplayReport, ReplayError>)>> =
        std::thread::scope(|scope| {
            let batches = &batches;
            let handles: Vec<_> = assignment
                .into_iter()
                .filter(|mine| !mine.is_empty())
                .map(|mine| {
                    // Remember which configs the worker owns so a panic can
                    // name them instead of surfacing a bare join error.
                    let indices: Vec<usize> = mine
                        .iter()
                        .flat_map(|&b| batches[b].members.iter().copied())
                        .collect();
                    let handle = scope.spawn(move || {
                        mine.into_iter()
                            .flat_map(|b| {
                                let batch = &batches[b];
                                batch
                                    .members
                                    .iter()
                                    .copied()
                                    .zip(replay_batch(trace, configs, batch))
                                    .collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                    });
                    (indices, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(indices, h)| {
                    h.join().unwrap_or_else(|payload| {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        panic!("replay worker for config(s) {indices:?} panicked: {msg}")
                    })
                })
                .collect()
        });
    for (i, res) in outputs.into_iter().flatten() {
        results[i] = Some(res);
    }
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_core::{PerturbationModel, Replayer, MAX_LANES};
    use mpg_noise::PlatformSignature;
    use mpg_sim::Simulation;

    fn trace() -> MemTrace {
        Simulation::new(4, PlatformSignature::quiet("t"))
            .ideal_clocks()
            .run(|ctx| {
                let p = ctx.size();
                for _ in 0..5 {
                    ctx.compute(10_000);
                    ctx.sendrecv((ctx.rank() + 1) % p, 0, 128, (ctx.rank() + p - 1) % p, 0);
                }
            })
            .unwrap()
            .trace
    }

    fn config(latency: f64) -> ReplayConfig {
        let model = PerturbationModel::per_message_constant("sweep", latency);
        ReplayConfig::new(model).ack_arm(false)
    }

    #[test]
    fn matches_sequential_and_preserves_order() {
        let trace = trace();
        let configs: Vec<ReplayConfig> = (0..12).map(|i| config(f64::from(i) * 100.0)).collect();
        let parallel = parallel_replays(&trace, configs.clone());
        for (cfg, res) in configs.into_iter().zip(&parallel) {
            let seq = Replayer::new(cfg).run(&trace).unwrap();
            assert_eq!(seq.final_drift, res.as_ref().unwrap().final_drift);
        }
        // Monotone latency sweep → monotone drift (order preserved).
        let drifts: Vec<i64> = parallel
            .iter()
            .map(|r| r.as_ref().unwrap().max_final_drift())
            .collect();
        assert!(drifts.windows(2).all(|w| w[0] <= w[1]), "{drifts:?}");
    }

    #[test]
    fn lane_mode_shares_traversals() {
        // Twelve compatible configs pack into ⌈12/MAX_LANES⌉ batches; the
        // first MAX_LANES reports all carry the full batch width.
        let trace = trace();
        let configs: Vec<ReplayConfig> = (0..12).map(|i| config(f64::from(i) * 100.0)).collect();
        let reports = sweep_replays(&trace, &configs, SweepMode::Lanes);
        let saved: u64 = {
            let mut widths: Vec<u32> = reports
                .iter()
                .map(|r| r.as_ref().unwrap().stats.lanes)
                .collect();
            assert_eq!(widths[0] as usize, MAX_LANES);
            widths.dedup();
            widths.iter().map(|&w| u64::from(w) - 1).sum()
        };
        assert_eq!(saved, 12 - 2, "12 configs in 2 batches save 10 traversals");
    }

    #[test]
    fn threads_only_mode_stays_scalar() {
        let trace = trace();
        let configs: Vec<ReplayConfig> = (0..6).map(|i| config(f64::from(i) * 50.0)).collect();
        for (cfg, res) in
            configs
                .iter()
                .zip(sweep_replays(&trace, &configs, SweepMode::ThreadsOnly))
        {
            let r = res.unwrap();
            assert_eq!(r.stats.lanes, 1);
            assert_eq!(r.stats.traversals_saved, 0);
            let seq = Replayer::new(cfg.clone()).run(&trace).unwrap();
            assert_eq!(seq.final_drift, r.final_drift);
        }
    }

    #[test]
    fn cancellable_sweep_matches_when_idle_and_cuts_when_fired() {
        use mpg_core::CancelToken;
        let trace = trace();
        let configs: Vec<ReplayConfig> = (0..4).map(|i| config(f64::from(i) * 100.0)).collect();
        // Every config carries one shared token.
        let under = |token: &CancelToken| -> Vec<ReplayConfig> {
            configs
                .iter()
                .map(|c| c.clone().cancel_token(token.clone()))
                .collect()
        };
        // Idle token: every report matches its scalar replay and finishes.
        let idle = CancelToken::new();
        for (cfg, res) in configs
            .iter()
            .zip(sweep_replays(&trace, &under(&idle), SweepMode::Lanes))
        {
            let r = res.unwrap();
            assert!(r.cancelled.is_none());
            let seq = Replayer::new(cfg.clone()).run(&trace).unwrap();
            assert_eq!(seq.final_drift, r.final_drift);
        }
        // Pre-fired token: every traversal returns a cancelled partial
        // report — Ok, never Err, never a hang.
        let fired = CancelToken::new();
        fired.cancel();
        for res in sweep_replays(&trace, &under(&fired), SweepMode::Lanes) {
            assert!(res.unwrap().cancelled.is_some());
        }
    }

    #[test]
    fn empty_sweep() {
        assert!(parallel_replays(&trace(), Vec::new()).is_empty());
    }

    #[test]
    fn single_config_runs_in_place() {
        // One config takes the no-spawn path and must match the sequential
        // replay exactly.
        let trace = trace();
        let res = parallel_replays(&trace, vec![config(250.0)]);
        assert_eq!(res.len(), 1);
        let seq = Replayer::new(config(250.0)).run(&trace).unwrap();
        assert_eq!(seq.final_drift, res[0].as_ref().unwrap().final_drift);
    }

    #[test]
    fn mixed_structural_knobs_split_but_match() {
        // Configs that cannot share a batch (different ack/arrival knobs)
        // still come back in order, each matching its scalar replay.
        let trace = trace();
        let m = |n: &str| PerturbationModel::per_message_constant(n, 300.0);
        let configs = vec![
            ReplayConfig::new(m("a")),
            ReplayConfig::new(m("b")).ack_arm(false),
            ReplayConfig::new(m("c")).arrival_bound(true),
            ReplayConfig::new(m("d")),
            ReplayConfig::new(m("e")).ack_arm(false),
        ];
        for (cfg, res) in configs
            .iter()
            .zip(sweep_replays(&trace, &configs, SweepMode::Lanes))
        {
            let seq = Replayer::new(cfg.clone()).run(&trace).unwrap();
            assert_eq!(seq.final_drift, res.unwrap().final_drift);
        }
    }

    #[test]
    fn lpt_balances_mixed_batch_widths() {
        // One full-width batch plus many singletons: LPT must spread the
        // singletons over the other workers rather than stacking them
        // behind the wide batch (round-robin chunking did exactly that).
        let events = 1_000;
        let wide = batch_cost(events, MAX_LANES);
        let single = batch_cost(events, 1);
        // The wide batch outweighs two singletons; with two workers LPT
        // puts it alone and all singletons together whenever possible.
        assert!(wide > 2 * single);
    }

    #[test]
    fn errors_come_back_in_their_slots() {
        // A corrupt trace: every config must report the same error kind.
        let mut mt = MemTrace::new(1);
        mt.push(mpg_trace::EventRecord {
            rank: 0,
            seq: 0,
            t_start: 0,
            t_end: 10,
            kind: mpg_trace::EventKind::Recv {
                peer: 0,
                tag: 0,
                bytes: 0,
                posted_any: false,
            },
        });
        let results = parallel_replays(&mt, vec![config(0.0), config(100.0)]);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_err()));
    }
}
