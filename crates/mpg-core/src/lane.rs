//! Lane-batched replay: one graph traversal, K perturbation configs.
//!
//! The engine's scheduling and matching decisions are *drift-independent*:
//! FIFO matching consults only ranks, tags and queue order (§4.1), ready-
//! queue wakeups fire on structural conditions (a record landed on a
//! channel, the last wait request resolved, a collective epoch filled), and
//! request/collective lifecycles follow the traced event sequence. No
//! branch in the traversal reads a drift magnitude, so one pass over the
//! event streams is valid for *every* perturbation config — only the
//! max-plus drift arithmetic and the RNG streams differ.
//!
//! [`lane_replays`] exploits that: configs are grouped into batches of up
//! to [`MAX_LANES`] by [`plan_lanes`], and each batch runs the ready-queue
//! engine once with a `VecBank` — an SoA bank of K drift lanes threaded
//! through every cursor, request slot and collective entry. Each lane owns
//! its own [`PerturbSampler`], which observes exactly the per-(rank, class)
//! call sequence a scalar replay of that config would make, so every lane's
//! report is **bit-identical** to the scalar replay (enforced by the
//! `proptest_lanes` suite).
//!
//! Batch grouping rules: configs must agree on the *structural* knobs that
//! shape the traversal or the observable per-event structure —
//! [`ReplayConfig::ack_arm`] (which completion arms exist),
//! [`ReplayConfig::arrival_bound`] (how receives bound), and
//! [`ReplayConfig::absorption`] (whether measured slack reshapes message
//! arms). Configs recording a graph or carrying a cancel token run as
//! scalar singletons. Model and seed vary freely per lane.

use crate::perturb::PerturbSampler;
use crate::replay::{DriftBank, Engine, EngineKnobs, ReplayConfig, Replayer};
use crate::report::{ArmKind, ReplayError, ReplayReport, ReplayStats};
use crate::{Cycles, Drift};
use mpg_trace::{EventRecord, MemTrace, Rank, TraceError};

/// Widest lane batch: 8 × 8-byte drifts = one cache line per value, wide
/// enough to amortize traversal cost (which the bench gate tracks) while
/// keeping every `SendRecord`/request slot a small fixed-size copy.
pub const MAX_LANES: usize = 8;

/// A fixed-width vector of per-lane drifts. Arithmetic is full-width and
/// branchless — dead lanes (beyond the batch's live count) carry a
/// zero-noise phantom replay whose values stay bounded — while sampling
/// and accounting touch only live lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneVal(pub [Drift; MAX_LANES]);

/// One lane batch produced by [`plan_lanes`]: indices into the planned
/// config slice, at most [`MAX_LANES`] of them, structurally compatible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneBatch {
    /// Config indices sharing one traversal, in input order.
    pub members: Vec<usize>,
}

/// True when two configs agree on every traversal-shaping knob and may
/// share a lane batch.
fn same_structure(a: &ReplayConfig, b: &ReplayConfig) -> bool {
    a.ack_arm == b.ack_arm
        && a.arrival_bound == b.arrival_bound
        && a.absorption == b.absorption
        // Crash tolerance changes what a drained-but-stuck matching means
        // (crash frontier vs. batch-wide error), so lanes must agree on it.
        && a.crash_tolerant == b.crash_tolerant
}

/// Groups configs into lane batches: structurally compatible configs pack
/// into batches of up to [`MAX_LANES`] (first-fit in input order, so the
/// plan is deterministic); graph-recording and cancellable configs become
/// scalar singletons.
pub fn plan_lanes(configs: &[ReplayConfig]) -> Vec<LaneBatch> {
    let mut batches: Vec<LaneBatch> = Vec::new();
    // Open (not yet full) batch per structural key, keyed by an exemplar
    // config index. Config counts are sweep-sized; a linear scan beats
    // hashing a key that contains floats.
    let mut open: Vec<(usize, usize)> = Vec::new();
    for (i, cfg) in configs.iter().enumerate() {
        // Cancel-bearing configs stay singletons: a fired token must not
        // truncate innocent lane-mates sharing the traversal.
        if cfg.record_graph || cfg.cancel.is_some() {
            batches.push(LaneBatch { members: vec![i] });
            continue;
        }
        match open
            .iter()
            .find(|&&(exemplar, _)| same_structure(&configs[exemplar], cfg))
        {
            Some(&(_, b)) => {
                batches[b].members.push(i);
                if batches[b].members.len() == MAX_LANES {
                    open.retain(|&(_, full)| full != b);
                }
            }
            None => {
                batches.push(LaneBatch { members: vec![i] });
                open.push((i, batches.len() - 1));
            }
        }
    }
    batches
}

/// Replays every config over `trace`, sharing one traversal per lane batch.
/// Results come back in config order; each is bit-identical to
/// `Replayer::new(config).run(trace)`, except that `stats.lanes` /
/// `stats.traversals_saved` describe the batch the config rode in.
/// A traversal-level failure (corrupt trace) is reported to every config
/// of the affected batch.
pub fn lane_replays(
    trace: &MemTrace,
    configs: &[ReplayConfig],
) -> Vec<Result<ReplayReport, ReplayError>> {
    let mut out: Vec<Option<Result<ReplayReport, ReplayError>>> =
        (0..configs.len()).map(|_| None).collect();
    for batch in plan_lanes(configs) {
        for (&i, res) in batch
            .members
            .iter()
            .zip(replay_batch(trace, configs, &batch))
        {
            out[i] = Some(res);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every config belongs to exactly one batch"))
        .collect()
}

/// Replays one planned batch (as produced by [`plan_lanes`]): a singleton
/// takes the scalar path — keeping graph recording, cancellation, and the
/// no-lane-overhead codegen — while a wider batch shares one traversal.
/// Returns one result per member, in member order; a traversal-level
/// failure is reported to every member.
pub fn replay_batch(
    trace: &MemTrace,
    configs: &[ReplayConfig],
    batch: &LaneBatch,
) -> Vec<Result<ReplayReport, ReplayError>> {
    if let [single] = batch.members[..] {
        return vec![Replayer::new(configs[single].clone()).run(trace)];
    }
    match run_lane_batch(trace, configs, &batch.members) {
        Ok(reports) => reports.into_iter().map(Ok).collect(),
        Err(e) => batch.members.iter().map(|_| Err(e.clone())).collect(),
    }
}

/// Runs one multi-lane batch through the generic engine.
fn run_lane_batch(
    trace: &MemTrace,
    configs: &[ReplayConfig],
    members: &[usize],
) -> Result<Vec<ReplayReport>, ReplayError> {
    let knobs = EngineKnobs::of(&configs[members[0]]);
    let bank = VecBank::new(members.iter().map(|&i| &configs[i]), trace.num_ranks());
    let streams: Vec<_> = (0..trace.num_ranks())
        .map(|r| {
            trace
                .iter_rank(r)
                .map(Ok as fn(EventRecord) -> Result<EventRecord, TraceError>)
        })
        .collect();
    Engine::new(knobs, bank, streams).run()
}

/// K-lane drift bank: SoA per-lane samplers and tallies behind full-width
/// [`LaneVal`] arithmetic.
pub(crate) struct VecBank {
    /// Live lane count (`samplers.len()`), ≤ [`MAX_LANES`].
    k: usize,
    samplers: Vec<PerturbSampler>,
    model_names: Vec<String>,
    injected: [Drift; MAX_LANES],
    arm_wins: [[u64; 4]; MAX_LANES],
    absorbed: [Drift; MAX_LANES],
    propagated: [Drift; MAX_LANES],
}

impl VecBank {
    pub(crate) fn new<'c>(configs: impl Iterator<Item = &'c ReplayConfig>, ranks: usize) -> Self {
        let mut samplers = Vec::new();
        let mut model_names = Vec::new();
        for cfg in configs {
            samplers.push(PerturbSampler::new(cfg.model.clone(), ranks, cfg.seed));
            model_names.push(cfg.model.name.clone());
        }
        let k = samplers.len();
        assert!(
            (1..=MAX_LANES).contains(&k),
            "lane batch width {k} outside 1..={MAX_LANES}"
        );
        Self {
            k,
            samplers,
            model_names,
            injected: [0; MAX_LANES],
            arm_wins: [[0; 4]; MAX_LANES],
            absorbed: [0; MAX_LANES],
            propagated: [0; MAX_LANES],
        }
    }
}

impl DriftBank for VecBank {
    type Val = LaneVal;

    fn splat(d: Drift) -> LaneVal {
        LaneVal([d; MAX_LANES])
    }

    fn add(a: LaneVal, b: LaneVal) -> LaneVal {
        LaneVal(std::array::from_fn(|i| a.0[i] + b.0[i]))
    }

    fn add_scalar(a: LaneVal, d: Drift) -> LaneVal {
        LaneVal(std::array::from_fn(|i| a.0[i] + d))
    }

    fn max(a: LaneVal, b: LaneVal) -> LaneVal {
        LaneVal(std::array::from_fn(|i| a.0[i].max(b.0[i])))
    }

    fn lane0(v: LaneVal) -> Drift {
        // Only recorded-graph edges read this, and graph recording forces a
        // scalar singleton batch — lane banks never run with a live graph.
        v.0[0]
    }

    fn sample(&mut self, rank: Rank, class: crate::perturb::DeltaClass) -> LaneVal {
        let mut v = [0; MAX_LANES];
        for (lane, sampler) in self.samplers.iter_mut().enumerate() {
            v[lane] = sampler.sample(rank, class);
        }
        LaneVal(v)
    }

    fn sample_os_scaled(&mut self, rank: Rank, work: u64) -> LaneVal {
        let mut v = [0; MAX_LANES];
        for (lane, sampler) in self.samplers.iter_mut().enumerate() {
            v[lane] = sampler.sample_os_scaled(rank, work);
        }
        LaneVal(v)
    }

    fn tally_injected(&mut self, v: LaneVal) {
        for lane in 0..self.k {
            self.injected[lane] += v.0[lane];
        }
    }

    fn note_arm(&mut self, d_end: LaneVal, local: LaneVal, msg: LaneVal, floor: LaneVal) {
        for lane in 0..self.k {
            let (d, l, m, f) = (d_end.0[lane], local.0[lane], msg.0[lane], floor.0[lane]);
            let arm = if d == f && f > l && f > m {
                ArmKind::Floor
            } else if m >= l {
                ArmKind::Message
            } else {
                ArmKind::Local
            };
            self.arm_wins[lane][arm as usize] += 1;
        }
    }

    fn note_collective_arm(&mut self) {
        for lane in 0..self.k {
            self.arm_wins[lane][ArmKind::Collective as usize] += 1;
        }
    }

    fn account_absorption(&mut self, local: LaneVal, msg: LaneVal) {
        for lane in 0..self.k {
            let (l, m) = (local.0[lane], msg.0[lane]);
            self.absorbed[lane] += m.min(l).max(0);
            self.propagated[lane] += (m - l).max(0);
        }
    }

    fn into_reports(
        mut self,
        final_drift: Vec<LaneVal>,
        last_end_local: Vec<Cycles>,
        shared: ReplayStats,
        warnings: Vec<String>,
        graph: Option<crate::graph::EventGraph>,
    ) -> Vec<ReplayReport> {
        debug_assert!(graph.is_none(), "lane batches never record graphs");
        let mut reports = Vec::with_capacity(self.k);
        for lane in 0..self.k {
            let mut stats = shared.clone();
            stats.injected_total = self.injected[lane];
            stats.arm_wins = self.arm_wins[lane];
            stats.absorbed_message_drift = self.absorbed[lane];
            stats.propagated_message_drift = self.propagated[lane];
            stats.lanes = self.k as u32;
            stats.traversals_saved = (self.k - 1) as u64;
            let drifts: Vec<Drift> = final_drift.iter().map(|v| v.0[lane]).collect();
            let projected_finish_local = last_end_local
                .iter()
                .zip(&drifts)
                .map(|(&t, &d)| t.saturating_add_signed(d))
                .collect();
            reports.push(ReplayReport {
                model_name: std::mem::take(&mut self.model_names[lane]),
                final_drift: drifts,
                projected_finish_local,
                warnings: warnings.clone(),
                stats,
                graph: None,
                degradation: None,
                cancelled: None,
            });
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::PerturbationModel;
    use crate::replay::AbsorptionMode;
    use mpg_noise::{Dist, PlatformSignature};

    fn noisy_model(name: &str, seed_mean: f64) -> PerturbationModel {
        let mut m = PerturbationModel::quiet(name);
        m.os_local = Dist::Exponential { mean: seed_mean }.into();
        m.latency = Dist::Exponential {
            mean: seed_mean * 1.4,
        }
        .into();
        m.per_byte = 0.05;
        m
    }

    fn demo_trace() -> MemTrace {
        mpg_sim::Simulation::new(4, PlatformSignature::quiet("lab"))
            .ideal_clocks()
            .run(|ctx| {
                let p = ctx.size();
                for i in 0..10 {
                    ctx.compute(5_000 + 100 * u64::from(ctx.rank()));
                    ctx.sendrecv((ctx.rank() + 1) % p, i, 256, (ctx.rank() + p - 1) % p, i);
                }
                ctx.allreduce(64);
            })
            .unwrap()
            .trace
    }

    /// Strips the batch-shape fields that legitimately differ between a
    /// scalar and a lane-batched run of the same config.
    fn normalized(mut r: ReplayReport) -> ReplayReport {
        r.stats.lanes = 0;
        r.stats.traversals_saved = 0;
        r
    }

    #[test]
    fn lane_batch_matches_scalar_bitwise() {
        let trace = demo_trace();
        let configs: Vec<ReplayConfig> = (0..6)
            .map(|i| {
                ReplayConfig::new(noisy_model(&format!("m{i}"), 300.0 + 50.0 * i as f64))
                    .seed(40 + i)
            })
            .collect();
        let batched = lane_replays(&trace, &configs);
        for (cfg, got) in configs.iter().zip(batched) {
            let got = got.unwrap();
            assert_eq!(got.stats.lanes, 6);
            assert_eq!(got.stats.traversals_saved, 5);
            let scalar = Replayer::new(cfg.clone()).run(&trace).unwrap();
            let (got, scalar) = (normalized(got), normalized(scalar));
            assert_eq!(got.final_drift, scalar.final_drift);
            assert_eq!(got.projected_finish_local, scalar.projected_finish_local);
            assert_eq!(got.stats, scalar.stats);
            assert_eq!(got.warnings, scalar.warnings);
            assert_eq!(got.model_name, scalar.model_name);
        }
    }

    #[test]
    fn plan_groups_by_structural_knobs() {
        let m = PerturbationModel::quiet("q");
        let configs = vec![
            ReplayConfig::new(m.clone()),                     // key A
            ReplayConfig::new(m.clone()).ack_arm(false),      // key B
            ReplayConfig::new(m.clone()).seed(9),             // key A
            ReplayConfig::new(m.clone()).record_graph(true),  // singleton
            ReplayConfig::new(m.clone()).arrival_bound(true), // key C
            ReplayConfig::new(m.clone()).ack_arm(false),      // key B
            ReplayConfig::new(m.clone()).absorption(AbsorptionMode::MeasuredSlack(
                crate::SlackEstimate {
                    latency: 1.0,
                    cycles_per_byte: 0.1,
                    overhead: 5.0,
                },
            )), // key D
        ];
        let plan = plan_lanes(&configs);
        let members: Vec<Vec<usize>> = plan.into_iter().map(|b| b.members).collect();
        assert_eq!(
            members,
            vec![vec![0, 2], vec![1, 5], vec![3], vec![4], vec![6]]
        );
    }

    #[test]
    fn plan_splits_on_crash_tolerance() {
        // A crash-tolerant config must not share a traversal with a strict
        // one: on a partial trace the lanes would diverge error-vs-success.
        let m = PerturbationModel::quiet("q");
        let configs = vec![
            ReplayConfig::new(m.clone()),
            ReplayConfig::new(m.clone()).crash_tolerant(true),
            ReplayConfig::new(m.clone()).seed(1).crash_tolerant(true),
        ];
        let plan = plan_lanes(&configs);
        let members: Vec<Vec<usize>> = plan.into_iter().map(|b| b.members).collect();
        assert_eq!(members, vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn plan_splits_at_max_lanes() {
        let m = PerturbationModel::quiet("q");
        let configs: Vec<ReplayConfig> = (0..MAX_LANES as u64 + 3)
            .map(|i| ReplayConfig::new(m.clone()).seed(i))
            .collect();
        let plan = plan_lanes(&configs);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].members.len(), MAX_LANES);
        assert_eq!(plan[1].members.len(), 3);
    }

    #[test]
    fn structural_split_batches_stay_bit_identical() {
        let trace = demo_trace();
        // Mixed structural knobs: the plan must split, and every config
        // must still match its scalar replay.
        let configs = vec![
            ReplayConfig::new(noisy_model("a", 200.0)).seed(1),
            ReplayConfig::new(noisy_model("b", 300.0))
                .seed(2)
                .ack_arm(false),
            ReplayConfig::new(noisy_model("c", 400.0)).seed(3),
            ReplayConfig::new(noisy_model("d", 500.0))
                .seed(4)
                .arrival_bound(true),
            ReplayConfig::new(noisy_model("e", 600.0))
                .seed(5)
                .ack_arm(false),
        ];
        for (cfg, got) in configs.iter().zip(lane_replays(&trace, &configs)) {
            let scalar = Replayer::new(cfg.clone()).run(&trace).unwrap();
            assert_eq!(
                normalized(got.unwrap()).final_drift,
                normalized(scalar).final_drift
            );
        }
    }

    #[test]
    fn singleton_batch_takes_scalar_path() {
        let trace = demo_trace();
        let configs = vec![ReplayConfig::new(noisy_model("solo", 250.0)).record_graph(true)];
        let reports = lane_replays(&trace, &configs);
        let r = reports.into_iter().next().unwrap().unwrap();
        assert_eq!(r.stats.lanes, 1);
        assert_eq!(r.stats.traversals_saved, 0);
        assert!(r.graph.is_some(), "scalar singleton keeps graph recording");
    }
}
