//! Drift-region segmentation (§4.2).
//!
//! "We also can explore how varying parameters affects not only overall
//! runtime, but regions within the graph where perturbations are absorbed
//! or fully propagated, corresponding to tolerant or highly sensitive
//! code, respectively."
//!
//! Regions are a reading of the drifts one traversal leaves on the graph,
//! not a second output of the traversal: [`drift_timeline`] reads a rank's
//! `(t_end, drift)` timeline off a recorded graph (replay with
//! [`record_graph`](crate::ReplayConfig::record_graph)), and
//! [`classify_regions`] segments it into regions classified by how fast
//! drift grows relative to the run's own average — flat stretches are
//! *tolerant* (injected perturbation is absorbed or simply absent), steep
//! stretches are *sensitive*.

use crate::graph::EventGraph;
use crate::{Cycles, Drift};

/// Tolerance classification of one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Drift shrinks or stays flat: perturbations absorbed (or a
    /// noise-reduction replay reclaiming time).
    Tolerant,
    /// Drift grows around the run average.
    Accumulating,
    /// Drift grows much faster than average: highly sensitive code.
    Sensitive,
}

/// One contiguous region of a rank's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Region start (local clock).
    pub t_start: Cycles,
    /// Region end (local clock).
    pub t_end: Cycles,
    /// Drift at region start.
    pub drift_start: Drift,
    /// Drift at region end.
    pub drift_end: Drift,
    /// Classification.
    pub kind: RegionKind,
}

impl Region {
    /// Drift accumulated in the region.
    pub fn drift_gain(&self) -> Drift {
        self.drift_end - self.drift_start
    }

    /// Region span in cycles.
    pub fn span(&self) -> Cycles {
        self.t_end.saturating_sub(self.t_start)
    }
}

/// `rank`'s drift timeline: `(label time, propagated drift)` at every
/// `stride`-th labeled end subevent of the rank, in sequence order — the
/// events the rank completed, sampled at the `stride`-th, `2·stride`-th, …
/// of them. The drifts are [`EventGraph::propagate`]'s, which equal the
/// replay's.
///
/// # Panics
///
/// When `stride` is 0 or `rank` is not a rank of the graph.
pub fn drift_timeline(graph: &EventGraph, rank: usize, stride: usize) -> Vec<(Cycles, Drift)> {
    assert!(stride > 0, "timeline stride must be positive");
    let arena = graph.arena();
    let drift = arena.propagate_dense();
    arena
        .rank_nodes(rank)
        .skip(1)
        .step_by(2)
        .filter_map(|end| arena.label_time(end).map(|t| (t, drift[end as usize])))
        .skip(stride - 1)
        .step_by(stride)
        .collect()
}

/// Segments a timeline into classified regions.
///
/// A sample-to-sample slope below 25% of the run's mean positive slope (or
/// negative) is `Tolerant`; above 4× the mean is `Sensitive`; otherwise
/// `Accumulating`. Adjacent samples with the same class merge.
pub fn classify_regions(timeline: &[(Cycles, Drift)]) -> Vec<Region> {
    if timeline.len() < 2 {
        return Vec::new();
    }
    let (t0, d0) = timeline[0];
    let (t1, d1) = *timeline.last().expect("len >= 2");
    let span = (t1.saturating_sub(t0)).max(1) as f64;
    let mean_slope = ((d1 - d0).max(0) as f64 / span).max(f64::MIN_POSITIVE);

    let mut out: Vec<Region> = Vec::new();
    for w in timeline.windows(2) {
        let (ta, da) = w[0];
        let (tb, db) = w[1];
        let dt = (tb.saturating_sub(ta)).max(1) as f64;
        let slope = (db - da) as f64 / dt;
        let kind = if slope <= 0.25 * mean_slope {
            RegionKind::Tolerant
        } else if slope >= 4.0 * mean_slope {
            RegionKind::Sensitive
        } else {
            RegionKind::Accumulating
        };
        match out.last_mut() {
            Some(last) if last.kind == kind => {
                last.t_end = tb;
                last.drift_end = db;
            }
            _ => out.push(Region {
                t_start: ta,
                t_end: tb,
                drift_start: da,
                drift_end: db,
                kind,
            }),
        }
    }
    out
}

/// Fraction of a rank's (timeline-covered) span spent in each class:
/// `(tolerant, accumulating, sensitive)`.
pub fn region_shares(regions: &[Region]) -> (f64, f64, f64) {
    let total: u64 = regions.iter().map(Region::span).sum();
    if total == 0 {
        return (0.0, 0.0, 0.0);
    }
    let share = |k: RegionKind| {
        regions
            .iter()
            .filter(|r| r.kind == k)
            .map(Region::span)
            .sum::<u64>() as f64
            / total as f64
    };
    (
        share(RegionKind::Tolerant),
        share(RegionKind::Accumulating),
        share(RegionKind::Sensitive),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PerturbationModel, ReplayConfig, Replayer};
    use mpg_noise::{Dist, PlatformSignature};

    /// One rank computing 100 × 1 000 cycles on a quiet platform, replayed
    /// with 10 cycles of OS noise on every compute: the rank's `k`-th
    /// event (Init, 1 000 cycles, is the first) ends at `1000·k` and has
    /// gathered `10·(k − 1)` cycles of drift.
    #[test]
    fn drift_timeline_reads_every_stride_th_event_end() {
        let trace = mpg_sim::Simulation::new(1, PlatformSignature::quiet("lab"))
            .ideal_clocks()
            .run(|ctx| {
                for _ in 0..100 {
                    ctx.compute(1_000);
                }
            })
            .unwrap()
            .trace;
        let mut model = PerturbationModel::quiet("m");
        model.os_local = Dist::Constant(10.0).into();
        let report = Replayer::new(ReplayConfig::new(model).record_graph(true))
            .run(&trace)
            .unwrap();
        let graph = report.graph.as_ref().expect("recorded");
        let expected: Vec<(Cycles, Drift)> = (1..=10)
            .map(|i| (1_000 * 10 * i, 10 * (10 * i as Drift - 1)))
            .collect();
        assert_eq!(drift_timeline(graph, 0, 10), expected);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(classify_regions(&[]).is_empty());
        assert!(classify_regions(&[(100, 5)]).is_empty());
    }

    #[test]
    fn uniform_growth_is_one_accumulating_region() {
        let tl: Vec<(u64, i64)> = (0..10).map(|i| (i * 100, i as i64 * 50)).collect();
        let regions = classify_regions(&tl);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].kind, RegionKind::Accumulating);
        assert_eq!(regions[0].drift_gain(), 450);
    }

    #[test]
    fn flat_then_spike_splits() {
        // A long tolerant stretch followed by a short burst much steeper
        // than the run average.
        let mut tl: Vec<(u64, i64)> = (0..16).map(|i| (i * 100, 0)).collect();
        tl.extend((16..20).map(|i| (i * 100, (i as i64 - 15) * 5_000)));
        let regions = classify_regions(&tl);
        assert!(regions.len() >= 2, "{regions:?}");
        assert_eq!(regions.first().unwrap().kind, RegionKind::Tolerant);
        assert_eq!(regions.last().unwrap().kind, RegionKind::Sensitive);
        let (tol, _acc, sens) = region_shares(&regions);
        assert!(tol > 0.5, "tolerant share {tol}");
        assert!(sens > 0.1, "sensitive share {sens}");
    }

    #[test]
    fn negative_drift_is_tolerant() {
        let tl: Vec<(u64, i64)> = (0..6).map(|i| (i * 100, -(i as i64) * 10)).collect();
        let regions = classify_regions(&tl);
        assert!(regions.iter().all(|r| r.kind == RegionKind::Tolerant));
    }

    #[test]
    fn shares_sum_to_one() {
        let tl: Vec<(u64, i64)> = (0..20)
            .map(|i| (i * 100, if i < 10 { 0 } else { (i as i64 - 9) * 200 }))
            .collect();
        let (a, b, c) = region_shares(&classify_regions(&tl));
        assert!((a + b + c - 1.0).abs() < 1e-9);
    }
}
