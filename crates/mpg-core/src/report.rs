//! Replay results: modified completion times, sensitivity accounting,
//! warnings, and error types.

use crate::cancel::CancelReason;
use crate::graph::EventGraph;
use crate::{Cycles, Drift};

/// Which constraint arm determined an event's modified end time (the arms
/// of Eq. 1's `max()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmKind {
    /// The rank's own local path (start drift + local deltas) dominated.
    Local = 0,
    /// An incoming message edge dominated — a remote perturbation
    /// propagated into this rank.
    Message = 1,
    /// A collective hub dominated.
    Collective = 2,
    /// A negative-delta floor bound the result (shrink limit).
    Floor = 3,
}

/// Aggregate replay counters and sensitivity totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events processed across all ranks.
    pub events: u64,
    /// Point-to-point matches resolved.
    pub messages_matched: u64,
    /// Collective operations resolved.
    pub collectives: u64,
    /// Sum of every sampled injected delta (signed).
    pub injected_total: Drift,
    /// Peak number of retained matching-state items (queued sends, pending
    /// receives, open requests, collective entries) — the streaming window's
    /// memory bound (§4.2, E7).
    pub window_high_water: usize,
    /// How many event completions each arm kind decided, indexed by
    /// [`ArmKind`] discriminant.
    pub arm_wins: [u64; 4],
    /// Sum over matches of `max(0, min(message_arm, local_arm))`: incoming
    /// message drift that was *absorbed* — hidden behind the receiver's own
    /// delay, never reaching its completion time (§4.2's "regions where
    /// perturbations are absorbed").
    pub absorbed_message_drift: Drift,
    /// Sum over matches of `max(0, message_arm − local_arm)`: incoming
    /// message drift that *propagated* — pushed the receiver's completion
    /// beyond its own schedule ("fully propagated" regions).
    pub propagated_message_drift: Drift,
    /// Scheduling turns taken by the event-driven engine: how many times a
    /// rank was popped off the ready queue. Bounded by
    /// `events + messages_matched + collective entries` — each turn either
    /// retires at least one event or was triggered by exactly one
    /// resolution (match, acknowledgement, or collective hub).
    pub scheduler_wakeups: u64,
    /// Scheduling turns that elapsed while some rank slept blocked — each
    /// one is a poll the old round-robin engine would have wasted on that
    /// rank. A direct measure of what the wakeup queue saves.
    pub polls_avoided: u64,
    /// Engines whose schedules produced this report: 1 for one engine,
    /// the shard count for a partition-parallel replay. The scheduler
    /// counters describe a schedule only when this is 1; summed over
    /// shards they change from run to run.
    pub engines: u32,
    /// Number of drift lanes that shared the traversal producing this
    /// report: 1 for a scalar replay, the batch width for a lane-batched
    /// sweep replay ([`lane_replays`](crate::lane::lane_replays)).
    pub lanes: u32,
    /// Graph traversals this report's batch avoided (`lanes − 1`): every
    /// lane beyond the first rode the same matching/scheduling pass instead
    /// of paying for its own.
    pub traversals_saved: u64,
}

/// Where one rank's replay stopped when the trace could not describe a
/// completed run (crash-tolerant mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFrontier {
    /// The rank.
    pub rank: u32,
    /// Events this rank completed before the frontier.
    pub events_completed: u64,
    /// `(seq, kind)` of the event the rank was blocked on when matching
    /// drained — its partner is in the lost tail of another rank. `None`
    /// when the rank's stream simply ended early (the crash point itself).
    pub stuck_at: Option<(u64, String)>,
    /// Whether the rank reached its `Finalize` event. A `false` here is
    /// the synthesized crash-exit: the rank's final drift is taken at its
    /// last completed record instead of at `Finalize`.
    pub finalized: bool,
}

/// Degradation accounting for a crash-tolerant replay of a partial trace:
/// how far each damaged rank got and what was left dangling. Present on a
/// [`ReplayReport`] only when the replay actually hit a crash frontier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegradationReport {
    /// One entry per rank that did not complete normally.
    pub frontiers: Vec<RankFrontier>,
    /// Ranks still blocked on a partner when matching drained.
    pub ranks_stuck: usize,
    /// Sends whose receive never arrived (attributable to lost tails).
    pub unmatched_sends: usize,
    /// Receives whose send never arrived.
    pub unmatched_recvs: usize,
    /// Requests still open at the frontier.
    pub open_requests: usize,
}

impl DegradationReport {
    /// One-line summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "crash frontier: {} rank(s) incomplete ({} stuck on lost partners), \
             {} unmatched send(s), {} unmatched receive(s), {} open request(s)",
            self.frontiers.len(),
            self.ranks_stuck,
            self.unmatched_sends,
            self.unmatched_recvs,
            self.open_requests
        )
    }
}

/// Outcome of one replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Name of the perturbation model that was applied.
    pub model_name: String,
    /// Drift of each rank's final (`MPI_Finalize`) end subevent — "a final
    /// modified timestamp on the final node for each processor" (§6),
    /// expressed clock-free as a delta from the traced time.
    pub final_drift: Vec<Drift>,
    /// Each rank's projected finish time in its own local clock
    /// (`traced finalize end + drift`, clamped at 0).
    pub projected_finish_local: Vec<Cycles>,
    /// §4.3 diagnostics, e.g. the unsynchronized-asynchronous-traffic
    /// warning.
    pub warnings: Vec<String>,
    /// Counters and sensitivity totals.
    pub stats: ReplayStats,
    /// Per-rank `(local end time, drift)` samples taken every
    /// `timeline_stride` events; empty when disabled.
    pub timeline: Vec<Vec<(Cycles, Drift)>>,
    /// The recorded message-passing graph when
    /// [`record_graph`](crate::ReplayConfig::record_graph) was set.
    pub graph: Option<EventGraph>,
    /// Crash-frontier accounting, set only when a
    /// [`crash_tolerant`](crate::ReplayConfig::crash_tolerant) replay ran
    /// against a partial trace. `None` means the replay completed normally.
    pub degradation: Option<DegradationReport>,
    /// Set when a [`CancelToken`](crate::CancelToken) or deadline stopped
    /// the replay early: the report is a clean partial frontier (see
    /// `degradation` for how far each rank got). `None` means the replay
    /// ran to completion — such reports are byte-identical to token-free
    /// runs.
    pub cancelled: Option<CancelReason>,
}

impl ReplayReport {
    /// Largest per-rank final drift — the change in job makespan when all
    /// ranks originally finished together.
    pub fn max_final_drift(&self) -> Drift {
        self.final_drift.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-rank final drift.
    pub fn mean_final_drift(&self) -> f64 {
        if self.final_drift.is_empty() {
            return 0.0;
        }
        self.final_drift.iter().map(|&d| d as f64).sum::<f64>() / self.final_drift.len() as f64
    }

    /// Fraction of message completions where the message arm won
    /// (sensitivity: 1.0 = fully communication-coupled).
    pub fn message_domination_ratio(&self) -> f64 {
        let m = self.stats.arm_wins[ArmKind::Message as usize] as f64;
        let l = self.stats.arm_wins[ArmKind::Local as usize] as f64;
        if m + l == 0.0 {
            0.0
        } else {
            m / (m + l)
        }
    }
}

/// Replay failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Reading the trace failed.
    Trace(String),
    /// The traces cannot describe a completed run: matching got stuck or
    /// events are malformed. Carries a diagnosis.
    Corrupt(String),
    /// Ranks disagreed on the collective sequence.
    CollectiveMismatch(String),
    /// A configured [`TraceGate`](crate::TraceGate) rejected the trace
    /// before replay; carries the rendered error-severity diagnostics.
    Gated(Vec<String>),
    /// Graph recording was asked of streams whose per-rank event counts
    /// were not declared (see
    /// [`Replayer::run_streams_with_layout`](crate::Replayer::run_streams_with_layout)).
    NoLayout,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Trace(m) => write!(f, "trace error: {m}"),
            ReplayError::Corrupt(m) => write!(f, "corrupt trace: {m}"),
            ReplayError::CollectiveMismatch(m) => write!(f, "collective mismatch: {m}"),
            ReplayError::NoLayout => {
                write!(f, "graph recording needs each stream's event count")
            }
            ReplayError::Gated(diags) => {
                write!(f, "trace rejected by lint gate ({} error(s))", diags.len())?;
                if let Some(first) = diags.first() {
                    write!(f, ": {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(drifts: Vec<Drift>) -> ReplayReport {
        ReplayReport {
            model_name: "t".into(),
            final_drift: drifts,
            projected_finish_local: vec![],
            warnings: vec![],
            stats: ReplayStats::default(),
            timeline: vec![],
            graph: None,
            degradation: None,
            cancelled: None,
        }
    }

    #[test]
    fn drift_aggregates() {
        let r = report(vec![10, 30, 20]);
        assert_eq!(r.max_final_drift(), 30);
        assert!((r.mean_final_drift() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report() {
        let r = report(vec![]);
        assert_eq!(r.max_final_drift(), 0);
        assert_eq!(r.mean_final_drift(), 0.0);
        assert_eq!(r.message_domination_ratio(), 0.0);
    }

    #[test]
    fn domination_ratio() {
        let mut r = report(vec![0]);
        r.stats.arm_wins[ArmKind::Message as usize] = 3;
        r.stats.arm_wins[ArmKind::Local as usize] = 1;
        assert!((r.message_domination_ratio() - 0.75).abs() < 1e-12);
    }
}
