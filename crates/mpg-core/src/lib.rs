#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The message-passing graph analyzer — the paper's primary contribution.
//!
//! Given per-rank event traces of a completed message-passing run, this
//! crate:
//!
//! 1. **pairs events across processors using execution order only** (§4.1 —
//!    no clock synchronization; traces may carry arbitrarily skewed local
//!    clocks);
//! 2. **builds the message-passing graph**: each event splits into start/end
//!    subevents connected by *local edges* (weighted with the traced
//!    interval) and *message edges* (weighted zero — "the effects of latency
//!    and bandwidth are already embedded in the timings", §6), with the
//!    Fig. 2/3/4 subgraph shapes for blocking, nonblocking and collective
//!    primitives;
//! 3. **injects perturbations** — OS noise on local edges, latency and
//!    size-dependent transfer deltas on message edges, sampled from
//!    parametric or empirical distributions (§5) — and
//! 4. **propagates them with `max()` operators** (Eq. 1/2) while streaming
//!    the trace through a bounded window (§4.2), producing modified
//!    per-rank completion times and absorbed-vs-propagated sensitivity
//!    accounting; per-rank drift timelines and their tolerant/sensitive
//!    regions are read off the recorded graph ([`regions`]).
//!
//! # Drift space
//!
//! Replay works in *drift space*: every subevent `v` gets a drift
//! `D(v) = t'(v) − t(v)` relative to its original occurrence in **its own
//! rank's clock**, so no cross-rank timestamp is ever compared (the
//! wall-clock formulation of Eq. 1 needs a common clock; the drift
//! formulation is the clock-free equivalent). Zero injected perturbation
//! yields `D ≡ 0`: the replay reproduces the original run exactly, a
//! property the test suite enforces.
//!
//! The paper's future-work items are implemented as options: negative
//! deltas (replaying toward a *less* noisy platform, §6/§7) and a
//! measured-slack absorption mode that — deliberately — trusts cross-rank
//! clocks, demonstrating why §4.1 avoids them.
//!
//! # Example
//!
//! ```
//! use mpg_core::{ReplayConfig, PerturbationModel, Replayer};
//! use mpg_sim::Simulation;
//! use mpg_noise::{Dist, PlatformSignature};
//!
//! // Trace a 4-rank job on a quiet platform…
//! let out = Simulation::new(4, PlatformSignature::quiet("lab"))
//!     .run(|ctx| {
//!         ctx.compute(50_000);
//!         ctx.allreduce(64);
//!     })
//!     .unwrap();
//!
//! // …then ask: what if every local phase lost ~2000 cycles to the OS?
//! let mut model = PerturbationModel::quiet("target");
//! model.os_local = Dist::Exponential { mean: 2000.0 }.into();
//! let report = Replayer::new(ReplayConfig::new(model).seed(7))
//!     .run(&out.trace)
//!     .unwrap();
//! assert!(report.max_final_drift() > 0);
//! ```

pub mod arena;
pub mod cache;
pub mod cancel;
pub mod critical;
pub mod dot;
pub mod feasible;
pub mod forced;
pub mod graph;
pub mod hb;
pub mod lane;
pub mod mpga;
pub mod perturb;
pub mod regions;
pub mod replay;
pub mod report;
pub(crate) mod shard;
pub mod stream;
pub mod timeline;

pub use arena::{Csr, GraphArena, NodeDrifts, NodeIdx};
pub use cache::{
    cached_hb_index, cached_recorded_graph, ArtifactKind, CacheEntry, CacheStore, CachedReport,
    CACHE_SCHEMA,
};
pub use cancel::{CancelReason, CancelToken, CHECK_INTERVAL};
pub use critical::{critical_path, CriticalPath};
pub use feasible::{
    drift_slack, drift_slack_cancellable, predictable, predicted_graph, DriftSlack, SlackSweep,
    StaticPath,
};
pub use forced::{ForcedMatch, ForcedOutcome, MatchPlan};
pub use graph::{Edge, EventGraph, NodeId, Point};
pub use hb::{EventId, HbColumns, HbIndex};
pub use lane::{lane_replays, plan_lanes, replay_batch, LaneBatch, MAX_LANES};
pub use mpga::{decode_arena, encode_arena, MpgaError, MPGA_VERSION};
pub use perturb::{DeltaClass, PerturbationModel, SignedDist};
pub use regions::{classify_regions, drift_timeline, region_shares, Region, RegionKind};
pub use replay::{AbsorptionMode, ReplayConfig, Replayer, SlackEstimate};
pub use report::{
    ArmKind, DegradationReport, RankFrontier, ReplayError, ReplayReport, ReplayStats,
};
pub use timeline::{phases, render_phases, Phase, PhaseKind};

/// Cycle-denominated time (same unit across the workspace).
pub type Cycles = u64;
/// Signed drift in cycles.
pub type Drift = i64;
