//! The streaming perturbation replay engine (§4.2, §6).
//!
//! "As the graph is streamed through the tool, the `max()` operators defined
//! in Section 3 are applied to modify the times of each node in the graph
//! based on the simulated perturbation deltas added to both message and
//! local edges. The end result is a final modified timestamp on the final
//! node for each processor corresponding to the `MPI_Finalize` event."
//!
//! # Constraint semantics (drift space)
//!
//! With `D(v) = t'(v) − t(v)` per subevent in its own rank's clock:
//!
//! * gap & local edges: `D(start_i) = D(end_{i-1})`; a compute interval ends
//!   at `D(end) = max(D(start) + δ_os, floor)`;
//! * blocking pair (Eq. 1 / Fig. 2):
//!   `D(recv_end) = max(D(recv_start), D(send_start) + δ_λ1 + δ_t(d) + δ_os2)`,
//!   `D(send_end) = max(D(send_start) + δ_os1, D(recv_end) + δ_λ2)`;
//! * nonblocking (Eq. 2 / Fig. 3): isend/irecv ends carry their start
//!   drifts; the matched `Wait` end receives the message/ack arms;
//! * collectives (Fig. 4): `hub = max_i(D(enter_i) + lδ_i)` with `lδ_i`
//!   sampling ⌈log₂ p⌉ rounds of noise + latency + transfer; every rank
//!   leaves with the hub drift.
//!
//! The *floor* arms implement the future-work negative-delta mode: an event
//! may finish earlier than traced, but a compute interval can shrink by at
//! most its originally-stolen time (`duration − work`), any other interval
//! by at most its duration, and nothing ever completes before its
//! dependencies.
//!
//! Matching is order-only (§4.1); cross-rank timestamps are consulted only
//! in the optional [`AbsorptionMode::MeasuredSlack`] mode, which exists to
//! demonstrate why the paper avoids them.

use std::collections::VecDeque;

use crate::arena::GraphArena;
use crate::cancel::{CancelReason, CancelToken, CHECK_INTERVAL};
use crate::graph::{Edge, EventGraph, NodeId};
use crate::perturb::{DeltaClass, PerturbSampler, PerturbationModel};
use crate::report::{
    ArmKind, DegradationReport, RankFrontier, ReplayError, ReplayReport, ReplayStats,
};
use crate::shard::{Envelope, Inbox, ShardCtx};
use crate::stream::{MatchState, PendingRecv, SendRecord, SenderRef};

use crate::{Cycles, Drift};
use mpg_trace::{EventKind, EventRecord, MemTrace, Rank, ReqId, TraceError};

/// How receiver-side slack interacts with incoming message drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbsorptionMode {
    /// Order-only (the paper's default): a delayed sender delays the
    /// receiver's completion by its full drift. Conservative, but valid
    /// with arbitrarily skewed per-rank clocks.
    Conservative,
    /// Estimate per-message slack from cross-rank timestamps:
    /// `slack = max(0, t(recv_end) − t(send_start) − est(bytes))`, and
    /// subtract it from the message arm. **Requires synchronized trace
    /// clocks** — under skewed clocks this produces garbage, which is
    /// exactly the §4.1 argument for order-only matching (experiment E-abl).
    MeasuredSlack(SlackEstimate),
}

/// Transfer-time estimate used by [`AbsorptionMode::MeasuredSlack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackEstimate {
    /// Estimated one-way latency (cycles).
    pub latency: f64,
    /// Estimated per-byte transfer cost (cycles/byte).
    pub cycles_per_byte: f64,
    /// Estimated per-operation software overhead (cycles).
    pub overhead: f64,
}

impl SlackEstimate {
    fn transfer(&self, bytes: u64) -> f64 {
        self.overhead + self.latency + self.cycles_per_byte * bytes as f64
    }
}

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The injected-perturbation model.
    pub model: PerturbationModel,
    /// RNG seed; replays are deterministic under (trace, model, seed).
    pub seed: u64,
    /// Slack handling (default [`AbsorptionMode::Conservative`]).
    pub absorption: AbsorptionMode,
    /// Model sends as synchronous (acknowledgement arm of Eq. 1, default
    /// `true`). Set `false` to replay traces taken under an eager protocol.
    pub ack_arm: bool,
    /// Record the walked graph into the report (memory ∝ trace size; off by
    /// default to preserve the streaming bound).
    pub record_graph: bool,
    /// Assume receive completions were **arrival-dominated**: the local arm
    /// of a message-completing event becomes its shrink floor instead of its
    /// start drift, letting *negative* message deltas pull completions
    /// earlier. Required for meaningful noise-reduction replays (§7 future
    /// work); identity replays still produce zero drift. Default `false`
    /// (the paper's conservative posted-bound semantics).
    pub arrival_bound: bool,
    /// Accept partial rank streams (salvaged traces): when matching drains
    /// with ranks still blocked — their partners are in a lost tail — the
    /// replay stops at the crash frontier and reports per-rank degradation
    /// instead of failing with the no-progress diagnostic. Ranks whose
    /// stream ends before `Finalize` get a synthesized crash-exit at their
    /// last valid record. Default `false` (a stuck matching is an error).
    pub crash_tolerant: bool,
    /// Cooperative cancellation: when set, the engine polls the token
    /// every [`CHECK_INTERVAL`] events and, on a hit, stops at a clean
    /// frontier, returning a partial report with
    /// [`ReplayReport::cancelled`] set and crash-frontier degradation
    /// accounting. Deliberately excluded from [`ReplayConfig::fingerprint`]:
    /// a run the token never interrupts is byte-identical to a token-free
    /// run (cancelled runs must not be cached).
    pub cancel: Option<CancelToken>,
}

impl ReplayConfig {
    /// Defaults: conservative absorption, synchronous sends, no graph
    /// recording.
    pub fn new(model: PerturbationModel) -> Self {
        Self {
            model,
            seed: 0,
            absorption: AbsorptionMode::Conservative,
            ack_arm: true,
            record_graph: false,
            arrival_bound: false,
            crash_tolerant: false,
            cancel: None,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the absorption mode.
    pub fn absorption(mut self, mode: AbsorptionMode) -> Self {
        self.absorption = mode;
        self
    }

    /// Enables/disables the synchronous acknowledgement arm.
    pub fn ack_arm(mut self, on: bool) -> Self {
        self.ack_arm = on;
        self
    }

    /// Enables graph recording.
    pub fn record_graph(mut self, on: bool) -> Self {
        self.record_graph = on;
        self
    }

    /// Enables arrival-bound receive semantics (negative-delta mode).
    pub fn arrival_bound(mut self, on: bool) -> Self {
        self.arrival_bound = on;
        self
    }

    /// Enables crash-tolerant replay of partial (salvaged) traces.
    pub fn crash_tolerant(mut self, on: bool) -> Self {
        self.crash_tolerant = on;
        self
    }

    /// Installs a cooperative [`CancelToken`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Canonical fingerprint of every replay knob that can change the
    /// recorded graph or the report, for cache keying
    /// (see [`crate::cache`]). Two configs with equal fingerprints
    /// produce identical replays of the same trace; distributions render
    /// through `Debug`, which is deterministic for a given value.
    pub fn fingerprint(&self) -> String {
        format!(
            "model={:?};seed={};absorption={:?};ack={};record={};arrival={};crash={}",
            self.model,
            self.seed,
            self.absorption,
            self.ack_arm,
            self.record_graph,
            self.arrival_bound,
            self.crash_tolerant,
        )
    }
}

/// The replay driver.
pub struct Replayer {
    config: ReplayConfig,
}

impl Replayer {
    /// Creates a replayer.
    pub fn new(config: ReplayConfig) -> Self {
        Self { config }
    }

    /// Replays an in-memory trace, recording its graph when the config
    /// asks for one (laid out over each rank's sequence numbers).
    pub fn run(&self, trace: &MemTrace) -> Result<ReplayReport, ReplayError> {
        // Concrete (non-boxed) iterators: the engine monomorphizes over the
        // stream type, so the per-event load is a direct, inlinable call
        // instead of a virtual dispatch through `Box<dyn Iterator>`.
        let streams: Vec<_> = (0..trace.num_ranks())
            .map(|r| {
                trace
                    .iter_rank(r)
                    .map(Ok as fn(EventRecord) -> Result<EventRecord, TraceError>)
            })
            .collect();
        if !self.config.record_graph {
            return self.run_scalar(streams, None);
        }
        let layout = trace_layout(trace)?;
        self.run_scalar(streams, Some(&layout))
    }

    /// One single-threaded replay. A graph recording is laid out over
    /// `layout`; asking for one without it is [`ReplayError::NoLayout`].
    fn run_scalar<I>(
        &self,
        streams: Vec<I>,
        layout: Option<&[usize]>,
    ) -> Result<ReplayReport, ReplayError>
    where
        I: Iterator<Item = Result<EventRecord, TraceError>>,
    {
        let bank = ScalarBank::new(&self.config, streams.len());
        let mut engine = Engine::new(EngineKnobs::of(&self.config), bank, streams)
            .with_cancel(self.config.cancel.clone());
        if self.config.record_graph {
            let layout = layout.ok_or(ReplayError::NoLayout)?;
            let arena = GraphArena::with_layout(layout).ok_or_else(|| {
                ReplayError::Corrupt(format!(
                    "{} events are too many to record as one graph",
                    layout.iter().sum::<usize>()
                ))
            })?;
            engine.graph = Some(EventGraph::from_arena(arena));
        }
        let reports = engine.run()?;
        Ok(reports
            .into_iter()
            .next()
            .expect("scalar replay yields exactly one report"))
    }

    /// Replays per-rank event streams, the path for traces bigger than
    /// RAM (pair with [`OocTraceSet::cursor`](mpg_trace::OocTraceSet::cursor)).
    /// With `shards` ≥ 2 the rank streams are partitioned across that many
    /// worker threads, cross-shard message/ack/collective traffic flows
    /// through a deterministic exchange, and the merged report is
    /// bit-identical to one engine's on drifts, warnings, and every
    /// statistic except the scheduler-order diagnostics
    /// (`scheduler_wakeups`, `polls_avoided`, `window_high_water`).
    ///
    /// Runs one engine when sharding cannot help or cannot preserve
    /// semantics: one shard requested, fewer than two ranks, crash
    /// tolerance, or a cancel token (a cancelled partial frontier must be
    /// a single engine's clean state, not a mid-exchange snapshot). Streams
    /// declare no event counts, so a config that records a graph fails
    /// with [`ReplayError::NoLayout`]; record through [`Replayer::run`].
    pub fn run_streams_parallel<I>(
        &self,
        streams: Vec<I>,
        shards: usize,
    ) -> Result<ReplayReport, ReplayError>
    where
        I: Iterator<Item = Result<EventRecord, TraceError>> + Send,
    {
        if shards <= 1
            || streams.len() < 2
            || self.config.record_graph
            || self.config.crash_tolerant
            || self.config.cancel.is_some()
        {
            return self.run_scalar(streams, None);
        }
        crate::shard::run_sharded_scalar(&self.config, streams, shards)
    }
}

/// The graph layout a recording of `trace` declares: one past each rank's
/// highest sequence number, so the records a salvage lost (it keeps the
/// survivors' numbers) are holes. Holes cost node columns and sequence
/// numbers are untrusted, so a layout past `4 × events + 65 536` events is
/// [`ReplayError::Corrupt`], not an allocation sized by a forged number.
pub(crate) fn trace_layout(trace: &MemTrace) -> Result<Vec<usize>, ReplayError> {
    let held = trace.total_events() as u64;
    let span = |r| trace.rank(r).iter().map(|e| e.seq.saturating_add(1)).max();
    let layout: Vec<u64> = (0..trace.num_ranks())
        .map(|r| span(r).unwrap_or(0))
        .collect();
    let declared = layout.iter().fold(0u64, |a, &n| a.saturating_add(n));
    if declared > held.saturating_mul(4).saturating_add(1 << 16) {
        return Err(ReplayError::Corrupt(format!(
            "sequence numbers declaring {declared} events cannot come from {held}"
        )));
    }
    Ok(layout.into_iter().map(|n| n as usize).collect())
}

/// The structural knobs shared by every lane of a batch: they decide
/// *traversal* (which arms exist, how receives bound, whether a crash
/// ends the run), so configs must agree on them to share one pass.
/// Everything else in a [`ReplayConfig`] (model, seed) is per-lane; graph
/// recording is a singleton-batch knob, attached by `Replayer`'s
/// single-engine path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineKnobs {
    pub(crate) absorption: AbsorptionMode,
    pub(crate) ack_arm: bool,
    pub(crate) arrival_bound: bool,
    pub(crate) crash_tolerant: bool,
}

impl EngineKnobs {
    pub(crate) fn of(cfg: &ReplayConfig) -> Self {
        Self {
            absorption: cfg.absorption,
            ack_arm: cfg.ack_arm,
            arrival_bound: cfg.arrival_bound,
            crash_tolerant: cfg.crash_tolerant,
        }
    }
}

/// The per-lane arithmetic and accounting surface the engine is generic
/// over. The engine's traversal — matching, blocking, wakeups, window
/// accounting — never consults a [`DriftBank::Val`], so one pass over the
/// event streams is valid for every lane; only the max-plus arithmetic and
/// the RNG streams behind the `sample*` hooks differ per lane.
///
/// [`ScalarBank`] (`Val = Drift`) monomorphizes to exactly the pre-lane
/// engine; [`VecBank`](crate::lane) carries up to
/// [`MAX_LANES`](crate::lane::MAX_LANES) drift lanes through one traversal.
pub(crate) trait DriftBank {
    /// Drift payload threaded through cursors, requests and channels.
    type Val: Copy + std::fmt::Debug;

    /// Broadcast of a structural (lane-independent) drift.
    fn splat(d: Drift) -> Self::Val;
    /// Elementwise sum.
    fn add(a: Self::Val, b: Self::Val) -> Self::Val;
    /// Elementwise sum with a structural scalar.
    fn add_scalar(a: Self::Val, d: Drift) -> Self::Val;
    /// Elementwise max.
    fn max(a: Self::Val, b: Self::Val) -> Self::Val;
    /// Lane-0 projection, consumed only by recorded-graph edge annotations.
    /// Graph recording is a singleton-batch (scalar) knob, where this is
    /// the identity; lane banks never see a live graph.
    fn lane0(v: Self::Val) -> Drift;

    /// Draws one injected delta per lane (each lane from its own sampler).
    fn sample(&mut self, rank: Rank, class: DeltaClass) -> Self::Val;
    /// Per-lane quantum-scaled OS noise for a `work`-cycle local edge.
    fn sample_os_scaled(&mut self, rank: Rank, work: u64) -> Self::Val;
    /// Folds a sampled delta into each lane's `injected_total`.
    fn tally_injected(&mut self, v: Self::Val);
    /// Per-lane Eq. 1 arm classification (`arm_wins`).
    fn note_arm(&mut self, d_end: Self::Val, local: Self::Val, msg: Self::Val, floor: Self::Val);
    /// Counts a collective-hub completion on every lane.
    fn note_collective_arm(&mut self);
    /// Per-lane absorbed/propagated message-drift accounting.
    fn account_absorption(&mut self, local: Self::Val, msg: Self::Val);
    /// Builds one report per lane from the shared traversal outcome.
    fn into_reports(
        self,
        final_drift: Vec<Self::Val>,
        last_end_local: Vec<Cycles>,
        shared: ReplayStats,
        warnings: Vec<String>,
        graph: Option<EventGraph>,
    ) -> Vec<ReplayReport>;
}

/// Single-config drift arithmetic: the identity lane bank. Every method
/// inlines to the operation the pre-lane engine performed, so the scalar
/// replay path keeps its exact codegen and its exact observable behavior.
pub(crate) struct ScalarBank {
    sampler: PerturbSampler,
    model_name: String,
    injected: Drift,
    arm_wins: [u64; 4],
    absorbed: Drift,
    propagated: Drift,
}

impl ScalarBank {
    pub(crate) fn new(cfg: &ReplayConfig, ranks: usize) -> Self {
        Self {
            sampler: PerturbSampler::new(cfg.model.clone(), ranks, cfg.seed),
            model_name: cfg.model.name.clone(),
            injected: 0,
            arm_wins: [0; 4],
            absorbed: 0,
            propagated: 0,
        }
    }
}

impl DriftBank for ScalarBank {
    type Val = Drift;

    fn splat(d: Drift) -> Drift {
        d
    }

    fn add(a: Drift, b: Drift) -> Drift {
        a + b
    }

    fn add_scalar(a: Drift, d: Drift) -> Drift {
        a + d
    }

    fn max(a: Drift, b: Drift) -> Drift {
        a.max(b)
    }

    fn lane0(v: Drift) -> Drift {
        v
    }

    fn sample(&mut self, rank: Rank, class: DeltaClass) -> Drift {
        self.sampler.sample(rank, class)
    }

    fn sample_os_scaled(&mut self, rank: Rank, work: u64) -> Drift {
        self.sampler.sample_os_scaled(rank, work)
    }

    fn tally_injected(&mut self, v: Drift) {
        self.injected += v;
    }

    fn note_arm(&mut self, d_end: Drift, local: Drift, msg: Drift, floor: Drift) {
        let arm = if d_end == floor && floor > local && floor > msg {
            ArmKind::Floor
        } else if msg >= local {
            ArmKind::Message
        } else {
            ArmKind::Local
        };
        self.arm_wins[arm as usize] += 1;
    }

    fn note_collective_arm(&mut self) {
        self.arm_wins[ArmKind::Collective as usize] += 1;
    }

    /// §4.2 sensitivity accounting: how much incoming message drift was
    /// hidden behind the receiver's own delay (absorbed) vs pushed its
    /// completion later (propagated).
    fn account_absorption(&mut self, local: Drift, msg: Drift) {
        self.absorbed += msg.min(local).max(0);
        self.propagated += (msg - local).max(0);
    }

    fn into_reports(
        self,
        final_drift: Vec<Drift>,
        last_end_local: Vec<Cycles>,
        mut shared: ReplayStats,
        warnings: Vec<String>,
        graph: Option<EventGraph>,
    ) -> Vec<ReplayReport> {
        shared.injected_total = self.injected;
        shared.arm_wins = self.arm_wins;
        shared.absorbed_message_drift = self.absorbed;
        shared.propagated_message_drift = self.propagated;
        shared.lanes = 1;
        shared.traversals_saved = 0;
        let projected_finish_local = last_end_local
            .iter()
            .zip(&final_drift)
            .map(|(&t, &d)| t.saturating_add_signed(d))
            .collect();
        vec![ReplayReport {
            model_name: self.model_name,
            final_drift,
            projected_finish_local,
            warnings,
            stats: shared,
            graph,
            degradation: None,
            cancelled: None,
        }]
    }
}

/// Inline storage for the (at most two) `(source node, sampled delta)`
/// graph edges that reproduce a resolved acknowledgement. Only the graph
/// recorder consumes them, but they ride along every acknowledgement, so
/// they live inline: the hot path allocates nothing whether or not
/// recording is enabled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AckEdges {
    len: u8,
    items: [(NodeId, Drift); 2],
}

impl AckEdges {
    pub(crate) fn none() -> Self {
        Self {
            len: 0,
            items: [(NodeId::start(0, 0), 0); 2],
        }
    }

    fn one(e: (NodeId, Drift)) -> Self {
        Self {
            len: 1,
            items: [e, e],
        }
    }

    fn two(a: (NodeId, Drift), b: (NodeId, Drift)) -> Self {
        Self {
            len: 2,
            items: [a, b],
        }
    }

    fn as_slice(&self) -> &[(NodeId, Drift)] {
        &self.items[..self.len as usize]
    }
}

#[derive(Debug)]
enum ReqState<V> {
    /// Isend awaiting acknowledgement.
    PendingSend,
    /// Irecv queued in the match state, message record not yet arrived.
    PendingRecvWaiting,
    /// Irecv's message record available; the wait computes the arm.
    RecvReady(SendRecord<V>),
    /// Send request resolved. `candidate` (if any) is the ack arm; `edges`
    /// are `(source node, sampled delta)` pairs whose max reproduces the
    /// candidate in the recorded graph.
    SendReady {
        candidate: Option<V>,
        edges: AckEdges,
    },
}

/// How far outside the live window a request id may fall before it is
/// routed to the spill store instead of growing the dense deque.
const REQ_DENSE_GAP: u64 = 1024;

/// Dense request-state storage. Request ids are allocated monotonically
/// per rank, so the live ids occupy a sliding window; a deque indexed by
/// `id - base` gives O(1), hash-free access on the wait-family hot path.
/// Ids far outside the window — possible only in corrupt or handwritten
/// traces — spill into a small linear-scan side table, so adversarial
/// inputs cannot force huge allocations.
#[derive(Debug)]
struct ReqTable<V> {
    base: ReqId,
    slots: VecDeque<Option<ReqState<V>>>,
    live: usize,
    spill: Vec<(ReqId, ReqState<V>)>,
}

// Hand-written so the table defaults empty without a `V: Default` bound.
impl<V> Default for ReqTable<V> {
    fn default() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
            spill: Vec::new(),
        }
    }
}

impl<V> ReqTable<V> {
    fn len(&self) -> usize {
        self.live + self.spill.len()
    }

    fn get(&self, req: ReqId) -> Option<&ReqState<V>> {
        if req >= self.base {
            let off = req - self.base;
            if off < self.slots.len() as u64 {
                return self.slots[off as usize].as_ref();
            }
        }
        self.spill.iter().find(|(k, _)| *k == req).map(|(_, s)| s)
    }

    fn get_mut(&mut self, req: ReqId) -> Option<&mut ReqState<V>> {
        if req >= self.base {
            let off = req - self.base;
            if off < self.slots.len() as u64 {
                return self.slots[off as usize].as_mut();
            }
        }
        self.spill
            .iter_mut()
            .find(|(k, _)| *k == req)
            .map(|(_, s)| s)
    }

    /// Inserts `st` under `req`, replacing (without complaint, matching
    /// the map it replaces) any state a corrupt trace left there.
    fn insert(&mut self, req: ReqId, st: ReqState<V>) {
        if self.live == 0 && self.spill.is_empty() {
            self.slots.clear();
            self.base = req;
        } else if req < self.base {
            let gap = self.base - req;
            if gap > REQ_DENSE_GAP {
                return self.spill_insert(req, st);
            }
            for _ in 0..gap {
                self.slots.push_front(None);
            }
            self.base = req;
        }
        let off = req - self.base;
        if off < self.slots.len() as u64 {
            if self.slots[off as usize].replace(st).is_none() {
                self.live += 1;
            }
        } else if off - self.slots.len() as u64 <= REQ_DENSE_GAP {
            while (self.slots.len() as u64) < off {
                self.slots.push_back(None);
            }
            self.slots.push_back(Some(st));
            self.live += 1;
        } else {
            self.spill_insert(req, st);
        }
    }

    fn spill_insert(&mut self, req: ReqId, st: ReqState<V>) {
        match self.spill.iter_mut().find(|(k, _)| *k == req) {
            Some(slot) => slot.1 = st,
            None => self.spill.push((req, st)),
        }
    }

    fn remove(&mut self, req: ReqId) -> Option<ReqState<V>> {
        if req >= self.base {
            let off = req - self.base;
            if off < self.slots.len() as u64 {
                let got = self.slots[off as usize].take();
                if got.is_some() {
                    self.live -= 1;
                    // Completed ids leave holes at the front as the window
                    // slides; reclaim them so memory stays O(window).
                    while matches!(self.slots.front(), Some(None)) {
                        self.slots.pop_front();
                        self.base += 1;
                    }
                }
                return got;
            }
        }
        let i = self.spill.iter().position(|(k, _)| *k == req)?;
        Some(self.spill.swap_remove(i).1)
    }
}

/// One rank's entry into a collective epoch, drawn when the rank enters.
#[derive(Debug, Clone)]
pub(crate) struct CollEntry<V> {
    rank: Rank,
    /// `D(enter) + lδ`: the rank's contribution to the hub.
    contrib: V,
    /// The rank's `lδ` draw.
    delta: V,
    /// Rounds the draw charged (a bcast charges its root only).
    rounds: u32,
    /// The rank's start subevent (the hub anchor and the edge source).
    start_node: NodeId,
}

#[derive(Debug)]
struct CollSlot<V> {
    kind_name: &'static str,
    bytes: u64,
    entries: Vec<CollEntry<V>>,
}

#[derive(Debug)]
struct CollDone<V> {
    hub: V,
    hub_node: NodeId,
    remaining: usize,
}

/// Lifecycle of one collective epoch.
#[derive(Debug)]
enum CollState<V> {
    /// No rank has entered this epoch yet (or it fully drained).
    Vacant,
    /// Entries accumulating until all `p` ranks arrive.
    Filling(CollSlot<V>),
    /// Hub resolved; participants drain until `remaining` hits zero.
    Done(CollDone<V>),
}

/// Dense epoch-indexed collective state. Epochs are handed out
/// sequentially per rank, so the live ones occupy a sliding window; a
/// deque indexed by `epoch - base` replaces the hash maps the polling
/// engine kept.
#[derive(Debug)]
struct CollTable<V> {
    base: u64,
    slots: VecDeque<CollState<V>>,
}

impl<V> Default for CollTable<V> {
    fn default() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<V> CollTable<V> {
    /// The state cell for `epoch`, growing the window as needed. `None`
    /// only for an epoch that already fully drained (unreachable through
    /// the engine's sequential epoch counters, but kept panic-free).
    fn state_mut(&mut self, epoch: u64) -> Option<&mut CollState<V>> {
        let off = epoch.checked_sub(self.base)? as usize;
        while self.slots.len() <= off {
            self.slots.push_back(CollState::Vacant);
        }
        Some(&mut self.slots[off])
    }

    /// Marks an epoch fully drained and slides the window forward.
    fn clear(&mut self, epoch: u64) {
        if let Some(off) = epoch.checked_sub(self.base) {
            if (off as usize) < self.slots.len() {
                self.slots[off as usize] = CollState::Vacant;
            }
        }
        while matches!(self.slots.front(), Some(CollState::Vacant)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

struct Cursor<I, V> {
    it: I,
    current: Option<EventRecord>,
    drift: V,
    last_end_local: Cycles,
    last_end_node: Option<NodeId>,
    done: bool,
    reqs: ReqTable<V>,
    coll_epoch: u64,
    scratch_epoch: u64,
    posted: bool,
    scratch_os1: V,
    /// Resolved ack for a blocked synchronous send: the candidate drift and
    /// the graph edges reproducing it.
    pending_ack: Option<(V, AckEdges)>,
    events_done: u64,
    /// Scheduler turn count when this rank went to sleep (blocked); used
    /// for the polls-avoided estimate.
    slept_at: Option<u64>,
    /// Whether this rank completed its `Finalize` event; a rank ending
    /// without one crashed (or its tail was lost), which crash-tolerant
    /// replay reports as a frontier.
    finalized: bool,
}

/// Sentinel for "no rank is currently draining".
const NO_RANK: Rank = Rank::MAX;

/// The scheduler's ready set, popped in circular rank order starting just
/// past the last rank that ran.
///
/// Circular order matters: it makes the event-driven engine retire
/// productive steps in exactly the sequence the round-robin poller did
/// (a poll of a blocked rank was side-effect-free, so the productive
/// subsequence fully determines state evolution). That keeps every
/// order-sensitive observable — `window_high_water`, recorded-graph edge
/// order — bit-identical to the old engine, not merely equivalent.
#[derive(Debug, Default)]
struct ReadySet {
    /// One bit per rank.
    words: Vec<u64>,
    len: usize,
    /// Scan start: the rank after the last one popped.
    pos: usize,
    ranks: usize,
}

impl ReadySet {
    fn new(ranks: usize) -> Self {
        Self {
            words: vec![0; ranks.div_ceil(64)],
            len: 0,
            pos: 0,
            ranks,
        }
    }

    /// Marks `r` ready; duplicate inserts are dropped.
    fn insert(&mut self, r: usize) {
        let (w, b) = (r / 64, 1u64 << (r % 64));
        if self.words[w] & b == 0 {
            self.words[w] |= b;
            self.len += 1;
        }
    }

    /// Takes the first ready rank at or after the scan position, wrapping
    /// around once. O(p/64) worst case, O(1) when the next ready rank is
    /// nearby (the common case).
    fn pop(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let start_w = self.pos / 64;
        let mut i = start_w;
        // First visit of the start word masks off ranks below `pos`; if the
        // scan wraps all the way back, the word is re-read in full so those
        // low bits are found on the second visit.
        let mut w = self.words[start_w] & (!0u64 << (self.pos % 64));
        loop {
            if w != 0 {
                let r = i * 64 + w.trailing_zeros() as usize;
                self.words[i] &= !(1u64 << (r % 64));
                self.len -= 1;
                self.pos = if r + 1 >= self.ranks { 0 } else { r + 1 };
                return Some(r);
            }
            i = if i + 1 == self.words.len() { 0 } else { i + 1 };
            w = self.words[i];
        }
    }
}

pub(crate) struct Engine<B: DriftBank, I> {
    knobs: EngineKnobs,
    bank: B,
    matches: MatchState<B::Val>,
    cursors: Vec<Cursor<I, B::Val>>,
    colls: CollTable<B::Val>,
    open_reqs: usize,
    coll_entries: usize,
    /// Ranks able to make progress, popped in circular rank order.
    ready: ReadySet,
    /// The rank currently draining in `run` — wakes for it are redundant,
    /// because its final blocked check happens after all in-step state
    /// changes.
    running: Rank,
    /// Scheduler turns taken so far (for the polls-avoided estimate).
    pops: u64,
    /// Traversal-shared counters (events, matches, window, scheduler);
    /// per-lane tallies live in the bank.
    stats: ReplayStats,
    warnings: Vec<String>,
    graph: Option<EventGraph>,
    /// Set when this engine replays one shard of a partition-parallel run
    /// (see [`crate::shard`]): cross-shard sends, acknowledgements and
    /// collective contributions are routed through the exchange instead of
    /// local state.
    shard: Option<ShardCtx<B::Val>>,
    /// Cooperative cancellation handle; `None` on the fast path.
    cancel: Option<CancelToken>,
    /// Event count at which the token is next polled. `u64::MAX` when no
    /// token is installed, so the per-step guard is one always-false
    /// compare and the fast path stays bit-identical.
    next_cancel_check: u64,
}

impl<B: DriftBank, I: Iterator<Item = Result<EventRecord, TraceError>>> Engine<B, I> {
    pub(crate) fn new(knobs: EngineKnobs, bank: B, streams: Vec<I>) -> Self {
        let p = streams.len();
        Self {
            matches: MatchState::new(),
            cursors: streams
                .into_iter()
                .map(|it| Cursor {
                    it,
                    current: None,
                    drift: B::splat(0),
                    last_end_local: 0,
                    last_end_node: None,
                    done: false,
                    reqs: ReqTable::default(),
                    coll_epoch: 0,
                    scratch_epoch: 0,
                    posted: false,
                    scratch_os1: B::splat(0),
                    pending_ack: None,
                    events_done: 0,
                    slept_at: None,
                    finalized: false,
                })
                .collect(),
            colls: CollTable::default(),
            open_reqs: 0,
            coll_entries: 0,
            ready: ReadySet::new(p),
            running: NO_RANK,
            pops: 0,
            stats: ReplayStats::default(),
            warnings: Vec::new(),
            graph: None,
            knobs,
            bank,
            shard: None,
            cancel: None,
            next_cancel_check: u64::MAX,
        }
    }

    /// Attaches a shard context: this engine becomes one worker of a
    /// partition-parallel run and `run` routes through the exchange.
    pub(crate) fn with_shard(mut self, ctx: ShardCtx<B::Val>) -> Self {
        self.shard = Some(ctx);
        self
    }

    /// Installs a cooperative cancel token (no-op when `None`).
    pub(crate) fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.next_cancel_check = if cancel.is_some() { 0 } else { u64::MAX };
        self.cancel = cancel;
        self
    }

    /// Amortized cancellation poll: cheap guard on the event counter,
    /// real token poll at most once per [`CHECK_INTERVAL`] events.
    #[inline]
    fn poll_cancel(&mut self) -> Option<CancelReason> {
        if self.stats.events < self.next_cancel_check {
            return None;
        }
        self.next_cancel_check = self.stats.events + CHECK_INTERVAL;
        self.cancel.as_ref().and_then(|t| t.fired())
    }

    /// Replays the ranks this engine owns — every rank, or one shard's
    /// share (see [`crate::shard`]) — to the end of their streams, a
    /// deadlock, a crash frontier or a cancellation. A sharded engine
    /// alternates [`Engine::drain`] with blocking on the exchange until the
    /// whole run quiesces; an error poisons the exchange so peers exit.
    pub(crate) fn run(mut self) -> Result<Vec<ReplayReport>, ReplayError> {
        for r in 0..self.cursors.len() {
            if self.remote_owner(r as Rank).is_none() {
                self.ready.insert(r);
            } else {
                // Ranks another shard owns never run here; marking them
                // done makes stray wakes no-ops and keeps the drain checks
                // local.
                self.cursors[r].done = true;
            }
        }
        let cancelled = self.drain_to_quiescence().inspect_err(|e| {
            if let Some(ctx) = &self.shard {
                ctx.exchange.poison(e.to_string());
            }
        })?;
        if let Some(reason) = cancelled {
            return self.finish_cancelled(reason);
        }
        // Quiescence with live cursors: no wakeup source can ever fire
        // again, so the remaining ranks are deadlocked (the polling
        // engine's no-progress diagnostic, reached without O(p·events)
        // polling).
        if self.cursors.iter().any(|c| !c.done) && !self.knobs.crash_tolerant {
            let stuck: Vec<String> = self
                .cursors
                .iter()
                .enumerate()
                .filter_map(|(r, c)| {
                    c.current
                        .as_ref()
                        .map(|e| format!("rank {r} stuck at seq {} ({})", e.seq, e.kind.name()))
                })
                .collect();
            return Err(ReplayError::Corrupt(format!(
                "matching made no progress: {}",
                stuck.join("; ")
            )));
        }
        // Crash-tolerant mode: a drained queue with blocked or unfinalized
        // ranks is the crash frontier, not an error. Each such rank keeps
        // the drift of its last completed record (the synthesized
        // crash-exit); the lost tail is accounted in the degradation
        // report attached to every lane's report.
        let degradation = self
            .knobs
            .crash_tolerant
            .then(|| self.degradation())
            .filter(|d| !d.frontiers.is_empty());
        if let Some(d) = &degradation {
            self.warnings.push(format!(
                "partial trace: replay stopped at the crash frontier; {}",
                d.summary()
            ));
        }
        let mut reports = self.finish()?;
        if degradation.is_some() {
            for rep in &mut reports {
                rep.degradation = degradation.clone();
            }
        }
        Ok(reports)
    }

    /// Drains the ready set, then — only when sharded — applies what the
    /// exchange delivers and drains again, until the run quiesces or the
    /// cancel token fires.
    fn drain_to_quiescence(&mut self) -> Result<Option<CancelReason>, ReplayError> {
        loop {
            if let Some(reason) = self.drain()? {
                return Ok(Some(reason));
            }
            let inbox = match &self.shard {
                Some(ctx) => ctx.exchange.recv(ctx.me),
                None => return Ok(None),
            };
            match inbox {
                Inbox::Messages(msgs) => {
                    for env in msgs {
                        self.apply_envelope(env)?;
                    }
                }
                Inbox::Done => return Ok(None),
                Inbox::Poisoned(msg) => {
                    return Err(ReplayError::Corrupt(format!("peer shard failed: {msg}")))
                }
            }
        }
    }

    /// O(events) drain: a rank is popped only when it was last known able
    /// to progress — at start, or after one of its wakeup sources fired
    /// (acknowledgement delivered, matching send offered, a wait-family
    /// request resolved, collective epoch filled). Each pop runs the rank
    /// until it blocks again or its stream ends.
    fn drain(&mut self) -> Result<Option<CancelReason>, ReplayError> {
        if let Some(reason) = self.poll_cancel() {
            return Ok(Some(reason));
        }
        while let Some(ri) = self.ready.pop() {
            let r = ri as Rank;
            self.running = r;
            self.stats.scheduler_wakeups += 1;
            if let Some(slept) = self.cursors[ri].slept_at.take() {
                // Every scheduler turn that elapsed while this rank slept
                // is a pass on which the round-robin engine would have
                // re-polled it to no effect.
                self.stats.polls_avoided += self.pops - slept;
            }
            self.pops += 1;
            // The inner drain can retire one rank's whole stream in a
            // single turn, so the amortized poll lives here — the
            // cancellation latency bound is one CHECK_INTERVAL of events,
            // not one scheduler turn.
            while self.step(r)? {
                if let Some(reason) = self.poll_cancel() {
                    self.running = NO_RANK;
                    return Ok(Some(reason));
                }
            }
            self.running = NO_RANK;
            if !self.cursors[ri].done {
                self.cursors[ri].slept_at = Some(self.pops);
            }
        }
        Ok(None)
    }

    /// Applies one cross-shard effect to local state.
    fn apply_envelope(&mut self, env: Envelope<B::Val>) -> Result<(), ReplayError> {
        match env {
            Envelope::Offer(rec) => self.deliver_send(rec),
            Envelope::Ack {
                sender,
                candidate,
                edges,
            } => self.resolve_ack(sender, candidate, edges),
            Envelope::Coll {
                epoch,
                kind_name,
                bytes,
                entry,
            } => self.enter_collective(epoch, kind_name, bytes, entry),
        }
    }

    /// The shard owning `rank`, when that shard is not this one.
    fn remote_owner(&self, rank: Rank) -> Option<usize> {
        let ctx = self.shard.as_ref()?;
        let owner = ctx.owners.owner(rank);
        (owner != ctx.me).then_some(owner)
    }

    fn ship(&self, to: usize, env: Envelope<B::Val>) {
        self.shard
            .as_ref()
            .expect("shipping requires a shard context")
            .exchange
            .send(to, env);
    }

    /// Broadcasts to every other shard (collective entries).
    fn ship_all(&self, env: Envelope<B::Val>) {
        let ctx = self
            .shard
            .as_ref()
            .expect("broadcasting requires a shard context");
        for s in 0..ctx.owners.shards() {
            if s != ctx.me {
                ctx.exchange.send(s, env.clone());
            }
        }
    }

    /// Crash-frontier accounting over the engine's terminal state: one
    /// frontier per rank that is still blocked or never reached `Finalize`.
    fn degradation(&self) -> DegradationReport {
        let frontiers: Vec<RankFrontier> = self
            .cursors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.current.is_some() || !c.finalized)
            .map(|(r, c)| RankFrontier {
                rank: r as u32,
                events_completed: c.events_done,
                stuck_at: c
                    .current
                    .as_ref()
                    .map(|e| (e.seq, e.kind.name().to_string())),
                finalized: c.finalized,
            })
            .collect();
        // The matcher holds dangling *queued* state (sends nobody took,
        // posted irecvs); a blocked blocking Send/Recv lives only in its
        // cursor, so count those too.
        let blocked = |want: &str| {
            self.cursors
                .iter()
                .filter(|c| matches!(&c.current, Some(e) if e.kind.name() == want))
                .count()
        };
        DegradationReport {
            ranks_stuck: frontiers.iter().filter(|f| f.stuck_at.is_some()).count(),
            unmatched_sends: self.matches.unmatched_sends() + blocked("send"),
            unmatched_recvs: self.matches.unmatched_recvs() + blocked("recv"),
            open_requests: self.cursors.iter().map(|c| c.reqs.len()).sum(),
            frontiers,
        }
    }

    /// Terminal path for a cancelled or deadline-hit drain: a partial
    /// report built from the clean frontier the engine stopped at, with
    /// crash-frontier degradation accounting and the cancellation reason
    /// attached. Never an error — graceful degradation is the contract.
    fn finish_cancelled(mut self, reason: CancelReason) -> Result<Vec<ReplayReport>, ReplayError> {
        let degradation = Some(self.degradation()).filter(|d| !d.frontiers.is_empty());
        let detail = degradation
            .as_ref()
            .map(|d| format!("; {}", d.summary()))
            .unwrap_or_default();
        self.warnings.push(format!(
            "replay {reason} after {} event(s); drifts describe the partial frontier{detail}",
            self.stats.events,
        ));
        let mut reports = self.finish()?;
        for rep in &mut reports {
            rep.degradation = degradation.clone();
            rep.cancelled = Some(reason);
        }
        Ok(reports)
    }

    /// Enqueues `r` for another scheduling turn. Called exactly when one
    /// of the things `r` can block on resolves; redundant wakes (rank
    /// already queued, currently draining, or finished) are dropped, as
    /// are wakes for out-of-range ranks named by corrupt traces.
    fn wake(&mut self, r: Rank) {
        let ri = r as usize;
        if r == self.running || ri >= self.cursors.len() {
            return;
        }
        if self.cursors[ri].done {
            return;
        }
        self.ready.insert(ri);
    }

    fn finish(mut self) -> Result<Vec<ReplayReport>, ReplayError> {
        let leaked: usize = self.cursors.iter().map(|c| c.reqs.len()).sum();
        if let Some(ctx) = &self.shard {
            // Leak totals are global: deposit this shard's share and let the
            // merge synthesize the single warning from the summed counts.
            ctx.exchange.add_leaks(
                leaked,
                self.matches.unmatched_sends(),
                self.matches.unmatched_recvs(),
            );
        } else if leaked > 0
            || self.matches.unmatched_sends() > 0
            || self.matches.unmatched_recvs() > 0
        {
            // §4.3: both sides used asynchronous calls without completing
            // synchronization; perturbed ordering cannot be guaranteed.
            self.warnings.push(format!(
                "unsynchronized asynchronous traffic: {} open request(s), {} unmatched \
                 send(s), {} unmatched receive(s); perturbed event ordering is not \
                 guaranteed to be correct",
                leaked,
                self.matches.unmatched_sends(),
                self.matches.unmatched_recvs()
            ));
        }
        self.stats.window_high_water = self.matches.high_water();
        self.stats.engines = 1;
        let final_drift: Vec<B::Val> = self.cursors.iter().map(|c| c.drift).collect();
        let last_end_local: Vec<Cycles> = self.cursors.iter().map(|c| c.last_end_local).collect();
        Ok(self.bank.into_reports(
            final_drift,
            last_end_local,
            self.stats,
            self.warnings,
            self.graph,
        ))
    }

    /// Attempts to make progress on rank `r`; returns true when an event
    /// completed. A blocked event is put back and the rank sleeps until a
    /// wakeup source re-enqueues it.
    fn step(&mut self, r: Rank) -> Result<bool, ReplayError> {
        let ri = r as usize;
        if self.cursors[ri].current.is_none() {
            if self.cursors[ri].done {
                return Ok(false);
            }
            match self.cursors[ri].it.next() {
                None => {
                    self.cursors[ri].done = true;
                    return Ok(false);
                }
                Some(Err(e)) => return Err(ReplayError::Trace(e.to_string())),
                Some(Ok(ev)) => {
                    if ev.rank != r {
                        return Err(ReplayError::Corrupt(format!(
                            "stream {r} yielded an event for rank {}",
                            ev.rank
                        )));
                    }
                    if ev.t_end < ev.t_start || ev.t_start < self.cursors[ri].last_end_local {
                        return Err(ReplayError::Corrupt(format!(
                            "rank {r} event {} is non-monotonic in its local clock",
                            ev.seq
                        )));
                    }
                    // The gap edge from the previous end must precede every
                    // edge of this event, so the recorded edge order stays
                    // topological (EventGraph::propagate is a single pass).
                    if let Some(g) = self.graph.as_mut() {
                        let declared = g.arena().rank_events(ri);
                        if ev.seq >= declared as u64 {
                            return Err(ReplayError::Corrupt(format!(
                                "rank {r} event {} lies past the {declared} event(s) \
                                 its layout declares",
                                ev.seq
                            )));
                        }
                        let start = NodeId::start(r, ev.seq);
                        g.arena_mut().label(start, ev.kind.code(), ev.t_start);
                        if let Some(prev) = self.cursors[ri].last_end_node {
                            g.add_edge(Edge {
                                src: prev,
                                dst: start,
                                base: ev.t_start - self.cursors[ri].last_end_local,
                                class: DeltaClass::None,
                                sampled: 0,
                                is_message: false,
                            });
                        }
                    }
                    self.cursors[ri].current = Some(ev);
                    self.cursors[ri].posted = false;
                }
            }
        }
        // Take the event out of the cursor; blocked paths put it back
        // below. The kind is matched by reference — cloning it here would
        // copy waitall request vectors on every scheduling turn.
        let ev = self.cursors[ri].current.take().expect("current set above");
        let d0 = self.cursors[ri].drift;
        let dur = ev.duration() as Drift;
        // Floor: how early may this event end relative to its traced end?
        // A compute interval can shrink by at most its originally-stolen
        // time; the `.min(0)` guards against clock-drift rounding making the
        // local duration a cycle shorter than the work (the floor must never
        // *add* time).
        let floor = match ev.kind {
            EventKind::Compute { work } => B::add_scalar(d0, (work as Drift - dur).min(0)),
            _ => B::add_scalar(d0, -dur),
        };

        let completed = match &ev.kind {
            EventKind::Init | EventKind::Finalize => {
                self.intra_edge(r, &ev, DeltaClass::None, 0);
                self.complete(r, &ev, B::max(d0, floor), None);
                true
            }
            EventKind::Compute { work } => {
                let delta = self.bank.sample_os_scaled(r, *work);
                self.bank.tally_injected(delta);
                let d_end = B::max(B::add(d0, delta), floor);
                if let Some(g) = self.graph.as_mut() {
                    g.add_edge(Edge {
                        src: NodeId::start(r, ev.seq),
                        dst: NodeId::end(r, ev.seq),
                        base: ev.duration(),
                        class: DeltaClass::OsLocal,
                        sampled: B::lane0(d_end) - B::lane0(d0),
                        is_message: false,
                    });
                }
                self.complete(r, &ev, d_end, None);
                true
            }
            EventKind::Send {
                peer,
                tag,
                bytes,
                protocol,
            } => {
                let (peer, tag, bytes) = (*peer, *tag, *bytes);
                // §3.1.1: the send variant decides whether the completion is
                // coupled to the receiver (the Eq. 1 acknowledgement arm).
                let acked = match protocol {
                    mpg_trace::SendProtocol::Standard => self.knobs.ack_arm,
                    mpg_trace::SendProtocol::Synchronous => true,
                    mpg_trace::SendProtocol::Buffered | mpg_trace::SendProtocol::Ready => false,
                };
                if !self.cursors[ri].posted {
                    self.post_send(
                        r,
                        &ev,
                        peer,
                        tag,
                        bytes,
                        if acked {
                            SenderRef::BlockedSend { rank: r }
                        } else {
                            SenderRef::Done
                        },
                    )?;
                }
                if acked {
                    match self.cursors[ri].pending_ack.take() {
                        None => false, // awaiting acknowledgement
                        Some((candidate, ack_edges)) => {
                            let os1 = self.cursors[ri].scratch_os1;
                            let local_arm = if self.knobs.arrival_bound {
                                floor
                            } else {
                                B::add(d0, os1)
                            };
                            let d_end = B::max(B::max(local_arm, candidate), floor);
                            if let Some(g) = self.graph.as_mut() {
                                g.add_edge(Edge {
                                    src: NodeId::start(r, ev.seq),
                                    dst: NodeId::end(r, ev.seq),
                                    base: ev.duration(),
                                    class: DeltaClass::OsLocal,
                                    sampled: B::lane0(B::max(local_arm, floor)) - B::lane0(d0),
                                    is_message: false,
                                });
                                for &(src, sampled) in ack_edges.as_slice() {
                                    g.add_edge(Edge {
                                        src,
                                        dst: NodeId::end(r, ev.seq),
                                        base: 0,
                                        class: DeltaClass::Lambda,
                                        sampled,
                                        is_message: true,
                                    });
                                }
                            }
                            self.bank.note_arm(d_end, local_arm, candidate, floor);
                            self.complete(r, &ev, d_end, None);
                            true
                        }
                    }
                } else {
                    let os1 = self.cursors[ri].scratch_os1;
                    let d_end = B::max(B::add(d0, os1), floor);
                    if let Some(g) = self.graph.as_mut() {
                        g.add_edge(Edge {
                            src: NodeId::start(r, ev.seq),
                            dst: NodeId::end(r, ev.seq),
                            base: ev.duration(),
                            class: DeltaClass::OsLocal,
                            sampled: B::lane0(d_end) - B::lane0(d0),
                            is_message: false,
                        });
                    }
                    self.complete(r, &ev, d_end, None);
                    true
                }
            }
            EventKind::Recv {
                peer, tag, bytes, ..
            } => {
                match self.matches.take_send(*peer, r, *tag) {
                    // Sender not processed yet; post_send wakes this rank
                    // when a record lands on the channel.
                    None => false,
                    Some(rec) => {
                        self.stats.messages_matched += 1;
                        let msg_arm = self.msg_candidate(&rec, ev.t_end);
                        let local_arm = if self.knobs.arrival_bound { floor } else { d0 };
                        let d_end = B::max(B::max(local_arm, msg_arm), floor);
                        let recv_node = NodeId::end(r, ev.seq);
                        if let Some(g) = self.graph.as_mut() {
                            g.add_edge(Edge {
                                src: NodeId::start(r, ev.seq),
                                dst: recv_node,
                                base: ev.duration(),
                                class: DeltaClass::None,
                                sampled: B::lane0(B::max(local_arm, floor)) - B::lane0(d0),
                                is_message: false,
                            });
                            g.add_edge(Edge {
                                src: rec.src_node,
                                dst: recv_node,
                                base: 0,
                                class: DeltaClass::MessagePath { bytes: *bytes },
                                sampled: B::lane0(msg_arm) - B::lane0(rec.d_src),
                                is_message: true,
                            });
                        }
                        self.bank.note_arm(d_end, local_arm, msg_arm, floor);
                        self.bank.account_absorption(local_arm, msg_arm);
                        self.resolve_ack(
                            rec.sender,
                            B::add(d_end, rec.ack_lambda),
                            AckEdges::one((recv_node, B::lane0(rec.ack_lambda))),
                        )?;
                        self.complete(r, &ev, d_end, None);
                        true
                    }
                }
            }
            EventKind::Isend {
                peer,
                tag,
                bytes,
                req,
            } => {
                let (peer, tag, bytes, req) = (*peer, *tag, *bytes, *req);
                // Register the request before offering the send: a pending
                // receive on the peer can resolve the acknowledgement
                // synchronously inside post_send.
                let state = if self.knobs.ack_arm {
                    ReqState::PendingSend
                } else {
                    ReqState::SendReady {
                        candidate: None,
                        edges: AckEdges::none(),
                    }
                };
                self.cursors[ri].reqs.insert(req, state);
                self.post_send(
                    r,
                    &ev,
                    peer,
                    tag,
                    bytes,
                    if self.knobs.ack_arm {
                        SenderRef::Request { rank: r, req }
                    } else {
                        SenderRef::Done
                    },
                )?;
                self.open_reqs += 1;
                self.note_window();
                self.intra_edge(r, &ev, DeltaClass::None, 0);
                self.complete(r, &ev, d0, None);
                true
            }
            EventKind::Irecv { peer, tag, req, .. } => {
                let (peer, tag, req) = (*peer, *tag, *req);
                let end_node = NodeId::end(r, ev.seq);
                let pr = PendingRecv {
                    src: peer,
                    tag,
                    req,
                    rank: r,
                    d_posted: d0,
                    end_node,
                };
                let state = match self.matches.post_recv(pr) {
                    Some(rec) => {
                        self.stats.messages_matched += 1;
                        // The receive's data arrives independently of any
                        // later wait; the synchronous acknowledgement leaves
                        // at that arrival (matching the simulator), so it is
                        // resolved here, not at the wait — this is what keeps
                        // symmetric exchange patterns acyclic.
                        self.ack_at_arrival(&rec, d0, end_node)?;
                        ReqState::RecvReady(rec)
                    }
                    None => ReqState::PendingRecvWaiting,
                };
                self.cursors[ri].reqs.insert(req, state);
                self.open_reqs += 1;
                self.note_window();
                self.intra_edge(r, &ev, DeltaClass::None, 0);
                self.complete(r, &ev, d0, None);
                true
            }
            EventKind::Wait { req } => {
                self.complete_waits(r, &ev, std::slice::from_ref(req), d0, floor)?
            }
            EventKind::WaitAll { reqs } => self.complete_waits(r, &ev, reqs, d0, floor)?,
            EventKind::WaitSome { completed, .. } => {
                self.complete_waits(r, &ev, completed, d0, floor)?
            }
            EventKind::Barrier { comm_size } => {
                self.step_collective(r, &ev, "barrier", 0, *comm_size, None, d0, floor)?
            }
            EventKind::Bcast {
                root,
                bytes,
                comm_size,
            } => {
                self.step_collective(r, &ev, "bcast", *bytes, *comm_size, Some(*root), d0, floor)?
            }
            EventKind::Reduce {
                root: _, // the simplified Reduce model is root-agnostic
                bytes,
                comm_size,
            } => self.step_collective(r, &ev, "reduce", *bytes, *comm_size, None, d0, floor)?,
            EventKind::Allreduce { bytes, comm_size } => {
                self.step_collective(r, &ev, "allreduce", *bytes, *comm_size, None, d0, floor)?
            }
            EventKind::Scatter {
                root,
                bytes,
                comm_size,
            } => self.step_collective(
                r,
                &ev,
                "scatter",
                *bytes,
                *comm_size,
                Some(*root),
                d0,
                floor,
            )?,
            EventKind::Gather {
                root: _, // simplified single-round model, root-agnostic
                bytes,
                comm_size,
            } => self.step_collective(r, &ev, "gather", *bytes, *comm_size, None, d0, floor)?,
            EventKind::Allgather { bytes, comm_size } => {
                self.step_collective(r, &ev, "allgather", *bytes, *comm_size, None, d0, floor)?
            }
            EventKind::Alltoall { bytes, comm_size } => {
                self.step_collective(r, &ev, "alltoall", *bytes, *comm_size, None, d0, floor)?
            }
            EventKind::Test { req, completed } => {
                if *completed {
                    // A successful probe completes the request exactly like a
                    // single-request wait (§4.3: the traced outcome is kept).
                    self.complete_waits(r, &ev, std::slice::from_ref(req), d0, floor)?
                } else {
                    // A failed probe is a local no-op; the request stays open.
                    self.intra_edge(r, &ev, DeltaClass::None, 0);
                    self.complete(r, &ev, B::max(d0, floor), None);
                    true
                }
            }
        };
        if !completed {
            self.cursors[ri].current = Some(ev);
            return Ok(false);
        }
        Ok(true)
    }

    /// Samples the forward path and offers the send record; resolves a
    /// pending nonblocking receive when one was queued first.
    fn post_send(
        &mut self,
        r: Rank,
        ev: &EventRecord,
        peer: Rank,
        tag: u32,
        bytes: u64,
        sender: SenderRef,
    ) -> Result<(), ReplayError> {
        let ri = r as usize;
        let d0 = self.cursors[ri].drift;
        let os1 = self.bank.sample_os_scaled(r, ev.duration());
        let d_path = self.bank.sample(r, DeltaClass::MessagePath { bytes });
        let lambda2 = self.bank.sample(r, DeltaClass::Lambda);
        self.bank
            .tally_injected(B::add(B::add(os1, d_path), lambda2));
        self.cursors[ri].scratch_os1 = os1;
        self.cursors[ri].posted = true;
        let rec = SendRecord {
            src: r,
            dst: peer,
            tag,
            bytes,
            d_src: d0,
            d_msg: B::add(d0, d_path),
            ack_lambda: lambda2,
            sender,
            src_node: NodeId::start(r, ev.seq),
            send_start_local: ev.t_start,
        };
        if let Some(to) = self.remote_owner(peer) {
            // The receiver's matching state lives on another shard; ship
            // the fully-sampled record there. The acknowledgement, if any,
            // returns through the exchange the same way.
            self.ship(to, Envelope::Offer(rec));
            self.note_window();
            return Ok(());
        }
        self.deliver_send(rec)
    }

    /// Lands a send record in the local matching state: matches a pending
    /// nonblocking receive or queues the record, waking whichever rank may
    /// now progress. Called from `post_send` for local peers and from the
    /// exchange for records shipped across shards.
    fn deliver_send(&mut self, rec: SendRecord<B::Val>) -> Result<(), ReplayError> {
        let dst = rec.dst;
        if let Some((rec, pr)) = self.matches.offer_send(rec) {
            self.stats.messages_matched += 1;
            self.ack_at_arrival(&rec, pr.d_posted, pr.end_node)?;
            match self.cursors[pr.rank as usize].reqs.get_mut(pr.req) {
                Some(target @ ReqState::PendingRecvWaiting) => {
                    *target = ReqState::RecvReady(rec);
                }
                other => {
                    return Err(ReplayError::Corrupt(format!(
                        "pending receive for rank {} req {} in state {other:?}",
                        pr.rank, pr.req
                    )))
                }
            }
            // The receiver may be blocked in a wait on this request.
            self.wake(pr.rank);
        } else {
            // The record landed on the channel; the peer may be blocked in
            // a `Recv` waiting for exactly this send.
            self.wake(dst);
        }
        self.note_window();
        Ok(())
    }

    /// Message-arm candidate for a record completing at `recv_end_local`.
    /// The measured slack is structural (computed from traced local clocks,
    /// identical for every lane), so it subtracts as a scalar.
    fn msg_candidate(&self, rec: &SendRecord<B::Val>, recv_end_local: Cycles) -> B::Val {
        match self.knobs.absorption {
            AbsorptionMode::Conservative => rec.d_msg,
            AbsorptionMode::MeasuredSlack(est) => {
                let slack =
                    (recv_end_local as f64 - rec.send_start_local as f64 - est.transfer(rec.bytes))
                        .max(0.0) as Drift;
                B::add_scalar(rec.d_msg, -slack)
            }
        }
    }

    /// Delivers a resolved acknowledgement to the send side. `candidate` is
    /// the completed drift constraint; `edges` reproduce it in the recorded
    /// graph.
    fn resolve_ack(
        &mut self,
        sender: SenderRef,
        candidate: B::Val,
        edges: AckEdges,
    ) -> Result<(), ReplayError> {
        if let SenderRef::BlockedSend { rank } | SenderRef::Request { rank, .. } = sender {
            if let Some(to) = self.remote_owner(rank) {
                self.ship(
                    to,
                    Envelope::Ack {
                        sender,
                        candidate,
                        edges,
                    },
                );
                return Ok(());
            }
        }
        match sender {
            SenderRef::Done => {}
            SenderRef::BlockedSend { rank } => {
                self.cursors[rank as usize].pending_ack = Some((candidate, edges));
                // The sender's cursor is stalled on this acknowledgement.
                self.wake(rank);
            }
            SenderRef::Request { rank, req } => {
                match self.cursors[rank as usize].reqs.get_mut(req) {
                    Some(slot @ ReqState::PendingSend) => {
                        *slot = ReqState::SendReady {
                            candidate: Some(candidate),
                            edges,
                        };
                    }
                    other => {
                        return Err(ReplayError::Corrupt(format!(
                            "acknowledgement for rank {rank} req {req} in state {other:?}"
                        )))
                    }
                }
                // The sender may be blocked in a wait on this request.
                self.wake(rank);
            }
        }
        Ok(())
    }

    /// Resolves the sender-side acknowledgement for a message completed by
    /// a *nonblocking* receive: the ack leaves at message arrival,
    /// `max(D(irecv_end), message arm) + λ2`, independent of when the
    /// receiver eventually waits.
    fn ack_at_arrival(
        &mut self,
        rec: &SendRecord<B::Val>,
        d_posted: B::Val,
        recv_end_node: NodeId,
    ) -> Result<(), ReplayError> {
        if matches!(rec.sender, SenderRef::Done) {
            return Ok(());
        }
        let arrival = B::max(d_posted, rec.d_msg);
        let candidate = B::add(arrival, rec.ack_lambda);
        let edges = AckEdges::two(
            (recv_end_node, B::lane0(rec.ack_lambda)),
            (
                rec.src_node,
                B::lane0(rec.d_msg) - B::lane0(rec.d_src) + B::lane0(rec.ack_lambda),
            ),
        );
        self.resolve_ack(rec.sender, candidate, edges)
    }

    /// Completes a wait-family event over the requests in `reqs` (for
    /// waitsome, the trace's completed set). Returns false when any request
    /// is still unresolved.
    fn complete_waits(
        &mut self,
        r: Rank,
        ev: &EventRecord,
        reqs: &[ReqId],
        d0: B::Val,
        floor: B::Val,
    ) -> Result<bool, ReplayError> {
        let ri = r as usize;
        // Phase 1: all requests resolved?
        for req in reqs {
            match self.cursors[ri].reqs.get(*req) {
                None => {
                    return Err(ReplayError::Corrupt(format!(
                        "rank {r} waits on unknown request {req}"
                    )))
                }
                Some(ReqState::PendingSend) | Some(ReqState::PendingRecvWaiting) => {
                    return Ok(false)
                }
                Some(_) => {}
            }
        }
        // Phase 2: fold arms. (Acknowledgements were already resolved at
        // message arrival, when each request completed.) Recorder edges are
        // only collected when a graph is attached — `Vec::new` does not
        // allocate and stays empty otherwise.
        let record = self.graph.is_some();
        let wait_end = NodeId::end(r, ev.seq);
        let mut msg_arm_max: Option<B::Val> = None;
        let mut edges = Vec::new();
        for req in reqs {
            match self.cursors[ri].reqs.remove(*req).expect("checked above") {
                ReqState::RecvReady(rec) => {
                    let cand = self.msg_candidate(&rec, ev.t_end);
                    msg_arm_max = Some(msg_arm_max.map_or(cand, |m| B::max(m, cand)));
                    if record {
                        edges.push(Edge {
                            src: rec.src_node,
                            dst: wait_end,
                            base: 0,
                            class: DeltaClass::MessagePath { bytes: rec.bytes },
                            sampled: B::lane0(cand) - B::lane0(rec.d_src),
                            is_message: true,
                        });
                    }
                }
                ReqState::SendReady {
                    candidate,
                    edges: ack_edges,
                } => {
                    if let Some(c) = candidate {
                        msg_arm_max = Some(msg_arm_max.map_or(c, |m| B::max(m, c)));
                        if record {
                            for &(src, sampled) in ack_edges.as_slice() {
                                edges.push(Edge {
                                    src,
                                    dst: wait_end,
                                    base: 0,
                                    class: DeltaClass::Lambda,
                                    sampled,
                                    is_message: true,
                                });
                            }
                        }
                    }
                }
                other => unreachable!("unresolved request slipped through: {other:?}"),
            }
            self.open_reqs -= 1;
        }
        let local_arm = if self.knobs.arrival_bound && msg_arm_max.is_some() {
            floor
        } else {
            d0
        };
        let d_end = match msg_arm_max {
            Some(m) => B::max(B::max(local_arm, m), floor),
            None => B::max(local_arm, floor),
        };
        if let Some(g) = self.graph.as_mut() {
            g.add_edge(Edge {
                src: NodeId::start(r, ev.seq),
                dst: wait_end,
                base: ev.duration(),
                class: DeltaClass::None,
                sampled: B::lane0(B::max(local_arm, floor)) - B::lane0(d0),
                is_message: false,
            });
            for e in edges {
                g.add_edge(e);
            }
        }
        if let Some(m) = msg_arm_max {
            self.bank.note_arm(d_end, local_arm, m, floor);
            self.bank.account_absorption(local_arm, m);
        }
        self.complete(r, ev, d_end, None);
        Ok(true)
    }

    #[allow(clippy::too_many_arguments)]
    fn step_collective(
        &mut self,
        r: Rank,
        ev: &EventRecord,
        kind_name: &'static str,
        bytes: u64,
        comm_size: u32,
        bcast_root: Option<Rank>,
        d0: B::Val,
        floor: B::Val,
    ) -> Result<bool, ReplayError> {
        let p = self.cursors.len() as u32;
        if comm_size != p {
            return Err(ReplayError::Corrupt(format!(
                "collective on rank {r} names comm size {comm_size}, trace has {p} ranks"
            )));
        }
        let ri = r as usize;
        if !self.cursors[ri].posted {
            let epoch = self.cursors[ri].coll_epoch;
            self.cursors[ri].coll_epoch += 1;
            self.cursors[ri].scratch_epoch = epoch;
            self.cursors[ri].posted = true;
            let rounds = match kind_name {
                _ if bcast_root.is_some_and(|root| root != r) => 0,
                "reduce" | "gather" => 1,
                "alltoall" => p.saturating_sub(1),
                _ => (p as f64).log2().ceil() as u32,
            };
            // Draw lδ at entry: the rank blocks until the hub resolves, so
            // its collective stream is drawn in epoch order whenever the
            // epoch fills, on one engine or across shards.
            let delta = self
                .bank
                .sample(r, DeltaClass::CollectiveRounds { rounds, bytes });
            let entry = CollEntry {
                rank: r,
                contrib: B::add(d0, delta),
                delta,
                rounds,
                start_node: NodeId::start(r, ev.seq),
            };
            if self.shard.is_some() {
                self.ship_all(Envelope::Coll {
                    epoch,
                    kind_name,
                    bytes,
                    entry: entry.clone(),
                });
            }
            self.coll_entries += 1;
            self.note_window();
            self.enter_collective(epoch, kind_name, bytes, entry)?;
        }
        let epoch = self.cursors[ri].scratch_epoch;
        let (hub, hub_node, drained) = match self.colls.state_mut(epoch) {
            Some(CollState::Done(done)) => {
                done.remaining -= 1;
                (done.hub, done.hub_node, done.remaining == 0)
            }
            _ => return Ok(false), // peers not all arrived
        };
        if drained {
            self.colls.clear(epoch);
        }
        self.coll_entries -= 1;
        let d_end = B::max(hub, floor);
        if let Some(g) = self.graph.as_mut() {
            g.add_edge(Edge {
                src: hub_node,
                dst: NodeId::end(r, ev.seq),
                base: 0,
                class: DeltaClass::None,
                sampled: B::lane0(d_end) - B::lane0(hub),
                is_message: true,
            });
        }
        self.bank.note_collective_arm();
        // The hub is this rank's incoming arm: drift below it was imposed by
        // the slowest participant (propagated), drift it already had is
        // hidden behind the hub (absorbed). Same accounting as p2p arms.
        self.bank.account_absorption(d0, hub);
        self.complete(r, ev, d_end, None);
        Ok(true)
    }

    /// Adds one rank's entry to its epoch — an owned rank's from
    /// `step_collective`, another shard's from the exchange — and resolves
    /// the epoch once all `p` ranks have entered.
    fn enter_collective(
        &mut self,
        epoch: u64,
        kind_name: &'static str,
        bytes: u64,
        entry: CollEntry<B::Val>,
    ) -> Result<(), ReplayError> {
        let p = self.cursors.len();
        let r = entry.rank;
        let state = self
            .colls
            .state_mut(epoch)
            .expect("collective epoch cleared while a rank still enters it");
        if matches!(state, CollState::Vacant) {
            *state = CollState::Filling(CollSlot {
                kind_name,
                bytes,
                entries: Vec::new(),
            });
        }
        let CollState::Filling(slot) = state else {
            return Err(ReplayError::Corrupt(format!(
                "epoch {epoch}: rank {r} entered an already-resolved collective"
            )));
        };
        if slot.kind_name != kind_name || slot.bytes != bytes {
            return Err(ReplayError::CollectiveMismatch(format!(
                "epoch {epoch}: rank {r} called {kind_name}({bytes}B) but epoch began \
                 with {}({}B)",
                slot.kind_name, slot.bytes
            )));
        }
        slot.entries.push(entry);
        if slot.entries.len() < p {
            return Ok(());
        }
        let CollState::Filling(slot) = std::mem::replace(state, CollState::Vacant) else {
            unreachable!("checked Filling above")
        };
        self.resolve_collective(epoch, slot);
        Ok(())
    }

    /// Resolves a filled epoch (Fig. 4): `hub = max_i(D(enter_i) + lδ_i)`
    /// over the pre-added contributions. The draws of owned ranks count
    /// toward `injected_total` here, at fill, so an epoch a crash frontier
    /// or a cancellation leaves unfilled counts nothing.
    fn resolve_collective(&mut self, epoch: u64, mut slot: CollSlot<B::Val>) {
        slot.entries.sort_unstable_by_key(|e| e.rank);
        self.stats.collectives += 1;
        let anchor = slot.entries.first().expect("non-empty slot");
        let hub_node = NodeId::hub(anchor.rank, anchor.start_node.seq);
        let mut hub = B::splat(Drift::MIN);
        for e in &slot.entries {
            hub = B::max(hub, e.contrib);
            if self.remote_owner(e.rank).is_none() {
                self.bank.tally_injected(e.delta);
            }
            if let Some(g) = self.graph.as_mut() {
                g.add_edge(Edge {
                    src: e.start_node,
                    dst: hub_node,
                    base: 0,
                    class: DeltaClass::CollectiveRounds {
                        rounds: e.rounds,
                        bytes: slot.bytes,
                    },
                    sampled: B::lane0(e.delta),
                    is_message: true,
                });
            }
        }
        let remaining = self
            .shard
            .as_ref()
            .map_or(slot.entries.len(), ShardCtx::owned_count);
        let state = self
            .colls
            .state_mut(epoch)
            .expect("epoch slot exists while resolving");
        *state = CollState::Done(CollDone {
            hub,
            hub_node,
            remaining,
        });
        // Every owned participant either is blocked on this collective
        // right now or will reach it with the hub already resolved; wakes
        // for another shard's ranks are dropped by their `done` cursors.
        for e in &slot.entries {
            self.wake(e.rank);
        }
    }

    /// Finishes an event: advances drift, emits gap edge + labels, clears
    /// the cursor.
    fn complete(&mut self, r: Rank, ev: &EventRecord, d_end: B::Val, _info: Option<()>) {
        let ri = r as usize;
        if let Some(g) = self.graph.as_mut() {
            g.arena_mut()
                .label(NodeId::end(r, ev.seq), ev.kind.code(), ev.t_end);
        }
        let c = &mut self.cursors[ri];
        c.drift = d_end;
        c.last_end_local = ev.t_end;
        c.last_end_node = Some(NodeId::end(r, ev.seq));
        c.current = None;
        c.posted = false;
        c.events_done += 1;
        if matches!(ev.kind, EventKind::Finalize) {
            c.finalized = true;
        }
        self.stats.events += 1;
    }

    fn intra_edge(&mut self, r: Rank, ev: &EventRecord, class: DeltaClass, sampled: Drift) {
        if let Some(g) = self.graph.as_mut() {
            g.add_edge(Edge {
                src: NodeId::start(r, ev.seq),
                dst: NodeId::end(r, ev.seq),
                base: ev.duration(),
                class,
                sampled,
                is_message: false,
            });
        }
    }

    fn note_window(&mut self) {
        self.matches
            .note_external(self.open_reqs + self.coll_entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::SignedDist;
    use mpg_noise::{Dist, PlatformSignature};
    use mpg_sim::{CollectiveMode, Simulation};

    fn quiet_sim(p: u32, f: impl Fn(&mut mpg_sim::RankCtx) + Sync) -> MemTrace {
        Simulation::new(p, PlatformSignature::quiet("lab"))
            .ideal_clocks()
            .run(f)
            .unwrap()
            .trace
    }

    fn replay(trace: &MemTrace, model: PerturbationModel) -> ReplayReport {
        Replayer::new(ReplayConfig::new(model).seed(42))
            .run(trace)
            .unwrap()
    }

    /// The config part of every arena cache key and of the replay,
    /// analyze, lint and explore report keys: a change to this string turns
    /// existing cache directories cold.
    #[test]
    fn quiet_fingerprint_is_pinned() {
        assert_eq!(
            ReplayConfig::new(PerturbationModel::quiet("q")).fingerprint(),
            "model=PerturbationModel { name: \"q\", \
             os_local: SignedDist { dist: Zero, negate: false }, \
             os_remote: SignedDist { dist: Zero, negate: false }, \
             latency: SignedDist { dist: Zero, negate: false }, per_byte: 0.0, \
             transfer_jitter: SignedDist { dist: Zero, negate: false }, os_quantum: None };\
             seed=0;absorption=Conservative;ack=true;record=false;arrival=false;crash=false"
        );
    }

    #[test]
    fn identity_replay_zero_drift() {
        let trace = quiet_sim(4, |ctx| {
            ctx.compute(10_000);
            let p = ctx.size();
            ctx.sendrecv((ctx.rank() + 1) % p, 0, 512, (ctx.rank() + p - 1) % p, 0);
            ctx.allreduce(64);
        });
        let report = replay(&trace, PerturbationModel::quiet("identity"));
        assert_eq!(report.final_drift, vec![0; 4]);
        assert_eq!(report.stats.injected_total, 0);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn local_noise_accumulates_on_single_rank() {
        let trace = quiet_sim(1, |ctx| {
            for _ in 0..10 {
                ctx.compute(1_000);
            }
        });
        let mut model = PerturbationModel::quiet("noise");
        model.os_local = Dist::Constant(500.0).into();
        let report = replay(&trace, model);
        // 10 compute edges × 500 cycles.
        assert_eq!(report.final_drift, vec![5_000]);
    }

    #[test]
    fn eq1_blocking_pair_drift() {
        // Fig. 2 subgraph: sender's end takes the ack arm; receiver takes
        // the message arm.
        let trace = quiet_sim(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, 1000);
            } else {
                ctx.recv(0, 0);
            }
        });
        let mut model = PerturbationModel::quiet("m");
        model.latency = Dist::Constant(300.0).into();
        model.os_remote = Dist::Constant(70.0).into();
        model.per_byte = 0.1; // 1000 B → 100 cycles
        let report = replay(&trace, model);
        // Receiver: message path = λ1 + t(d) + os2 = 300 + 100 + 70 = 470.
        assert_eq!(report.final_drift[1], 470);
        // Sender: ack arm = recv drift + λ2 = 470 + 300 = 770.
        assert_eq!(report.final_drift[0], 770);
        assert_eq!(report.stats.messages_matched, 1);
    }

    #[test]
    fn nonblocking_wait_receives_drift() {
        // Fig. 3: isend/irecv return immediately; the waits see the arms.
        let trace = quiet_sim(2, |ctx| {
            if ctx.rank() == 0 {
                let s = ctx.isend(1, 0, 100);
                ctx.compute(50_000);
                ctx.wait(s);
            } else {
                let r = ctx.irecv(0, 0);
                ctx.compute(1_000);
                ctx.wait(r);
            }
        });
        let mut model = PerturbationModel::quiet("m");
        model.latency = Dist::Constant(400.0).into();
        let report = replay(&trace, model);
        // Receiver wait: message arm = 400 + 10 (per-byte 0) = 400.
        assert_eq!(report.final_drift[1], 400);
        // Sender wait: ack = 400 + 400 = 800, but sender computed 50k cycles
        // so its local arm is 0 drift… ack arm dominates: 800.
        assert_eq!(report.final_drift[0], 800);
    }

    #[test]
    fn collective_propagates_max() {
        let trace = quiet_sim(4, |ctx| {
            ctx.compute(10_000);
            ctx.allreduce(8);
        });
        let mut model = PerturbationModel::quiet("m");
        model.latency = Dist::Constant(100.0).into();
        let report = replay(&trace, model);
        // rounds = log2(4) = 2; every rank's lδ = 2×100 = 200; hub = 200.
        assert_eq!(report.final_drift, vec![200; 4]);
        assert_eq!(report.stats.collectives, 1);
    }

    #[test]
    fn bcast_charges_root_only() {
        let trace = quiet_sim(4, |ctx| {
            ctx.bcast(2, 64);
        });
        let mut model = PerturbationModel::quiet("m");
        model.latency = Dist::Constant(100.0).into();
        let report = replay(&trace, model);
        // Only root samples rounds: hub = 2 rounds × 100 = 200 for everyone.
        assert_eq!(report.final_drift, vec![200; 4]);
    }

    /// A malformed bcast whose ranks disagree on the root: each rank pays
    /// rounds only when it names itself root, on one engine as on shards.
    #[test]
    fn bcast_with_disagreeing_roots_replays_alike_on_one_engine_and_shards() {
        use mpg_trace::EventKind;
        let mut mt = MemTrace::new(4);
        for r in 0..4u32 {
            let kinds = [
                EventKind::Init,
                EventKind::Bcast {
                    root: if r == 0 { 1 } else { 0 },
                    bytes: 64,
                    comm_size: 4,
                },
                EventKind::Finalize,
            ];
            for (seq, kind) in kinds.into_iter().enumerate() {
                let t = 10 * seq as u64;
                mt.push(EventRecord {
                    rank: r,
                    seq: seq as u64,
                    t_start: t,
                    t_end: t + 10,
                    kind,
                });
            }
        }
        let mut model = PerturbationModel::quiet("m");
        model.latency = Dist::Constant(100.0).into();
        let replayer = Replayer::new(ReplayConfig::new(model));
        let one = replayer.run(&mt).unwrap();
        let streams = (0..4).map(|r| mt.iter_rank(r).map(Ok)).collect();
        let sharded = replayer.run_streams_parallel(streams, 2).unwrap();
        // No rank names itself root, so no rank pays a round.
        assert_eq!(one.final_drift, vec![0; 4]);
        assert_eq!(sharded.final_drift, one.final_drift);
    }

    #[test]
    fn message_domination_detected() {
        let trace = quiet_sim(2, |ctx| {
            for _ in 0..20 {
                if ctx.rank() == 0 {
                    ctx.send(1, 0, 64);
                } else {
                    ctx.recv(0, 0);
                }
            }
        });
        let mut model = PerturbationModel::quiet("m");
        model.latency = Dist::Constant(1000.0).into();
        let report = replay(&trace, model);
        assert!(report.message_domination_ratio() > 0.9);
        assert!(report.stats.propagated_message_drift > 0);
    }

    #[test]
    fn negative_deltas_shrink_but_respect_floor() {
        // Trace on a noisy platform, then replay with negated noise: the
        // drift must go negative but no compute interval may shrink below
        // its pure work.
        let out = Simulation::new(1, PlatformSignature::noisy("noisy", 4.0))
            .ideal_clocks()
            .seed(3)
            .run(|ctx| {
                for _ in 0..50 {
                    ctx.compute(100_000);
                }
            })
            .unwrap();
        let stolen = out.stats.noise_stolen as i64;
        assert!(stolen > 0, "need a noisy trace for this test");
        let mut model = PerturbationModel::quiet("denoise");
        model.os_local = SignedDist::negative(Dist::Constant(1e12));
        let report = replay(&out.trace, model);
        // Maximum possible speedup = total stolen time; the floor must bind
        // exactly there.
        assert_eq!(report.final_drift[0], -stolen);
    }

    #[test]
    fn graph_recording_matches_streaming() {
        let trace = quiet_sim(4, |ctx| {
            let p = ctx.size();
            ctx.compute(5_000);
            if ctx.rank() % 2 == 0 {
                ctx.send((ctx.rank() + 1) % p, 1, 256);
            } else {
                ctx.recv((ctx.rank() + p - 1) % p, 1);
            }
            ctx.barrier();
            ctx.allreduce(32);
        });
        let mut model = PerturbationModel::quiet("m");
        model.os_local = Dist::Exponential { mean: 700.0 }.into();
        model.latency = Dist::Exponential { mean: 900.0 }.into();
        let report = Replayer::new(ReplayConfig::new(model).seed(11).record_graph(true))
            .run(&trace)
            .unwrap();
        let graph = report.graph.as_ref().expect("graph recorded");
        // The generic, semantics-free graph walk must agree with the
        // streaming engine on every rank's final drift.
        assert_eq!(graph.final_drifts(), report.final_drift);
        assert!(graph.edge_count() > 0);
    }

    #[test]
    fn determinism_under_seed() {
        let trace = quiet_sim(3, |ctx| {
            ctx.compute(1_000);
            ctx.allreduce(8);
            ctx.compute(1_000);
        });
        let mut model = PerturbationModel::quiet("m");
        model.os_local = Dist::Exponential { mean: 500.0 }.into();
        let a = Replayer::new(ReplayConfig::new(model.clone()).seed(5))
            .run(&trace)
            .unwrap();
        let b = Replayer::new(ReplayConfig::new(model.clone()).seed(5))
            .run(&trace)
            .unwrap();
        let c = Replayer::new(ReplayConfig::new(model).seed(6))
            .run(&trace)
            .unwrap();
        assert_eq!(a.final_drift, b.final_drift);
        assert_ne!(a.final_drift, c.final_drift);
    }

    #[test]
    fn skewed_clocks_same_drift_as_ideal() {
        // §4.1: order-only analysis must be invariant to per-rank clock skew.
        let prog = |ctx: &mut mpg_sim::RankCtx| {
            let p = ctx.size();
            ctx.compute(10_000);
            ctx.sendrecv((ctx.rank() + 1) % p, 0, 128, (ctx.rank() + p - 1) % p, 0);
            ctx.allreduce(16);
        };
        let ideal = Simulation::new(4, PlatformSignature::quiet("l"))
            .ideal_clocks()
            .run(prog)
            .unwrap()
            .trace;
        let skewed = Simulation::new(4, PlatformSignature::quiet("l"))
            .run(prog)
            .unwrap()
            .trace;
        let mut model = PerturbationModel::quiet("m");
        model.latency = Dist::Constant(500.0).into();
        let a = replay(&ideal, model.clone());
        let b = replay(&skewed, model);
        assert_eq!(a.final_drift, b.final_drift);
    }

    #[test]
    fn waitall_takes_worst_request() {
        let trace = quiet_sim(3, |ctx| {
            if ctx.rank() == 0 {
                let a = ctx.irecv(1, 1);
                let b = ctx.irecv(2, 2);
                ctx.waitall(&[a, b]);
            } else {
                ctx.compute(1_000 * u64::from(ctx.rank()));
                ctx.send(0, ctx.rank(), 64);
            }
        });
        let mut model = PerturbationModel::quiet("m");
        // Both messages carry +800 of injected latency → waitall drift 800.
        model.latency = Dist::Constant(800.0).into();
        let report = replay(&trace, model);
        assert_eq!(report.final_drift[0], 800);
        // The blocking senders take the ack arm: wait drift + λ2.
        assert_eq!(report.final_drift[1], 1600);
        assert_eq!(report.final_drift[2], 1600);
    }

    #[test]
    fn expanded_collective_trace_replays_as_p2p() {
        let trace = Simulation::new(8, PlatformSignature::quiet("l"))
            .collective_mode(CollectiveMode::Expanded)
            .ideal_clocks()
            .run(|ctx| {
                ctx.compute(1_000);
                ctx.allreduce(64);
            })
            .unwrap()
            .trace;
        let mut model = PerturbationModel::quiet("m");
        model.latency = Dist::Constant(100.0).into();
        let report = replay(&trace, model);
        assert_eq!(report.stats.collectives, 0);
        assert!(report.stats.messages_matched > 0);
        assert!(report.max_final_drift() > 0);
    }

    #[test]
    fn corrupt_trace_detected() {
        use mpg_trace::EventKind;
        // A recv with no matching send anywhere.
        let mut mt = MemTrace::new(2);
        for r in 0..2u32 {
            mt.push(EventRecord {
                rank: r,
                seq: 0,
                t_start: 0,
                t_end: 10,
                kind: EventKind::Init,
            });
        }
        mt.push(EventRecord {
            rank: 0,
            seq: 1,
            t_start: 10,
            t_end: 20,
            kind: EventKind::Recv {
                peer: 1,
                tag: 0,
                bytes: 8,
                posted_any: false,
            },
        });
        mt.push(EventRecord {
            rank: 0,
            seq: 2,
            t_start: 20,
            t_end: 30,
            kind: EventKind::Finalize,
        });
        mt.push(EventRecord {
            rank: 1,
            seq: 1,
            t_start: 10,
            t_end: 20,
            kind: EventKind::Finalize,
        });
        let err = Replayer::new(ReplayConfig::new(PerturbationModel::quiet("m")))
            .run(&mt)
            .unwrap_err();
        assert!(matches!(err, ReplayError::Corrupt(_)), "{err}");
    }

    #[test]
    fn leaked_requests_warn() {
        use mpg_trace::EventKind;
        // An isend that is never waited on: §4.3's warning case.
        let mut mt = MemTrace::new(2);
        for r in 0..2u32 {
            mt.push(EventRecord {
                rank: r,
                seq: 0,
                t_start: 0,
                t_end: 10,
                kind: EventKind::Init,
            });
        }
        mt.push(EventRecord {
            rank: 0,
            seq: 1,
            t_start: 10,
            t_end: 20,
            kind: EventKind::Isend {
                peer: 1,
                tag: 0,
                bytes: 8,
                req: 1,
            },
        });
        mt.push(EventRecord {
            rank: 0,
            seq: 2,
            t_start: 20,
            t_end: 30,
            kind: EventKind::Finalize,
        });
        mt.push(EventRecord {
            rank: 1,
            seq: 1,
            t_start: 10,
            t_end: 20,
            kind: EventKind::Finalize,
        });
        let report = Replayer::new(ReplayConfig::new(PerturbationModel::quiet("m")).ack_arm(false))
            .run(&mt)
            .unwrap();
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("unsynchronized"));
    }

    /// A partial trace: rank 0 blocks on a receive whose matching send is
    /// in rank 1's lost tail (rank 1's stream stops after `Init`).
    fn truncated_trace() -> MemTrace {
        use mpg_trace::EventKind;
        let mut mt = MemTrace::new(2);
        for r in 0..2u32 {
            mt.push(EventRecord {
                rank: r,
                seq: 0,
                t_start: 0,
                t_end: 10,
                kind: EventKind::Init,
            });
        }
        mt.push(EventRecord {
            rank: 0,
            seq: 1,
            t_start: 10,
            t_end: 20,
            kind: EventKind::Recv {
                peer: 1,
                tag: 0,
                bytes: 8,
                posted_any: false,
            },
        });
        mt
    }

    #[test]
    fn truncated_trace_errors_by_default() {
        let err = Replayer::new(ReplayConfig::new(PerturbationModel::quiet("m")))
            .run(&truncated_trace())
            .unwrap_err();
        assert!(
            matches!(&err, ReplayError::Corrupt(m) if m.contains("no progress")),
            "{err}"
        );
    }

    #[test]
    fn crash_tolerant_replay_stops_at_frontier() {
        let report =
            Replayer::new(ReplayConfig::new(PerturbationModel::quiet("m")).crash_tolerant(true))
                .run(&truncated_trace())
                .unwrap();
        let deg = report.degradation.as_ref().expect("degradation report");
        // Both ranks are incomplete: 0 is stuck on the lost send, 1 never
        // reached Finalize (the crash point).
        assert_eq!(deg.frontiers.len(), 2);
        assert_eq!(deg.ranks_stuck, 1);
        assert_eq!(deg.unmatched_recvs, 1);
        let f0 = deg.frontiers.iter().find(|f| f.rank == 0).unwrap();
        let (seq, kind) = f0.stuck_at.as_ref().expect("rank 0 blocked");
        assert_eq!(*seq, 1);
        assert_eq!(kind, "recv");
        assert!(!f0.finalized);
        let f1 = deg.frontiers.iter().find(|f| f.rank == 1).unwrap();
        assert!(f1.stuck_at.is_none(), "rank 1 simply ended early");
        assert!(!f1.finalized);
        assert_eq!(f1.events_completed, 1); // only Init
        assert!(
            report.warnings.iter().any(|w| w.contains("crash frontier")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn crash_tolerant_without_deadlock_still_reports_unfinalized_ranks() {
        use mpg_trace::EventKind;
        // Rank 1 crashes after Init, but nothing in rank 0 depends on it —
        // matching never deadlocks, yet the degradation report must still
        // flag the synthesized crash-exit.
        let mut mt = MemTrace::new(2);
        for r in 0..2u32 {
            mt.push(EventRecord {
                rank: r,
                seq: 0,
                t_start: 0,
                t_end: 10,
                kind: EventKind::Init,
            });
        }
        mt.push(EventRecord {
            rank: 0,
            seq: 1,
            t_start: 10,
            t_end: 20,
            kind: EventKind::Finalize,
        });
        let report =
            Replayer::new(ReplayConfig::new(PerturbationModel::quiet("m")).crash_tolerant(true))
                .run(&mt)
                .unwrap();
        let deg = report.degradation.as_ref().expect("degradation report");
        assert_eq!(deg.frontiers.len(), 1);
        assert_eq!(deg.frontiers[0].rank, 1);
        assert_eq!(deg.ranks_stuck, 0);
    }

    #[test]
    fn crash_tolerant_is_inert_on_complete_traces() {
        let trace = quiet_sim(4, |ctx| {
            ctx.compute(5_000);
            ctx.allreduce(32);
        });
        let mut model = PerturbationModel::quiet("m");
        model.os_local = Dist::Exponential { mean: 400.0 }.into();
        let plain = Replayer::new(ReplayConfig::new(model.clone()).seed(9))
            .run(&trace)
            .unwrap();
        let tolerant = Replayer::new(ReplayConfig::new(model).seed(9).crash_tolerant(true))
            .run(&trace)
            .unwrap();
        assert!(tolerant.degradation.is_none());
        assert_eq!(plain.final_drift, tolerant.final_drift);
        assert_eq!(plain.warnings, tolerant.warnings);
    }

    /// A recording is laid out over one past each rank's highest sequence
    /// number, so records a salvage lost are holes; a sequence number far
    /// past what the trace holds is refused before anything is sized by it.
    #[test]
    fn recording_layout_spans_lost_records_and_refuses_wild_seqs() {
        let trace = quiet_sim(1, |ctx| {
            for _ in 0..6 {
                ctx.compute(100);
            }
        });
        let mut events = trace.rank(0).to_vec();
        let last = events.last().unwrap().seq;
        let lost: Vec<u64> = events.drain(2..4).map(|e| e.seq).collect();
        let cfg = ReplayConfig::new(PerturbationModel::quiet("m")).record_graph(true);
        let graph = Replayer::new(cfg.clone())
            .run(&MemTrace::from_ranks(vec![events.clone()]))
            .unwrap()
            .graph
            .unwrap();
        assert_eq!(graph.arena().rank_events(0) as u64, last + 1);
        assert_eq!(graph.node_count(), 2 * events.len());
        for seq in lost {
            assert_eq!(graph.arena().node_index(&NodeId::start(0, seq)), None);
        }
        for wild in [1 << 40, u64::MAX] {
            events.last_mut().unwrap().seq = wild;
            match Replayer::new(cfg.clone()).run(&MemTrace::from_ranks(vec![events.clone()])) {
                Err(ReplayError::Corrupt(m)) => assert!(m.contains("cannot come from"), "{m}"),
                other => panic!("seq {wild}: {other:?}"),
            }
        }
    }

    #[test]
    fn window_bounded_for_long_synchronous_traces() {
        // A long ping-pong keeps at most O(1) retained state regardless of
        // trace length (§4.2's windowed claim).
        let trace = quiet_sim(2, |ctx| {
            for i in 0..500 {
                if ctx.rank() == 0 {
                    ctx.send(1, i % 7, 64);
                    ctx.recv(1, i % 7);
                } else {
                    ctx.recv(0, i % 7);
                    ctx.send(0, i % 7, 64);
                }
            }
        });
        let report = replay(&trace, PerturbationModel::quiet("m"));
        assert!(report.stats.events > 2000);
        assert!(
            report.stats.window_high_water <= 8,
            "window {} should not scale with trace length",
            report.stats.window_high_water
        );
    }
}
