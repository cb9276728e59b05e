//! The lockstep progress simulation behind lint passes 1, 2 and 5.
//!
//! §4.1 assumes traces describe a *completed* run: "every message event has
//! a counterpart". This module checks that assumption constructively by
//! re-executing the traced program under conservative MPI semantics —
//! standard/buffered/ready sends complete eagerly, synchronous sends and
//! receives block until matched, waits block until their receive requests
//! resolve, collectives block until every rank arrives — and reports every
//! way the schedule fails to exist:
//!
//! * leftover unmatched envelopes (`MPG-UNMATCHED-SEND`/`-RECV`), refined
//!   to `MPG-TAG-MISMATCH` when a leftover pair agrees on the channel but
//!   not the tag;
//! * matched pairs disagreeing on payload size (`MPG-COUNT-MISMATCH`);
//! * peers outside the communicator (`MPG-BAD-PEER`);
//! * cycles in the wait-for graph at quiescence (`MPG-DEADLOCK`, Tarjan
//!   SCC, naming the ranks and blocked operations on the cycle);
//! * ranks disagreeing on the collective sequence (`MPG-COLLECTIVE-SKEW`).
//!
//! Beyond diagnostics, the simulation returns the [`Matching`] it
//! computed — every offered send and every matched send/receive pair with
//! its completion point — which the happens-before passes (`hb_races`,
//! `sync`) consume. A [`MatchPolicy`] can force chosen wildcard receives
//! onto alternate sources: re-running under such a policy and checking
//! [`Matching::completed`] is how a race witness is validated as a real
//! alternate schedule.
//!
//! Matching reuses the simulator's [`EnvelopeMatcher`] so the lint passes
//! and the runtime share one implementation of the non-overtaking,
//! posted-order, wildcard-arbitration rules.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use crate::envelope::{LintRecv, LintSend};
use mpg_core::forced::{ForcedOutcome, MatchPlan};
use mpg_sim::EnvelopeMatcher;
use mpg_trace::{
    Diagnostic, EventKind, EventRecord, MemTrace, Rank, ReqId, Rule, SendProtocol, Seq, Tag,
    ANY_SOURCE, ANY_TAG,
};

/// How the simulation resolves receive patterns.
#[derive(Debug, Clone, Default)]
pub enum MatchPolicy {
    /// Every receive posts its recorded (matched) source — the schedule
    /// the trace itself describes.
    #[default]
    Recorded,
    /// The receives named by the [`MatchPlan`] post their forced source
    /// pattern instead of the recorded one; all other receives stay
    /// recorded. Used to replay a race witness: force the racy wildcard
    /// onto its alternate sender (and the receive that originally
    /// consumed that sender onto the displaced one) and see whether the
    /// program still runs to completion.
    Witness(MatchPlan),
}

impl MatchPolicy {
    fn src_pattern(&self, rank: Rank, seq: Seq, recorded: Rank) -> Rank {
        match self {
            MatchPolicy::Recorded => recorded,
            MatchPolicy::Witness(plan) => plan.source_for((rank, seq), recorded),
        }
    }
}

/// One send the simulation offered to the matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRec {
    /// Sending rank.
    pub src: Rank,
    /// Sequence number of the send event.
    pub seq: Seq,
    /// Destination rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size.
    pub bytes: u64,
    /// True when the send completes without a rendezvous (standard /
    /// buffered / ready blocking sends and every isend): the message can
    /// sit in the receiver's eager buffer until consumed.
    pub eager: bool,
}

/// One matched send/receive pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchPair {
    /// `(rank, seq)` of the send event.
    pub send: (Rank, Seq),
    /// `(rank, seq)` of the receive event (the irecv for nonblocking).
    pub recv: (Rank, Seq),
    /// Sequence number, on the receiving rank, of the event that
    /// *completed* the receive: the recv itself when blocking, the wait
    /// that resolved the request when nonblocking.
    pub completion: Seq,
    /// Tag of the matched message.
    pub tag: Tag,
    /// True when the receive was posted with `MPI_ANY_SOURCE`.
    pub posted_any: bool,
}

/// The communication structure the simulation established.
#[derive(Debug, Clone, Default)]
pub struct Matching {
    /// Every send offered to the matcher, in issue order.
    pub sends: Vec<SendRec>,
    /// Every matched pair, in match order.
    pub pairs: Vec<MatchPair>,
    /// True when every rank ran its program to the end (no rank stuck at
    /// quiescence). Witness replays key off this.
    pub completed: bool,
}

/// Diagnostics plus the matching they were derived from.
#[derive(Debug, Clone, Default)]
pub struct ProgressOutcome {
    /// Findings of passes 1, 2 and 5.
    pub diags: Vec<Diagnostic>,
    /// The send/receive structure, for the happens-before passes.
    pub matching: Matching,
}

/// Runs passes 1, 2 and 5 over an in-memory trace (diagnostics only).
pub fn lint_progress(trace: &MemTrace) -> Vec<Diagnostic> {
    run_progress(trace, &MatchPolicy::Recorded).diags
}

/// Runs the progress simulation under `policy`, returning diagnostics and
/// the matching.
pub fn run_progress(trace: &MemTrace, policy: &MatchPolicy) -> ProgressOutcome {
    if trace.num_ranks() == 0 {
        return ProgressOutcome::default();
    }
    let mut sim = Sim::new(trace, policy);
    sim.prescan();
    sim.run();
    sim.finish()
}

/// Result of re-replaying the trace under a forced-match plan: the
/// matching the forced schedule established plus its classified
/// [`ForcedOutcome`].
#[derive(Debug, Clone)]
pub struct ForcedReplay {
    /// What the forced schedule did.
    pub outcome: ForcedOutcome,
    /// The matching the forced replay established.
    pub matching: Matching,
    /// Diagnostics the forced replay raised (deadlock cycles, leftover
    /// envelopes). For a `Deadlocked` outcome the `MPG-DEADLOCK` entries
    /// name the concrete wait-for cycle.
    pub diags: Vec<Diagnostic>,
}

/// The single forced-replay code path: re-executes the trace under
/// `plan` and classifies what happened. Pass 4's witness validation and
/// the pass-8 explorer both go through here, so a forced-match sequence
/// printed by any finding re-replays identically everywhere.
pub fn forced_replay(trace: &MemTrace, plan: &MatchPlan) -> ForcedReplay {
    let out = run_progress(trace, &MatchPolicy::Witness(plan.clone()));
    let outcome = if out.matching.completed {
        ForcedOutcome::Completed
    } else if out.diags.iter().any(|d| d.rule == Rule::Deadlock) {
        ForcedOutcome::Deadlocked
    } else {
        ForcedOutcome::Stuck
    };
    ForcedReplay {
        outcome,
        matching: out.matching,
        diags: out.diags,
    }
}

/// State of one nonblocking request during the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    /// An isend: completes locally under the eager assumption.
    SendDone,
    /// An irecv posted at `seq`, expecting a message from `src`.
    RecvPending {
        /// Expected source (the recorded matched peer).
        src: Rank,
        /// Sequence number of the initiating irecv.
        seq: Seq,
    },
    /// An irecv whose message arrived; `pair` indexes the matching's pair
    /// list so the resolving wait can stamp the completion point.
    RecvDone {
        /// Index into `Sim::pairs`, when the irecv actually matched.
        pair: Option<usize>,
    },
}

/// Signature a rank presents when arriving at a collective epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CollSig {
    kind: &'static str,
    root: Option<Rank>,
    bytes: Option<u64>,
    comm_size: u32,
}

impl fmt::Display for CollSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.kind)?;
        if let Some(root) = self.root {
            write!(f, "root={root}, ")?;
        }
        if let Some(bytes) = self.bytes {
            write!(f, "{bytes}B, ")?;
        }
        write!(f, "comm={})", self.comm_size)
    }
}

fn coll_sig(kind: &EventKind) -> Option<CollSig> {
    let (name, root, bytes, comm_size) = match *kind {
        EventKind::Barrier { comm_size } => ("barrier", None, None, comm_size),
        EventKind::Bcast {
            root,
            bytes,
            comm_size,
        } => ("bcast", Some(root), Some(bytes), comm_size),
        EventKind::Reduce {
            root,
            bytes,
            comm_size,
        } => ("reduce", Some(root), Some(bytes), comm_size),
        EventKind::Allreduce { bytes, comm_size } => ("allreduce", None, Some(bytes), comm_size),
        EventKind::Scatter {
            root,
            bytes,
            comm_size,
        } => ("scatter", Some(root), Some(bytes), comm_size),
        EventKind::Gather {
            root,
            bytes,
            comm_size,
        } => ("gather", Some(root), Some(bytes), comm_size),
        EventKind::Allgather { bytes, comm_size } => ("allgather", None, Some(bytes), comm_size),
        EventKind::Alltoall { bytes, comm_size } => ("alltoall", None, Some(bytes), comm_size),
        _ => return None,
    };
    Some(CollSig {
        kind: name,
        root,
        bytes,
        comm_size,
    })
}

/// One collective epoch: the k-th collective event on each rank (the same
/// grouping the replayer uses — sub-communicator collectives are expanded
/// to point-to-point traffic by the tracer, so traced collectives are
/// always world-sized).
struct EpochSlot {
    sig: CollSig,
    first: (Rank, Seq),
    arrived: Vec<(Rank, Seq)>,
    skews: Vec<String>,
}

struct Sim<'a> {
    ranks: Vec<&'a [EventRecord]>,
    p: usize,
    policy: &'a MatchPolicy,
    pc: Vec<usize>,
    offered: Vec<bool>,
    matcher: EnvelopeMatcher<LintSend, LintRecv>,
    issue: u64,
    matched: HashSet<(Rank, Seq)>,
    reqs: Vec<HashMap<ReqId, ReqState>>,
    coll_count: Vec<u64>,
    epochs: BTreeMap<u64, EpochSlot>,
    skip: HashSet<(Rank, Seq)>,
    sends: Vec<SendRec>,
    pairs: Vec<MatchPair>,
    diags: Vec<Diagnostic>,
}

impl<'a> Sim<'a> {
    fn new(trace: &'a MemTrace, policy: &'a MatchPolicy) -> Self {
        let p = trace.num_ranks();
        Sim {
            ranks: (0..p).map(|r| trace.rank(r)).collect(),
            p,
            policy,
            pc: vec![0; p],
            offered: vec![false; p],
            matcher: EnvelopeMatcher::new(),
            issue: 0,
            matched: HashSet::new(),
            reqs: vec![HashMap::new(); p],
            coll_count: vec![0; p],
            epochs: BTreeMap::new(),
            skip: HashSet::new(),
            sends: Vec::new(),
            pairs: Vec::new(),
            diags: Vec::new(),
        }
    }

    /// Pass over every event flagging peers outside the communicator
    /// (`MPG-BAD-PEER`) and marking events the simulation must treat as
    /// local no-ops (bad peers would never match; self-messages are
    /// already reported by validation).
    fn prescan(&mut self) {
        let p = self.p;
        let mut n_sends = 0;
        for r in 0..p {
            for ev in self.ranks[r] {
                let (peer, what) = match ev.kind {
                    EventKind::Send { peer, .. } | EventKind::Isend { peer, .. } => {
                        n_sends += 1;
                        (Some(peer), "send names destination")
                    }
                    EventKind::Recv { peer, .. } | EventKind::Irecv { peer, .. } => {
                        (Some(peer), "receive names source")
                    }
                    EventKind::Bcast { root, .. }
                    | EventKind::Reduce { root, .. }
                    | EventKind::Scatter { root, .. }
                    | EventKind::Gather { root, .. } => (Some(root), "collective names root"),
                    _ => (None, ""),
                };
                let Some(peer) = peer else { continue };
                if peer as usize >= p {
                    self.diags.push(
                        Diagnostic::new(
                            Rule::BadPeer,
                            format!("{what} rank {peer} but the trace has {p} ranks"),
                        )
                        .at(ev.rank, ev.seq),
                    );
                    if !ev.kind.is_collective() {
                        self.skip.insert((ev.rank, ev.seq));
                    }
                } else if peer == ev.rank && !ev.kind.is_collective() {
                    // Self-messages are a validate-pass finding
                    // (MPG-SELF-MESSAGE); skip them here so the matcher
                    // never sees a rank-local channel.
                    self.skip.insert((ev.rank, ev.seq));
                }
            }
        }
        // A send is offered once and matches at most once, so the send
        // count bounds all three. Sized up front because pass 4 runs one
        // whole simulation per race candidate: growing them by doubling
        // hundreds of times over was a fifth of `lint` on a wildcard-heavy
        // trace, and left each run's footprint straddling the allocator's
        // trim threshold.
        self.sends.reserve_exact(n_sends);
        self.pairs.reserve_exact(n_sends);
        self.matched.reserve(2 * n_sends);
    }

    fn run(&mut self) {
        let mut progressed = true;
        while progressed {
            progressed = false;
            for r in 0..self.p {
                while self.step(r) {
                    progressed = true;
                }
            }
        }
    }

    fn next_issue(&mut self) -> u64 {
        let i = self.issue;
        self.issue += 1;
        i
    }

    fn offer_send(&mut self, env: LintSend) {
        if let Some((s, pr)) = self.matcher.post_send(env) {
            self.on_match(s, pr);
        }
    }

    fn offer_recv(&mut self, env: LintRecv) {
        if let Some((s, pr)) = self.matcher.post_recv(env) {
            self.on_match(s, pr);
        }
    }

    fn on_match(&mut self, s: LintSend, r: LintRecv) {
        if s.bytes != r.bytes {
            self.diags.push(
                Diagnostic::new(
                    Rule::CountMismatch,
                    format!(
                        "matched pair disagrees on payload: rank {} seq {} sends {} byte(s), \
                         rank {} seq {} expects {}",
                        s.src, s.seq, s.bytes, r.dst, r.seq, r.bytes
                    ),
                )
                .at(r.dst, r.seq)
                .involving([s.src]),
            );
        }
        self.matched.insert((s.src, s.seq));
        self.matched.insert((r.dst, r.seq));
        let pair = self.pairs.len();
        self.pairs.push(MatchPair {
            send: (s.src, s.seq),
            recv: (r.dst, r.seq),
            completion: r.seq,
            tag: s.tag,
            posted_any: r.posted_any,
        });
        if let Some(req) = r.req {
            if let Some(st) = self.reqs[r.dst as usize].get_mut(&req) {
                *st = ReqState::RecvDone { pair: Some(pair) };
            }
        }
    }

    /// A wait at `seq` resolved `req`: stamp the completion point on the
    /// irecv's pair (if it matched) and drop the request.
    fn resolve_req(&mut self, r: usize, req: &ReqId, seq: Seq) {
        if let Some(ReqState::RecvDone { pair: Some(idx) }) = self.reqs[r].remove(req) {
            self.pairs[idx].completion = seq;
        }
    }

    fn req_pending(&self, r: usize, req: &ReqId) -> Option<(Rank, Seq)> {
        match self.reqs[r].get(req) {
            Some(ReqState::RecvPending { src, seq }) => Some((*src, *seq)),
            _ => None,
        }
    }

    /// Executes the current event of rank `r` if its blocking condition is
    /// satisfied. Returns true when the rank advanced.
    fn step(&mut self, r: usize) -> bool {
        let events = self.ranks[r];
        let i = self.pc[r];
        if i >= events.len() {
            return false;
        }
        let ev = &events[i];
        let rank = ev.rank;
        let seq = ev.seq;
        let advance = match &ev.kind {
            EventKind::Init | EventKind::Finalize | EventKind::Compute { .. } => true,
            EventKind::Test { req, completed } => {
                if *completed {
                    self.resolve_req(r, req, seq);
                }
                true
            }
            EventKind::Send {
                peer,
                tag,
                bytes,
                protocol,
            } => {
                if self.skip.contains(&(rank, seq)) {
                    true
                } else {
                    if !self.offered[r] {
                        self.offered[r] = true;
                        let issue = self.next_issue();
                        self.sends.push(SendRec {
                            src: rank,
                            seq,
                            dst: *peer,
                            tag: *tag,
                            bytes: *bytes,
                            eager: *protocol != SendProtocol::Synchronous,
                        });
                        let env = LintSend {
                            src: rank,
                            dst: *peer,
                            tag: *tag,
                            bytes: *bytes,
                            seq,
                            issue,
                        };
                        self.offer_send(env);
                    }
                    // Only the synchronous form waits for the match; the
                    // eager assumption keeps head-to-head standard sends
                    // from reporting false deadlocks.
                    *protocol != SendProtocol::Synchronous || self.matched.contains(&(rank, seq))
                }
            }
            EventKind::Recv {
                peer,
                tag,
                bytes,
                posted_any,
            } => {
                if self.skip.contains(&(rank, seq)) {
                    true
                } else {
                    if !self.offered[r] {
                        self.offered[r] = true;
                        let env = LintRecv {
                            dst: rank,
                            src_pattern: self.policy.src_pattern(rank, seq, *peer),
                            tag_pattern: *tag,
                            bytes: *bytes,
                            seq,
                            posted_any: *posted_any,
                            req: None,
                        };
                        self.offer_recv(env);
                    }
                    self.matched.contains(&(rank, seq))
                }
            }
            EventKind::Isend {
                peer,
                tag,
                bytes,
                req,
            } => {
                self.reqs[r].insert(*req, ReqState::SendDone);
                if !self.skip.contains(&(rank, seq)) {
                    let issue = self.next_issue();
                    self.sends.push(SendRec {
                        src: rank,
                        seq,
                        dst: *peer,
                        tag: *tag,
                        bytes: *bytes,
                        eager: true,
                    });
                    let env = LintSend {
                        src: rank,
                        dst: *peer,
                        tag: *tag,
                        bytes: *bytes,
                        seq,
                        issue,
                    };
                    self.offer_send(env);
                }
                true
            }
            EventKind::Irecv {
                peer,
                tag,
                bytes,
                req,
                posted_any,
            } => {
                if self.skip.contains(&(rank, seq)) {
                    self.reqs[r].insert(*req, ReqState::RecvDone { pair: None });
                } else {
                    self.reqs[r].insert(*req, ReqState::RecvPending { src: *peer, seq });
                    let env = LintRecv {
                        dst: rank,
                        src_pattern: self.policy.src_pattern(rank, seq, *peer),
                        tag_pattern: *tag,
                        bytes: *bytes,
                        seq,
                        posted_any: *posted_any,
                        req: Some(*req),
                    };
                    self.offer_recv(env);
                }
                true
            }
            EventKind::Wait { req } => {
                if self.req_pending(r, req).is_some() {
                    false
                } else {
                    self.resolve_req(r, req, seq);
                    true
                }
            }
            EventKind::WaitAll { reqs } => {
                if reqs.iter().any(|q| self.req_pending(r, q).is_some()) {
                    false
                } else {
                    for q in reqs {
                        self.resolve_req(r, q, seq);
                    }
                    true
                }
            }
            EventKind::WaitSome { completed, .. } => {
                if completed.iter().any(|q| self.req_pending(r, q).is_some()) {
                    false
                } else {
                    for q in completed {
                        self.resolve_req(r, q, seq);
                    }
                    true
                }
            }
            kind if kind.is_collective() => {
                if !self.offered[r] {
                    self.offered[r] = true;
                    self.arrive_collective(r, ev);
                }
                let k = self.coll_count[r] - 1;
                self.epochs
                    .get(&k)
                    .is_some_and(|s| s.arrived.len() == self.p)
            }
            _ => true,
        };
        if advance {
            self.pc[r] += 1;
            self.offered[r] = false;
        }
        advance
    }

    fn arrive_collective(&mut self, r: usize, ev: &EventRecord) {
        let rank = ev.rank;
        let sig = coll_sig(&ev.kind).expect("collective event");
        let k = self.coll_count[r];
        self.coll_count[r] += 1;
        let world_bad = sig.comm_size as usize != self.p;
        let slot = self.epochs.entry(k).or_insert_with(|| EpochSlot {
            sig: sig.clone(),
            first: (rank, ev.seq),
            arrived: Vec::new(),
            skews: Vec::new(),
        });
        if !slot.arrived.is_empty() && slot.sig != sig {
            slot.skews.push(format!(
                "rank {} calls {} but rank {} calls {}",
                slot.first.0, slot.sig, rank, sig
            ));
        }
        if world_bad {
            slot.skews.push(format!(
                "rank {rank} names comm size {} but the trace has {} ranks",
                sig.comm_size, self.p
            ));
        }
        slot.arrived.push((rank, ev.seq));
    }

    /// Wait-for edges of a rank stuck at quiescence: which ranks could
    /// unblock it.
    fn wait_edges(&self, r: usize) -> Vec<Rank> {
        let ev = &self.ranks[r][self.pc[r]];
        match &ev.kind {
            EventKind::Send { peer, .. } | EventKind::Recv { peer, .. } => vec![*peer],
            EventKind::Wait { req } => self
                .req_pending(r, req)
                .map(|(src, _)| src)
                .into_iter()
                .collect(),
            EventKind::WaitAll { reqs } => reqs
                .iter()
                .filter_map(|q| self.req_pending(r, q))
                .map(|(src, _)| src)
                .collect(),
            EventKind::WaitSome { completed, .. } => completed
                .iter()
                .filter_map(|q| self.req_pending(r, q))
                .map(|(src, _)| src)
                .collect(),
            kind if kind.is_collective() => {
                let k = self.coll_count[r] - 1;
                let arrived: HashSet<Rank> = self
                    .epochs
                    .get(&k)
                    .map(|s| s.arrived.iter().map(|&(rank, _)| rank).collect())
                    .unwrap_or_default();
                (0..self.p as Rank)
                    .filter(|rank| !arrived.contains(rank))
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// The envelope-bearing `(rank, seq)` ops a stuck rank contributes to a
    /// deadlock cycle (its blocked event, plus the irecvs a wait covers) —
    /// used to suppress redundant unmatched-envelope diagnostics.
    fn blocked_ops(&self, r: usize) -> Vec<(Rank, Seq)> {
        let ev = &self.ranks[r][self.pc[r]];
        let mut ops = vec![(ev.rank, ev.seq)];
        let reqs: &[ReqId] = match &ev.kind {
            EventKind::Wait { req } => std::slice::from_ref(req),
            EventKind::WaitAll { reqs } => reqs,
            EventKind::WaitSome { completed, .. } => completed,
            _ => &[],
        };
        for q in reqs {
            if let Some((_, seq)) = self.req_pending(r, q) {
                ops.push((ev.rank, seq));
            }
        }
        ops
    }

    fn finish(mut self) -> ProgressOutcome {
        let p = self.p;
        let stuck: Vec<usize> = (0..p)
            .filter(|&r| self.pc[r] < self.ranks[r].len())
            .collect();
        let completed = stuck.is_empty();

        // Pass 2: wait-for graph over the stuck ranks, Tarjan SCC.
        let mut cycle_ops: HashSet<(Rank, Seq)> = HashSet::new();
        if !stuck.is_empty() {
            let mut adj: HashMap<Rank, Vec<Rank>> = HashMap::new();
            for &r in &stuck {
                let mut targets = self.wait_edges(r);
                targets.sort_unstable();
                targets.dedup();
                adj.insert(r as Rank, targets);
            }
            for comp in cyclic_sccs(&adj) {
                let members: HashSet<Rank> = comp.iter().copied().collect();
                let mut parts = Vec::new();
                for &rank in &comp {
                    let r = rank as usize;
                    let ev = &self.ranks[r][self.pc[r]];
                    let within: Vec<Rank> = self
                        .wait_edges(r)
                        .into_iter()
                        .filter(|t| members.contains(t))
                        .collect();
                    parts.push(format!(
                        "rank {rank} blocked at {} (seq {}) waiting on {:?}",
                        ev.kind.name(),
                        ev.seq,
                        within
                    ));
                    for op in self.blocked_ops(r) {
                        cycle_ops.insert(op);
                    }
                }
                let span = {
                    let r = comp[0] as usize;
                    (comp[0], self.ranks[r][self.pc[r]].seq)
                };
                self.diags.push(
                    Diagnostic::new(
                        Rule::Deadlock,
                        format!("wait-for cycle among ranks {comp:?}: {}", parts.join("; ")),
                    )
                    .at(span.0, span.1)
                    .involving(comp),
                );
            }
        }

        // Pass 5: collective epoch consistency.
        for (k, slot) in &self.epochs {
            let arrived_ranks: Vec<Rank> = slot.arrived.iter().map(|&(r, _)| r).collect();
            if !slot.skews.is_empty() {
                self.diags.push(
                    Diagnostic::new(
                        Rule::CollectiveSkew,
                        format!("collective epoch {k}: {}", slot.skews.join("; ")),
                    )
                    .at(slot.first.0, slot.first.1)
                    .involving(arrived_ranks.iter().copied()),
                );
            }
            if slot.arrived.len() < p {
                let missing: Vec<Rank> = (0..p as Rank)
                    .filter(|r| !arrived_ranks.contains(r))
                    .collect();
                self.diags.push(
                    Diagnostic::new(
                        Rule::CollectiveSkew,
                        format!(
                            "collective epoch {k} ({}): ranks {missing:?} never reach it",
                            slot.sig
                        ),
                    )
                    .at(slot.first.0, slot.first.1)
                    .involving(arrived_ranks.iter().copied().chain(missing.iter().copied())),
                );
            }
        }

        // Pass 1 residue: leftover envelopes, refined into tag mismatches
        // where a send/receive pair agrees on the channel.
        let (sends, recvs) = std::mem::take(&mut self.matcher).into_unmatched();
        let sends: Vec<LintSend> = sends
            .into_iter()
            .filter(|s| !cycle_ops.contains(&(s.src, s.seq)))
            .collect();
        let recvs: Vec<LintRecv> = recvs
            .into_iter()
            .filter(|r| !cycle_ops.contains(&(r.dst, r.seq)))
            .collect();
        let mut send_used = vec![false; sends.len()];
        for rv in &recvs {
            let hit = sends.iter().enumerate().position(|(i, s)| {
                !send_used[i]
                    && s.dst == rv.dst
                    && (rv.src_pattern == ANY_SOURCE || s.src == rv.src_pattern)
                    && rv.tag_pattern != ANY_TAG
                    && s.tag != rv.tag_pattern
            });
            if let Some(i) = hit {
                send_used[i] = true;
                let s = &sends[i];
                self.diags.push(
                    Diagnostic::new(
                        Rule::TagMismatch,
                        format!(
                            "rank {} sends tag {} to rank {} (seq {}) but the receive on \
                             rank {} (seq {}) expects tag {}",
                            s.src, s.tag, s.dst, s.seq, rv.dst, rv.seq, rv.tag_pattern
                        ),
                    )
                    .at(rv.dst, rv.seq)
                    .involving([s.src]),
                );
            } else {
                let mut d = Diagnostic::new(
                    Rule::UnmatchedRecv,
                    format!(
                        "receive posted for src {} tag {} is never satisfied",
                        fmt_rank(rv.src_pattern),
                        fmt_tag(rv.tag_pattern)
                    ),
                )
                .at(rv.dst, rv.seq);
                if (rv.src_pattern as usize) < p {
                    d = d.involving([rv.src_pattern]);
                }
                self.diags.push(d);
            }
        }
        for (i, s) in sends.iter().enumerate() {
            if !send_used[i] {
                self.diags.push(
                    Diagnostic::new(
                        Rule::UnmatchedSend,
                        format!(
                            "send to rank {} (tag {}, {} byte(s)) is never received",
                            s.dst, s.tag, s.bytes
                        ),
                    )
                    .at(s.src, s.seq)
                    .involving([s.dst]),
                );
            }
        }

        ProgressOutcome {
            diags: self.diags,
            matching: Matching {
                sends: self.sends,
                pairs: self.pairs,
                completed,
            },
        }
    }
}

fn fmt_rank(r: Rank) -> String {
    if r == ANY_SOURCE {
        "ANY".to_string()
    } else {
        r.to_string()
    }
}

fn fmt_tag(t: Tag) -> String {
    if t == ANY_TAG {
        "ANY".to_string()
    } else {
        t.to_string()
    }
}

/// Tarjan's strongly-connected components over the wait-for graph,
/// returning only the cyclic components (size ≥ 2; self-loops cannot occur
/// because self-messages are excluded upstream). Components and their
/// members are returned in ascending rank order for determinism.
fn cyclic_sccs(adj: &HashMap<Rank, Vec<Rank>>) -> Vec<Vec<Rank>> {
    struct State<'g> {
        adj: &'g HashMap<Rank, Vec<Rank>>,
        index: HashMap<Rank, usize>,
        low: HashMap<Rank, usize>,
        on_stack: HashSet<Rank>,
        stack: Vec<Rank>,
        next: usize,
        out: Vec<Vec<Rank>>,
    }

    fn visit(st: &mut State<'_>, v: Rank) {
        st.index.insert(v, st.next);
        st.low.insert(v, st.next);
        st.next += 1;
        st.stack.push(v);
        st.on_stack.insert(v);
        for &w in st.adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
            if !st.index.contains_key(&w) {
                if st.adj.contains_key(&w) {
                    visit(st, w);
                    let lw = st.low[&w];
                    let lv = st.low.get_mut(&v).unwrap();
                    *lv = (*lv).min(lw);
                }
                // Edges to ranks that are not blocked can never close a
                // cycle; ignore them.
            } else if st.on_stack.contains(&w) {
                let iw = st.index[&w];
                let lv = st.low.get_mut(&v).unwrap();
                *lv = (*lv).min(iw);
            }
        }
        if st.low[&v] == st.index[&v] {
            let mut comp = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on_stack.remove(&w);
                comp.push(w);
                if w == v {
                    break;
                }
            }
            if comp.len() >= 2 {
                comp.sort_unstable();
                st.out.push(comp);
            }
        }
    }

    let mut nodes: Vec<Rank> = adj.keys().copied().collect();
    nodes.sort_unstable();
    let mut st = State {
        adj,
        index: HashMap::new(),
        low: HashMap::new(),
        on_stack: HashSet::new(),
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in nodes {
        if !st.index.contains_key(&v) {
            visit(&mut st, v);
        }
    }
    st.out.sort();
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_finds_two_cycles() {
        let mut adj = HashMap::new();
        adj.insert(0, vec![1]);
        adj.insert(1, vec![0]);
        adj.insert(2, vec![3]);
        adj.insert(3, vec![2]);
        adj.insert(4, vec![0]); // blocked on the cycle but not in it
        let comps = cyclic_sccs(&adj);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn scc_ignores_edges_to_unblocked_ranks() {
        let mut adj = HashMap::new();
        adj.insert(0, vec![7]); // rank 7 is not blocked (absent from adj)
        assert!(cyclic_sccs(&adj).is_empty());
    }

    #[test]
    fn coll_sig_display() {
        let sig = coll_sig(&EventKind::Bcast {
            root: 2,
            bytes: 64,
            comm_size: 4,
        })
        .unwrap();
        assert_eq!(sig.to_string(), "bcast(root=2, 64B, comm=4)");
        assert_eq!(
            coll_sig(&EventKind::Barrier { comm_size: 8 })
                .unwrap()
                .to_string(),
            "barrier(comm=8)"
        );
        assert!(coll_sig(&EventKind::Init).is_none());
    }
}
