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
//! A forced run *is* the recorded run until the first receive its plan
//! names is about to be posted — the plan is read nowhere else — so forced
//! replays are not simulated from step 0: `replay_plans`, behind
//! [`forced_replays`] and pass 4, runs the recorded schedule once and
//! forks each plan off it at that point (DESIGN.md §18). [`run_progress`] under a witness policy stays the
//! from-scratch reference the forks are tested against.
//!
//! Matching reuses the simulator's [`EnvelopeMatcher`] so the lint passes
//! and the runtime share one implementation of the non-overtaking,
//! posted-order, wildcard-arbitration rules.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::envelope::{LintRecv, LintSend};
use mpg_core::forced::{ForcedOutcome, MatchPlan};
use mpg_core::EventId;
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
    fn plan(&self) -> MatchPlan {
        match self {
            MatchPolicy::Recorded => MatchPlan::new(),
            MatchPolicy::Witness(plan) => plan.clone(),
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

/// Runs the progress simulation under `policy` from its first step,
/// returning diagnostics and the matching.
pub fn run_progress(trace: &MemTrace, policy: &MatchPolicy) -> ProgressOutcome {
    let prog = Program::scan(trace);
    let mut sim = Sim::new(&prog, policy.plan());
    sim.resume(|_| false);
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
/// the pass-8 explorer both come through the fork engine under
/// [`forced_replays`], of which this is the batch of one, so a forced-match
/// sequence printed by any finding re-replays identically everywhere.
pub fn forced_replay(trace: &MemTrace, plan: &MatchPlan) -> ForcedReplay {
    forced_replays(trace, std::slice::from_ref(plan))
        .pop()
        .expect("one plan, one replay")
}

/// [`forced_replay`] of every plan in `plans`, in order, for the price of
/// one recorded run plus one suffix per plan: each plan's run is forked off
/// the recorded one where its first named receive is about to be posted.
/// Each result equals `run_progress(trace, &MatchPolicy::Witness(plan))`,
/// classified.
pub fn forced_replays(trace: &MemTrace, plans: &[MatchPlan]) -> Vec<ForcedReplay> {
    let mut replays: Vec<Option<ForcedReplay>> = vec![None; plans.len()];
    let plan = |i: usize| plans[i].clone();
    replay_plans(trace, plans.len(), plan, |i, sim| {
        let out = sim.finish();
        let outcome = if out.matching.completed {
            ForcedOutcome::Completed
        } else if out.diags.iter().any(|d| d.rule == Rule::Deadlock) {
            ForcedOutcome::Deadlocked
        } else {
            ForcedOutcome::Stuck
        };
        replays[i] = Some(ForcedReplay {
            outcome,
            matching: out.matching,
            diags: out.diags,
        });
    });
    replays
        .into_iter()
        .map(|r| r.expect("every plan is replayed"))
        .collect()
}

/// Replays the trace under each of the plans `plan(0..n_plans)`, handing
/// each finished simulation to `verdict` with its plan's index, for one
/// recorded run plus one *suffix* per plan instead of one whole simulation
/// per plan.
///
/// The recorded run advances until it is about to post a receive some plan
/// names. Up to there every such plan's run has been the recorded run, so
/// each is forked off it here: the state is copied (sweep cursor included)
/// into one scratch simulation whose buffers every fork reuses, the plan is
/// switched in, and the copy runs to quiescence. Then the recorded run
/// carries on. A plan none of whose receives is ever posted — a skipped
/// bad-peer receive, a recorded run that wedges first — is forked from the
/// quiescent state: it is the recorded run. The last plan standing needs no
/// copy, as nobody is left to want the recorded state: it takes the
/// recorded simulation over in place, which is all a batch of one does.
///
/// Plans are asked for when needed — once to index the receives they name,
/// once when forked — and dropped again: a batch is thousands of them, and
/// held all at once they outweigh everything else the batch keeps.
pub(crate) fn replay_plans(
    trace: &MemTrace,
    n_plans: usize,
    plan: impl Fn(usize) -> MatchPlan,
    mut verdict: impl FnMut(usize, &mut Sim<'_>),
) {
    if n_plans == 0 {
        return;
    }
    let prog = Program::scan(trace);
    let mut base = Sim::new(&prog, MatchPlan::new());
    let mut scratch: Option<Sim<'_>> = None;
    // (receive, plan naming it), sorted: the plans of one receive are a run.
    let mut names: Vec<(EventId, usize)> = Vec::with_capacity(n_plans);
    for i in 0..n_plans {
        names.extend(plan(i).forced().iter().map(|f| (f.recv, i)));
    }
    names.shrink_to_fit();
    names.sort_unstable();
    let naming = |recv: EventId| {
        let first = names.partition_point(|&(named, _)| named < recv);
        names[first..]
            .iter()
            .take_while(move |&&(named, _)| named == recv)
            .map(|&(_, i)| i)
    };
    let mut forked = vec![false; n_plans];
    let mut left = n_plans;
    while left > 0 {
        // Pause where a plan still riding the recorded run first matters.
        let due: Vec<usize> = match base.resume(|recv| naming(recv).any(|i| !forked[i])) {
            Some(recv) => naming(recv).collect(),
            None => (0..n_plans).collect(),
        };
        for i in due {
            if std::mem::replace(&mut forked[i], true) {
                continue;
            }
            left -= 1;
            let sim = if left == 0 {
                &mut base
            } else {
                let sim = scratch.get_or_insert_with(|| base.clone_sized());
                sim.copy_from(&base);
                sim
            };
            sim.plan = plan(i);
            sim.resume(|_| false);
            verdict(i, sim);
        }
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
#[derive(Clone)]
struct EpochSlot {
    k: u64,
    sig: CollSig,
    first: (Rank, Seq),
    arrived: Vec<(Rank, Seq)>,
    skews: Vec<String>,
}

/// What one pass over the trace settles before any event executes. Every
/// simulation of the trace — the recorded run and each fork — shares it.
struct Program<'t> {
    ranks: Vec<&'t [EventRecord]>,
    /// `skip[r][i]`: event `i` of rank `r` is a local no-op for the
    /// simulation (a bad peer would never match; a self-message is already
    /// reported by validation). A rank with no such event keeps an empty
    /// row, which is every rank of a clean trace.
    skip: Vec<Vec<bool>>,
    /// The `MPG-BAD-PEER` findings; they open every run's diagnostics.
    bad_peers: Vec<Diagnostic>,
    /// Sends in the trace: each is offered once and matches at most once,
    /// so this bounds both logs.
    n_sends: usize,
}

impl<'t> Program<'t> {
    /// Pass over every event flagging peers outside the communicator
    /// (`MPG-BAD-PEER`) and marking events the simulation must treat as
    /// local no-ops.
    fn scan(trace: &'t MemTrace) -> Self {
        let p = trace.num_ranks();
        let mut prog = Program {
            ranks: (0..p).map(|r| trace.rank(r)).collect(),
            skip: vec![Vec::new(); p],
            bad_peers: Vec::new(),
            n_sends: 0,
        };
        for r in 0..p {
            let events = prog.ranks[r];
            for (i, ev) in events.iter().enumerate() {
                let (peer, what) = match ev.kind {
                    EventKind::Send { peer, .. } | EventKind::Isend { peer, .. } => {
                        prog.n_sends += 1;
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
                let bad = peer as usize >= p;
                if bad {
                    prog.bad_peers.push(
                        Diagnostic::new(
                            Rule::BadPeer,
                            format!("{what} rank {peer} but the trace has {p} ranks"),
                        )
                        .at(ev.rank, ev.seq),
                    );
                }
                // Self-messages are a validate-pass finding
                // (MPG-SELF-MESSAGE); skipped here so the matcher never
                // sees a rank-local channel.
                if (bad || peer as usize == r) && !ev.kind.is_collective() {
                    let row = &mut prog.skip[r];
                    row.resize(events.len(), false);
                    row[i] = true;
                }
            }
        }
        prog
    }

    fn skips(&self, r: usize, i: usize) -> bool {
        self.skip[r].get(i).copied().unwrap_or(false)
    }
}

/// What [`Sim::step`] did with a rank's current event.
enum Step {
    /// Executed it; the rank moved on.
    Advanced,
    /// Its blocking condition does not hold (or the rank is finished).
    Blocked,
    /// It is a receive the caller asked to stop at, about to be posted;
    /// nothing has changed.
    Paused(EventId),
}

#[cfg(test)]
thread_local! {
    /// Simulations started from step 0 by the current test thread.
    pub(crate) static BASE_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// [`Sim::step`] calls made by the current test thread.
    pub(crate) static STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One run of the progress simulation, at some point of its execution.
///
/// Everything a run has decided so far is in here — the sweep cursor
/// included — so copying the fields forks the run: the copy, resumed under
/// another plan, is exactly the run that would have reached this point
/// under that plan, provided no receive the plan names was posted yet.
#[derive(Clone)]
pub(crate) struct Sim<'a> {
    prog: &'a Program<'a>,
    /// Forced sources, read when a receive is posted and nowhere else;
    /// the empty plan posts every receive as recorded.
    plan: MatchPlan,
    /// Sweep cursor: the rank being stepped, and whether any rank advanced
    /// in the current round over the ranks.
    sweep: usize,
    progressed: bool,
    pc: Vec<usize>,
    offered: Vec<bool>,
    /// `matched[r]`: the event at `pc[r]` has found its counterpart. Only
    /// the event a rank is blocked on is ever asked, so this bit — set in
    /// `on_match` when the matched event is the current one, cleared when
    /// the rank advances — answers what a set of every matched event would.
    matched: Vec<bool>,
    matcher: EnvelopeMatcher<LintSend, LintRecv>,
    issue: u64,
    reqs: Vec<HashMap<ReqId, ReqState>>,
    coll_count: Vec<u64>,
    /// The epoch ranks are arriving at. No rank reaches epoch k+1 before
    /// all of them passed epoch k, so at most one is ever incomplete.
    open_epoch: Option<EpochSlot>,
    /// Completed epochs with something to report, in epoch order.
    skewed_epochs: Vec<EpochSlot>,
    sends: Vec<SendRec>,
    pairs: Vec<MatchPair>,
    diags: Vec<Diagnostic>,
}

impl<'a> Sim<'a> {
    fn new(prog: &'a Program<'a>, plan: MatchPlan) -> Self {
        #[cfg(test)]
        BASE_RUNS.with(|c| c.set(c.get() + 1));
        let p = prog.ranks.len();
        Sim {
            prog,
            plan,
            sweep: 0,
            progressed: false,
            pc: vec![0; p],
            offered: vec![false; p],
            matched: vec![false; p],
            matcher: EnvelopeMatcher::new(),
            issue: 0,
            reqs: vec![HashMap::new(); p],
            coll_count: vec![0; p],
            open_epoch: None,
            skewed_epochs: Vec::new(),
            // Sized up front: growing by doubling leaves a long run's
            // footprint straddling the allocator's trim threshold.
            sends: Vec::with_capacity(prog.n_sends),
            pairs: Vec::with_capacity(prog.n_sends),
            diags: prog.bad_peers.clone(),
        }
    }

    /// A copy whose logs have room for the whole run, as `new`'s do, so no
    /// fork ever regrows them.
    fn clone_sized(&self) -> Self {
        let mut copy = self.clone();
        let n = self.prog.n_sends;
        copy.sends.reserve_exact(n.saturating_sub(copy.sends.len()));
        copy.pairs.reserve_exact(n.saturating_sub(copy.pairs.len()));
        copy
    }

    /// Makes `self` the run `other` is, into the buffers `self` already
    /// owns: a fork costs the bytes of the state, not its allocations (two
    /// fresh logs per fork, page faults included, cost as much as the
    /// steps forking saves).
    fn copy_from(&mut self, other: &Sim<'a>) {
        // Exhaustive on purpose: a new field must decide how it is copied.
        let Sim {
            prog,
            plan,
            sweep,
            progressed,
            pc,
            offered,
            matched,
            matcher,
            issue,
            reqs,
            coll_count,
            open_epoch,
            skewed_epochs,
            sends,
            pairs,
            diags,
        } = other;
        self.prog = prog;
        self.plan.clone_from(plan);
        self.sweep = *sweep;
        self.progressed = *progressed;
        self.pc.clone_from(pc);
        self.offered.clone_from(offered);
        self.matched.clone_from(matched);
        self.matcher.clone_from(matcher);
        self.issue = *issue;
        self.reqs.clone_from(reqs);
        self.coll_count.clone_from(coll_count);
        self.open_epoch.clone_from(open_epoch);
        self.skewed_epochs.clone_from(skewed_epochs);
        self.sends.clone_from(sends);
        self.pairs.clone_from(pairs);
        self.diags.clone_from(diags);
    }

    /// Sweeps the ranks round-robin from the cursor, each stepped until it
    /// blocks, round after round until one passes without progress. Stops
    /// early — with nothing changed, so calling again carries on — when
    /// the next thing to happen is the posting of a receive `pause_at`
    /// accepts, and returns that receive.
    fn resume(&mut self, pause_at: impl Fn(EventId) -> bool) -> Option<EventId> {
        let p = self.prog.ranks.len();
        loop {
            while self.sweep < p {
                match self.step(self.sweep, &pause_at) {
                    Step::Advanced => self.progressed = true,
                    Step::Blocked => self.sweep += 1,
                    Step::Paused(recv) => return Some(recv),
                }
            }
            if !self.progressed {
                return None;
            }
            self.sweep = 0;
            self.progressed = false;
        }
    }

    /// True when every rank ran its program to the end (an empty trace
    /// completes nothing).
    pub(crate) fn completed(&self) -> bool {
        !self.pc.is_empty() && (0..self.pc.len()).all(|r| self.pc[r] >= self.prog.ranks[r].len())
    }

    /// True when receive `recv` matched a message from rank `src`.
    pub(crate) fn delivered(&self, recv: EventId, src: Rank) -> bool {
        self.pairs.iter().any(|p| p.recv == recv && p.send.0 == src)
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
        if self.pc[s.src as usize] == s.idx {
            self.matched[s.src as usize] = true;
        }
        if self.pc[r.dst as usize] == r.idx {
            self.matched[r.dst as usize] = true;
        }
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
    /// satisfied.
    fn step(&mut self, r: usize, pause_at: &impl Fn(EventId) -> bool) -> Step {
        #[cfg(test)]
        STEPS.with(|c| c.set(c.get() + 1));
        let prog = self.prog;
        let i = self.pc[r];
        let Some(ev) = prog.ranks[r].get(i) else {
            return Step::Blocked;
        };
        // The stream's rank, which is what every table here is indexed by
        // (validation reports a record whose own rank field disagrees).
        let rank = r as Rank;
        let seq = ev.seq;
        let skipped = prog.skips(r, i);
        let advance = match &ev.kind {
            EventKind::Init | EventKind::Finalize | EventKind::Compute { .. } => true,
            EventKind::Test { req, completed } => {
                if *completed {
                    self.resolve_req(r, req, seq);
                }
                true
            }
            EventKind::Send { .. } | EventKind::Recv { .. } if skipped => true,
            EventKind::Send {
                peer,
                tag,
                bytes,
                protocol,
            } => {
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
                        idx: i,
                        issue,
                    };
                    self.offer_send(env);
                }
                // Only the synchronous form waits for the match; the
                // eager assumption keeps head-to-head standard sends
                // from reporting false deadlocks.
                *protocol != SendProtocol::Synchronous || self.matched[r]
            }
            EventKind::Recv {
                peer,
                tag,
                bytes,
                posted_any,
            } => {
                if !self.offered[r] {
                    if pause_at((rank, seq)) {
                        return Step::Paused((rank, seq));
                    }
                    self.offered[r] = true;
                    let env = LintRecv {
                        dst: rank,
                        src_pattern: self.plan.source_for((rank, seq), *peer),
                        tag_pattern: *tag,
                        bytes: *bytes,
                        seq,
                        idx: i,
                        posted_any: *posted_any,
                        req: None,
                    };
                    self.offer_recv(env);
                }
                self.matched[r]
            }
            EventKind::Isend {
                peer,
                tag,
                bytes,
                req,
            } => {
                self.reqs[r].insert(*req, ReqState::SendDone);
                if !skipped {
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
                        idx: i,
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
                if skipped {
                    self.reqs[r].insert(*req, ReqState::RecvDone { pair: None });
                } else {
                    if pause_at((rank, seq)) {
                        return Step::Paused((rank, seq));
                    }
                    self.reqs[r].insert(*req, ReqState::RecvPending { src: *peer, seq });
                    let env = LintRecv {
                        dst: rank,
                        src_pattern: self.plan.source_for((rank, seq), *peer),
                        tag_pattern: *tag,
                        bytes: *bytes,
                        seq,
                        idx: i,
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
                // This rank has arrived at epoch k, so an epoch k that is
                // no longer the open one has everybody in.
                let k = self.coll_count[r] - 1;
                self.open_epoch.as_ref().is_none_or(|slot| slot.k != k)
            }
            _ => true,
        };
        if !advance {
            return Step::Blocked;
        }
        self.pc[r] += 1;
        self.offered[r] = false;
        self.matched[r] = false;
        Step::Advanced
    }

    fn arrive_collective(&mut self, r: usize, ev: &EventRecord) {
        let rank = r as Rank;
        let p = self.prog.ranks.len();
        let sig = coll_sig(&ev.kind).expect("collective event");
        let k = self.coll_count[r];
        self.coll_count[r] += 1;
        let world_bad = sig.comm_size as usize != p;
        debug_assert!(self.open_epoch.as_ref().is_none_or(|slot| slot.k == k));
        let slot = self.open_epoch.get_or_insert_with(|| EpochSlot {
            k,
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
                "rank {rank} names comm size {} but the trace has {p} ranks",
                sig.comm_size
            ));
        }
        slot.arrived.push((rank, ev.seq));
        if slot.arrived.len() == p {
            let done = self.open_epoch.take().expect("the slot just filled");
            if !done.skews.is_empty() {
                self.skewed_epochs.push(done);
            }
        }
    }

    /// Wait-for edges of a rank stuck at quiescence: which ranks could
    /// unblock it.
    fn wait_edges(&self, r: usize) -> Vec<Rank> {
        let ev = &self.prog.ranks[r][self.pc[r]];
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
                // A rank stuck at a collective is stuck at the open epoch.
                let arrived: HashSet<Rank> = self
                    .open_epoch
                    .iter()
                    .flat_map(|slot| slot.arrived.iter().map(|&(rank, _)| rank))
                    .collect();
                (0..self.prog.ranks.len() as Rank)
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
        let ev = &self.prog.ranks[r][self.pc[r]];
        let rank = r as Rank;
        let mut ops = vec![(rank, ev.seq)];
        let reqs: &[ReqId] = match &ev.kind {
            EventKind::Wait { req } => std::slice::from_ref(req),
            EventKind::WaitAll { reqs } => reqs,
            EventKind::WaitSome { completed, .. } => completed,
            _ => &[],
        };
        for q in reqs {
            if let Some((_, seq)) = self.req_pending(r, q) {
                ops.push((rank, seq));
            }
        }
        ops
    }

    /// Closes the run: the quiescence findings (passes 2 and 5, the
    /// leftover envelopes of pass 1) join the diagnostics, and the logs
    /// move out into the outcome. The simulation is spent afterwards;
    /// [`Sim::copy_from`] makes it a run again.
    pub(crate) fn finish(&mut self) -> ProgressOutcome {
        let ranks = &self.prog.ranks;
        let p = ranks.len();
        let stuck: Vec<usize> = (0..p).filter(|&r| self.pc[r] < ranks[r].len()).collect();
        let completed = self.completed();

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
                    let ev = &ranks[r][self.pc[r]];
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
                    (comp[0], ranks[r][self.pc[r]].seq)
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
        for slot in self.skewed_epochs.iter().chain(&self.open_epoch) {
            let k = slot.k;
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
            diags: std::mem::take(&mut self.diags),
            matching: Matching {
                sends: std::mem::take(&mut self.sends),
                pairs: std::mem::take(&mut self.pairs),
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

    /// Two rendezvous sends under one sequence number (a trace `validate`
    /// rejects, but `run_progress` is public): the second must wait for a
    /// receive of its own, not ride on the first one's match.
    #[test]
    fn matched_bit_is_keyed_by_event_index_not_seq() {
        let ev = |rank, seq, kind| EventRecord {
            rank,
            seq,
            t_start: seq * 10,
            t_end: seq * 10 + 5,
            kind,
        };
        let ssend = EventKind::Send {
            peer: 1,
            tag: 0,
            bytes: 8,
            protocol: SendProtocol::Synchronous,
        };
        let recv = EventKind::Recv {
            peer: 0,
            tag: 0,
            bytes: 8,
            posted_any: false,
        };
        let trace = MemTrace::from_ranks(vec![
            vec![
                ev(0, 0, EventKind::Init),
                ev(0, 1, ssend.clone()),
                ev(0, 1, ssend),
                ev(0, 2, EventKind::Finalize),
            ],
            vec![
                ev(1, 0, EventKind::Init),
                ev(1, 1, recv),
                ev(1, 2, EventKind::Finalize),
            ],
        ]);
        let out = run_progress(&trace, &MatchPolicy::Recorded);
        assert!(!out.matching.completed);
        assert_eq!(out.matching.pairs.len(), 1);
        let rules: Vec<Rule> = out.diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![Rule::UnmatchedSend]);
    }

    /// A plan none of whose receives is ever posted — one is skipped for
    /// its bad peer, the other sits behind the point where the recorded
    /// run wedges — is the recorded run, in a batch and alone.
    #[test]
    fn plans_never_posted_replay_the_recorded_run() {
        let ev = |rank, seq, kind| EventRecord {
            rank,
            seq,
            t_start: seq * 10,
            t_end: seq * 10 + 5,
            kind,
        };
        let recv = |peer| EventKind::Recv {
            peer,
            tag: 0,
            bytes: 8,
            posted_any: true,
        };
        let send = |peer| EventKind::Send {
            peer,
            tag: 0,
            bytes: 8,
            protocol: SendProtocol::Standard,
        };
        // Head-to-head receives deadlock both ranks at seq 2.
        let trace = MemTrace::from_ranks(vec![
            vec![
                ev(0, 0, EventKind::Init),
                ev(0, 1, recv(7)),
                ev(0, 2, recv(1)),
                ev(0, 3, send(1)),
                ev(0, 4, recv(1)),
            ],
            vec![
                ev(1, 0, EventKind::Init),
                ev(1, 1, EventKind::Compute { work: 1 }),
                ev(1, 2, recv(0)),
                ev(1, 3, send(0)),
            ],
        ]);
        let plans = [
            MatchPlan::new().force((0, 1), 1),
            MatchPlan::new().force((0, 4), 1).force((0, 1), 1),
            MatchPlan::new(),
        ];
        let recorded = run_progress(&trace, &MatchPolicy::Recorded);
        assert!(recorded.diags.iter().any(|d| d.rule == Rule::Deadlock));
        let (batch, base_runs) = {
            let before = BASE_RUNS.with(|c| c.get());
            let batch = forced_replays(&trace, &plans);
            (batch, BASE_RUNS.with(|c| c.get()) - before)
        };
        assert_eq!(base_runs, 1);
        for (plan, forked) in plans.iter().zip(&batch) {
            for replay in [forked, &forced_replay(&trace, plan)] {
                assert_eq!(replay.outcome, ForcedOutcome::Deadlocked, "[{plan}]");
                assert_eq!(replay.diags, recorded.diags, "[{plan}]");
                assert_eq!(replay.matching.pairs, recorded.matching.pairs, "[{plan}]");
                assert_eq!(replay.matching.sends, recorded.matching.sends, "[{plan}]");
            }
        }
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
