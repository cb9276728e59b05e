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
//! [`forced_replays`], runs the recorded schedule once and forks each plan
//! off it at that point (DESIGN.md §18). Pass 4 wants of each fork only
//! whether it completes and what its racy receive matched, and comes
//! through `replay_verdicts`: the same engine, whose forks leave the logs
//! behind and — every receive being posted with a specific source, the
//! simulation is a deterministic network whose outcome no sweep order
//! changes — stop where they are the recorded program again: a plan that
//! swaps the sources of two receives of one rank, once both have matched,
//! under the premise `RejoinGuard` checks (DESIGN.md §18.8). Every other
//! plan runs the same loop to quiescence. [`run_progress`] under a witness
//! policy stays the from-scratch reference both are tested against.
//!
//! Matching runs through `mpg-trace`'s [`EnvelopeMatcher`], so the lint
//! passes, the runtime, replay and the DES share one implementation of the
//! non-overtaking, posted-order, wildcard-arbitration rules.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::envelope::{LintRecv, LintSend};
use mpg_core::forced::{ForcedOutcome, MatchPlan};
use mpg_core::EventId;
use mpg_trace::{
    Diagnostic, EnvelopeMatcher, EventKind, EventRecord, MemTrace, Rank, ReqId, Rule, SendProtocol,
    Seq, Tag, ANY_SOURCE, ANY_TAG,
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
    verdict: impl FnMut(usize, &mut Sim<'_>),
) {
    replay_batch(trace, n_plans, plan, None, verdict);
}

/// [`replay_plans`] for a caller that reads nothing of a replay but
/// [`Sim::completed`] and [`Sim::delivered`] of receives its plan names —
/// which is all a shared reference lets it do. Such a fork does not carry
/// the recorded run's logs, and where its plan passes the [`RejoinGuard`]
/// it stops as soon as both receives the plan swaps have matched: from
/// there it is the recorded program again, which completes (DESIGN.md
/// §18.8). `recorded_completed` is that premise — the recorded run of
/// `trace` runs every rank to its end; with `false` no fork stops early.
/// A plan the guard refuses takes the same loop to quiescence.
pub(crate) fn replay_verdicts(
    trace: &MemTrace,
    recorded_completed: bool,
    n_plans: usize,
    plan: impl Fn(usize) -> MatchPlan,
    mut verdict: impl FnMut(usize, &Sim<'_>),
) {
    let verdict = |i: usize, sim: &mut Sim<'_>| verdict(i, sim);
    replay_batch(trace, n_plans, plan, Some(recorded_completed), verdict);
}

/// The fork engine behind [`replay_plans`] (`verdict_only` is `None`: every
/// fork is a whole run, logs included) and [`replay_verdicts`] (`Some` of
/// whether the recorded run completes).
fn replay_batch(
    trace: &MemTrace,
    n_plans: usize,
    plan: impl Fn(usize) -> MatchPlan,
    verdict_only: Option<bool>,
    mut verdict: impl FnMut(usize, &mut Sim<'_>),
) {
    if n_plans == 0 {
        return;
    }
    let prog = Program::scan(trace);
    let guard = match verdict_only {
        Some(true) => RejoinGuard::scan(&prog),
        _ => None,
    };
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
                let sim = scratch.get_or_insert_with(|| Sim::blank(&prog));
                sim.copy_from(&base, verdict_only.is_none());
                sim
            };
            sim.plan = plan(i);
            sim.rejoin = guard.as_ref().and_then(|g| g.admits(&prog, &sim.plan));
            #[cfg(test)]
            if verdict_only.is_some() && sim.rejoin.is_none() {
                GUARD_REFUSALS.with(|c| c.set(c.get() + 1));
            }
            sim.resume(|_| false);
            verdict(i, sim);
        }
    }
}

/// The two receives a pass-4 plan swaps, as a fork watches them: once both
/// have matched the fork may stop (DESIGN.md §18.8).
#[derive(Debug, Clone, Copy)]
struct Rejoin {
    /// The rank posting both.
    rank: Rank,
    /// Their positions in its stream, in program order.
    idx: [usize; 2],
    /// The source the earlier one is forced onto: the later one's recorded
    /// source.
    onto: Rank,
    /// The tag both carry.
    tag: Tag,
    /// How many of the two have yet to match.
    unmatched: u8,
}

/// The premise of the early stop that is read off the trace, settled once
/// per batch: under it a fork whose plan swaps the sources of two receives
/// is, from the moment both have matched, in a state the recorded program
/// reaches — so it completes if the recorded run does (DESIGN.md §18.8).
struct RejoinGuard {
    /// `ascending[r]`: rank `r`'s sequence numbers strictly ascend, so a
    /// `(rank, seq)` names at most one of its events.
    ascending: Vec<bool>,
    /// `any_tag[r]`: the sources rank `r` posts an `ANY_TAG` receive on.
    any_tag: Vec<Vec<Rank>>,
}

impl RejoinGuard {
    /// `None` when some rank initiates one request id twice: a late match
    /// then completes whichever request holds the id at that moment, what
    /// blocks a rank depends on the order of the sweep, and no state of
    /// such a run says how it ends.
    fn scan(prog: &Program<'_>) -> Option<Self> {
        let p = prog.ranks.len();
        let mut guard = RejoinGuard {
            ascending: Vec::with_capacity(p),
            any_tag: vec![Vec::new(); p],
        };
        let mut reqs: Vec<ReqId> = Vec::new();
        for (r, events) in prog.ranks.iter().enumerate() {
            guard
                .ascending
                .push(events.windows(2).all(|w| w[0].seq < w[1].seq));
            reqs.clear();
            for ev in events.iter() {
                if let EventKind::Recv {
                    peer, tag: ANY_TAG, ..
                }
                | EventKind::Irecv {
                    peer, tag: ANY_TAG, ..
                } = ev.kind
                {
                    guard.any_tag[r].push(peer);
                }
                if let EventKind::Isend { req, .. } | EventKind::Irecv { req, .. } = ev.kind {
                    reqs.push(req);
                }
            }
            reqs.sort_unstable();
            if reqs.windows(2).any(|w| w[0] == w[1]) {
                return None;
            }
        }
        Some(guard)
    }

    /// The stop `plan` earns, if it is a swap this guard covers: exactly two
    /// receives of one rank, each named once by its `(rank, seq)` and not
    /// skipped, each forced onto the other's recorded source, both carrying
    /// one specific tag, on two channels that rank posts no `ANY_TAG`
    /// receive on — so per `(source, tag)` the rank consumes after the swap
    /// what it consumed before it.
    fn admits(&self, prog: &Program<'_>, plan: &MatchPlan) -> Option<Rejoin> {
        let [a, b] = plan.forced() else {
            return None;
        };
        let rank = a.recv.0;
        let r = rank as usize;
        if b.recv.0 != rank || !*self.ascending.get(r)? {
            return None;
        }
        let events = prog.ranks[r];
        let posted = |recv: EventId| {
            let idx = events.binary_search_by_key(&recv.1, |ev| ev.seq).ok()?;
            match events[idx].kind {
                EventKind::Recv { peer, tag, .. } | EventKind::Irecv { peer, tag, .. }
                    if !prog.skips(r, idx) =>
                {
                    Some((idx, peer, tag))
                }
                _ => None,
            }
        };
        let ((ia, from_a, tag), (ib, from_b, tag_b)) = (posted(a.recv)?, posted(b.recv)?);
        let swaps = a.source == from_b && b.source == from_a;
        let one_tag = tag == tag_b
            && tag != ANY_TAG
            && !self.any_tag[r]
                .iter()
                .any(|&src| src == from_a || src == from_b);
        if !swaps || !one_tag {
            return None;
        }
        let (idx, onto) = if ia < ib {
            ([ia, ib], from_b)
        } else {
            ([ib, ia], from_a)
        };
        Some(Rejoin {
            rank,
            idx,
            onto,
            tag,
            unmatched: 2,
        })
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
    /// Forks the current test thread stopped at their rejoin point.
    pub(crate) static REJOINS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Plans of [`replay_verdicts`] batches the [`RejoinGuard`] refused.
    pub(crate) static GUARD_REFUSALS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Entries of `Sim::pairs` copied into forks by the current test thread.
    pub(crate) static PAIRS_COPIED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One run of the progress simulation, at some point of its execution.
///
/// Everything a run has decided so far is in here — the sweep cursor
/// included — so copying the fields forks the run: the copy, resumed under
/// another plan, is exactly the run that would have reached this point
/// under that plan, provided no receive the plan names was posted yet.
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
    /// The matched pairs from number `pairs_base` on: a fork that is only
    /// asked for its verdict leaves the recorded run's behind. Requests
    /// hold pair *numbers*, which count from the start of the run.
    pairs: Vec<MatchPair>,
    pairs_base: usize,
    diags: Vec<Diagnostic>,
    /// The two receives whose matching ends a verdict-only fork early.
    rejoin: Option<Rejoin>,
    /// They have matched, and the state is one the recorded program reaches.
    rejoined: bool,
}

impl<'a> Sim<'a> {
    fn new(prog: &'a Program<'a>, plan: MatchPlan) -> Self {
        #[cfg(test)]
        BASE_RUNS.with(|c| c.set(c.get() + 1));
        let mut sim = Sim::blank(prog);
        sim.plan = plan;
        sim.reserve_logs();
        sim.diags.clone_from(&prog.bad_peers);
        sim
    }

    /// A simulation of `prog` that owns no buffer yet: [`Sim::copy_from`]
    /// makes it a run.
    fn blank(prog: &'a Program<'a>) -> Self {
        let p = prog.ranks.len();
        Sim {
            prog,
            plan: MatchPlan::new(),
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
            sends: Vec::new(),
            pairs: Vec::new(),
            pairs_base: 0,
            diags: Vec::new(),
            rejoin: None,
            rejoined: false,
        }
    }

    /// Room in both logs for the whole run, up front: growing by doubling
    /// leaves a long run's footprint straddling the allocator's trim
    /// threshold, and a fork that regrows them pays for it every time.
    fn reserve_logs(&mut self) {
        let n = self.prog.n_sends;
        self.sends.reserve_exact(n.saturating_sub(self.sends.len()));
        self.pairs.reserve_exact(n.saturating_sub(self.pairs.len()));
    }

    /// Makes `self` the run `other` is, into the buffers `self` already
    /// owns: a fork costs the bytes of the state, not its allocations (two
    /// fresh logs per fork, page faults included, cost as much as the
    /// steps forking saves). Without `history` the logs stay behind — up to
    /// 31 KB per fork on a 2 000-event trace, and what made a batch
    /// quadratic in trace length — and the copy starts its own: right for a
    /// fork asked only whether it completes and what the receives it names
    /// (none of them posted yet) go on to match.
    fn copy_from(&mut self, other: &Sim<'a>, history: bool) {
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
            pairs_base,
            diags,
            rejoin,
            rejoined,
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
        self.rejoin = *rejoin;
        self.rejoined = *rejoined;
        if history {
            #[cfg(test)]
            PAIRS_COPIED.with(|c| c.set(c.get() + pairs.len()));
            self.sends.clone_from(sends);
            self.pairs.clone_from(pairs);
            self.pairs_base = *pairs_base;
            self.diags.clone_from(diags);
            self.reserve_logs();
        } else {
            self.sends.clear();
            self.pairs.clear();
            self.pairs_base = pairs_base + pairs.len();
            self.diags.clear();
        }
    }

    /// Sweeps the ranks round-robin from the cursor, each stepped until it
    /// blocks, round after round until one passes without progress. Stops
    /// early — with nothing changed, so calling again carries on — when
    /// the next thing to happen is the posting of a receive `pause_at`
    /// accepts, and returns that receive. A run watching two receives
    /// ([`Rejoin`]) also stops after the step that matched the second of
    /// them, if that leaves it in a state of the recorded program.
    fn resume(&mut self, pause_at: impl Fn(EventId) -> bool) -> Option<EventId> {
        let p = self.prog.ranks.len();
        loop {
            while self.sweep < p && !self.rejoined {
                match self.step(self.sweep, &pause_at) {
                    Step::Advanced => self.progressed = true,
                    Step::Blocked => self.sweep += 1,
                    Step::Paused(recv) => return Some(recv),
                }
            }
            if self.rejoined {
                return None;
            }
            if !self.progressed {
                return None;
            }
            self.sweep = 0;
            self.progressed = false;
        }
    }

    /// True when every rank ran its program to the end (an empty trace
    /// completes nothing) — or is bound to: a run stopped at its rejoin
    /// point is in a state of the recorded program, which the
    /// [`RejoinGuard`] was told completes.
    pub(crate) fn completed(&self) -> bool {
        self.rejoined
            || !self.pc.is_empty()
                && (0..self.pc.len()).all(|r| self.pc[r] >= self.prog.ranks[r].len())
    }

    /// True when receive `recv` matched a message from rank `src`. A fork
    /// made without history answers for what matched since the fork, which
    /// is every match of a receive its plan names.
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
        let pair = self.pairs_base + self.pairs.len();
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
        if let Some(watch) = &mut self.rejoin {
            if r.dst == watch.rank && watch.idx.contains(&r.idx) {
                watch.unmatched -= 1;
                if watch.unmatched == 0 {
                    self.rejoined = self.at_recorded_state();
                    self.rejoin = None;
                    #[cfg(test)]
                    REJOINS.with(|c| c.set(c.get() + usize::from(self.rejoined)));
                }
            }
        }
    }

    /// Both watched receives have just matched: is this a state of the
    /// recorded program? Per `(source, tag)` the rank has posted, and the
    /// matcher has paired off in posting order, as many receives as the
    /// recorded program has at these program counters. The *same* receives
    /// are paired unless one posted between the two, on the channel the
    /// earlier one was moved onto, still waits: the recorded program would
    /// have given it the message the earlier one took, and left the later
    /// of the two waiting in its place (DESIGN.md §18.8).
    fn at_recorded_state(&self) -> bool {
        let Some(watch) = self.rejoin else {
            return false;
        };
        !self.matcher.iter_posted().any(|pr| {
            pr.dst == watch.rank
                && pr.src_pattern == watch.onto
                && pr.tag_pattern == watch.tag
                && pr.idx < watch.idx[1]
        })
    }

    /// A wait at `seq` resolved `req`: stamp the completion point on the
    /// irecv's pair (if it matched) and drop the request.
    fn resolve_req(&mut self, r: usize, req: &ReqId, seq: Seq) {
        if let Some(ReqState::RecvDone { pair: Some(pair) }) = self.reqs[r].remove(req) {
            // A pair from before a fork without history is not in the log.
            if let Some(idx) = pair.checked_sub(self.pairs_base) {
                self.pairs[idx].completion = seq;
            }
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
    use proptest::prelude::*;

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

    /// Rank `rank`'s stream: `kinds` between an init and a finalize,
    /// numbered from 0.
    fn stream(rank: Rank, kinds: Vec<EventKind>) -> Vec<EventRecord> {
        let kinds = [vec![EventKind::Init], kinds, vec![EventKind::Finalize]].concat();
        let ev = |(seq, kind)| EventRecord {
            rank,
            seq: seq as Seq,
            t_start: seq as u64 * 10,
            t_end: seq as u64 * 10 + 5,
            kind,
        };
        kinds.into_iter().enumerate().map(ev).collect()
    }

    fn send(peer: Rank, tag: Tag) -> EventKind {
        EventKind::Send {
            peer,
            tag,
            bytes: 8,
            protocol: SendProtocol::Buffered,
        }
    }

    fn recv(peer: Rank, tag: Tag, posted_any: bool) -> EventKind {
        EventKind::Recv {
            peer,
            tag,
            bytes: 8,
            posted_any,
        }
    }

    fn irecv(peer: Rank, tag: Tag, req: ReqId, posted_any: bool) -> EventKind {
        EventKind::Irecv {
            peer,
            tag,
            bytes: 8,
            req,
            posted_any,
        }
    }

    /// What pass 4 reads of each plan — the run completes and the first
    /// receive the plan names took its forced source — from a
    /// [`replay_verdicts`] batch told the recorded run's real outcome, and
    /// how many of the forks stopped at their rejoin point.
    fn batch_verdicts(trace: &MemTrace, plans: &[MatchPlan]) -> (Vec<bool>, usize) {
        let recorded = run_progress(trace, &MatchPolicy::Recorded)
            .matching
            .completed;
        let before = REJOINS.with(|c| c.get());
        let mut holds = vec![false; plans.len()];
        let plan = |i: usize| plans[i].clone();
        replay_verdicts(trace, recorded, plans.len(), plan, |i, sim| {
            let named = plans[i].forced()[0];
            holds[i] = sim.completed() && sim.delivered(named.recv, named.source);
        });
        (holds, REJOINS.with(|c| c.get()) - before)
    }

    /// The same verdict from one whole simulation per plan.
    fn whole_run_verdicts(trace: &MemTrace, plans: &[MatchPlan]) -> Vec<bool> {
        let holds = |plan: &MatchPlan| {
            let m = run_progress(trace, &MatchPolicy::Witness(plan.clone())).matching;
            let named = plan.forced()[0];
            let took = |p: &MatchPair| p.recv == named.recv && p.send.0 == named.source;
            m.completed && m.pairs.iter().any(took)
        };
        plans.iter().map(holds).collect()
    }

    /// Two forks of every plan: the batch ends with one taking the recorded
    /// simulation over in place, and both kinds must agree.
    fn twice(plan: MatchPlan) -> Vec<MatchPlan> {
        vec![plan.clone(), plan]
    }

    /// The plain swap stops early, and stops right: two wildcard receives
    /// of one tag trade sources and the rest of the program cannot tell.
    #[test]
    fn a_swap_of_one_tag_stops_at_its_rejoin_point() {
        let trace = MemTrace::from_ranks(vec![
            stream(0, vec![recv(1, 7, true), recv(2, 7, true), send(1, 9)]),
            stream(1, vec![send(0, 7), recv(0, 9, false)]),
            stream(2, vec![send(0, 7)]),
        ]);
        let plans = twice(MatchPlan::new().force((0, 1), 2).force((0, 2), 1));
        let (holds, rejoins) = batch_verdicts(&trace, &plans);
        assert_eq!(holds, [true, true]);
        assert_eq!(holds, whole_run_verdicts(&trace, &plans));
        assert_eq!(rejoins, 2);
    }

    /// The tag clause of the guard. Rank 0's two wildcard receives are
    /// `ANY_TAG`; swapped, the second takes rank 1's tag-2 message and the
    /// last receive starves, although both forced receives matched. With
    /// the clause deleted from `RejoinGuard::admits` the batch answers
    /// `true` here.
    #[test]
    fn wild_tags_refuse_the_stop() {
        let trace = MemTrace::from_ranks(vec![
            stream(
                0,
                vec![
                    recv(1, ANY_TAG, true),
                    recv(1, 1, false),
                    recv(2, ANY_TAG, true),
                    recv(1, 2, false),
                ],
            ),
            stream(1, vec![send(0, 1), send(0, 2), send(0, 1)]),
            stream(2, vec![send(0, 1)]),
        ]);
        assert!(
            run_progress(&trace, &MatchPolicy::Recorded)
                .matching
                .completed
        );
        let plans = twice(MatchPlan::new().force((0, 1), 2).force((0, 3), 1));
        let starved = run_progress(&trace, &MatchPolicy::Witness(plans[0].clone())).matching;
        assert!(!starved.completed);
        let forced = |p: &MatchPair| p.recv == (0, 1) || p.recv == (0, 3);
        assert_eq!(starved.pairs.iter().filter(|p| forced(p)).count(), 2);
        assert_eq!(batch_verdicts(&trace, &plans), (vec![false, false], 0));
    }

    /// The clause checked when both have matched. Between the two swapped
    /// receives rank 0 posts a *specific* receive from rank 1 and waits for
    /// it before letting rank 1 send again. Recorded, it takes rank 1's
    /// first message; swapped, the earlier wildcard takes that message, the
    /// specific receive waits for a second one that rank 1 only sends once
    /// the wait is over, and the run wedges — with both forced receives
    /// matched. With `at_recorded_state` answering `true` the batch does
    /// too.
    #[test]
    fn a_receive_waiting_between_the_two_refuses_the_stop() {
        let trace = MemTrace::from_ranks(vec![
            stream(
                0,
                vec![
                    irecv(2, 7, 1, true),
                    irecv(1, 7, 2, false),
                    irecv(1, 7, 3, true),
                    EventKind::Wait { req: 2 },
                    send(1, 9),
                    EventKind::WaitAll { reqs: vec![1, 3] },
                ],
            ),
            stream(1, vec![send(0, 7), recv(0, 9, false), send(0, 7)]),
            stream(2, vec![send(0, 7)]),
        ]);
        assert!(
            run_progress(&trace, &MatchPolicy::Recorded)
                .matching
                .completed
        );
        let plans = twice(MatchPlan::new().force((0, 1), 1).force((0, 3), 2));
        assert_eq!(whole_run_verdicts(&trace, &plans), [false, false]);
        assert_eq!(batch_verdicts(&trace, &plans), (vec![false, false], 0));
    }

    /// A plan naming a sequence number two events share swaps three
    /// receives, not two. Here both receives under the shared number take
    /// rank 2's messages and the specific receive behind them starves,
    /// whichever of the two a lookup by number finds: the guard refuses
    /// the plan (dropping its `ascending` test answers `true`), and the
    /// verdict is the whole run's.
    #[test]
    fn a_duplicated_sequence_number_refuses_the_stop() {
        let mut rank0 = stream(
            0,
            vec![
                recv(1, 7, true),
                recv(1, 7, true),
                recv(2, 7, true),
                recv(2, 7, false),
            ],
        );
        rank0[2].seq = 1;
        let trace = MemTrace::from_ranks(vec![
            rank0,
            stream(1, vec![send(0, 7), send(0, 7)]),
            stream(2, vec![send(0, 7), send(0, 7)]),
        ]);
        assert!(
            run_progress(&trace, &MatchPolicy::Recorded)
                .matching
                .completed
        );
        let plans = twice(MatchPlan::new().force((0, 1), 2).force((0, 3), 1));
        assert_eq!(whole_run_verdicts(&trace, &plans), [false, false]);
        assert_eq!(batch_verdicts(&trace, &plans), (vec![false, false], 0));
    }

    /// One request id initiated twice on any rank makes what a wait blocks
    /// on depend on the order of the sweep; no fork of such a trace stops.
    #[test]
    fn a_reused_request_id_refuses_every_stop() {
        let ranks = |second_req| {
            MemTrace::from_ranks(vec![
                stream(0, vec![recv(1, 7, true), recv(2, 7, true)]),
                stream(1, vec![send(0, 7), send(2, 3), send(2, 3)]),
                stream(
                    2,
                    vec![
                        send(0, 7),
                        irecv(1, 3, 1, false),
                        irecv(1, 3, second_req, false),
                        EventKind::WaitAll {
                            reqs: vec![1, second_req],
                        },
                    ],
                ),
            ])
        };
        let plans = twice(MatchPlan::new().force((0, 1), 2).force((0, 2), 1));
        assert_eq!(batch_verdicts(&ranks(2), &plans), (vec![true, true], 2));
        let reused = ranks(1);
        let (holds, rejoins) = batch_verdicts(&reused, &plans);
        assert_eq!(holds, whole_run_verdicts(&reused, &plans));
        assert_eq!(rejoins, 0);
    }

    /// One message of a random program: who sends what to whom and how,
    /// how the receive is posted, and when — relative to the message's
    /// turn in the program — each of its events happens.
    #[derive(Debug, Clone)]
    struct Message {
        src: Rank,
        hop: Rank,
        tag: Tag,
        send: u32,
        nonblocking: bool,
        any_tag: bool,
        sent_at: u64,
        posted_at: u64,
        waited_after: u64,
    }

    fn message_strategy() -> impl Strategy<Value = Message> {
        (
            (0u32..4, 1u32..4, 0u32..2, 0u32..4),
            (0u32..2, 0u32..12),
            (0u64..40, 0u64..40, 1u64..60),
        )
            .prop_map(|((src, hop, tag, send), (recv, any_tag), at)| Message {
                src,
                hop,
                tag,
                send,
                nonblocking: recv == 1,
                any_tag: any_tag == 0,
                sent_at: at.0,
                posted_at: at.1,
                waited_after: at.2,
            })
    }

    /// The program in which message `m`'s events happen around time
    /// `16 m`, each rank's stream being its events in time order: receives
    /// posted long before or after their message is sent, waits far behind
    /// their `irecv`, eager, synchronous and nonblocking sends, and a
    /// barrier at each of the times `barriers`.
    fn program_of(p: u32, messages: &[Message], barriers: &[u64]) -> MemTrace {
        let mut timed: Vec<(u64, Rank, EventKind)> = Vec::new();
        for &at in barriers {
            timed.extend((0..p).map(|rank| (at, rank, EventKind::Barrier { comm_size: p })));
        }
        for (m, msg) in messages.iter().enumerate() {
            let (at, req) = (16 * m as u64, m as ReqId + 1);
            let (src, dst) = (msg.src % p, (msg.src + 1 + msg.hop % (p - 1)) % p);
            let sent = match msg.send {
                0 => EventKind::Isend {
                    peer: dst,
                    tag: msg.tag,
                    bytes: 8,
                    req: req + 1_000,
                },
                1 => EventKind::Send {
                    peer: dst,
                    tag: msg.tag,
                    bytes: 8,
                    protocol: SendProtocol::Synchronous,
                },
                _ => send(dst, msg.tag),
            };
            timed.push((at + msg.sent_at, src, sent));
            let tag = if msg.any_tag { ANY_TAG } else { msg.tag };
            let posted_at = at + msg.posted_at;
            if msg.nonblocking {
                timed.push((posted_at, dst, irecv(src, tag, req, true)));
                timed.push((posted_at + msg.waited_after, dst, EventKind::Wait { req }));
            } else {
                timed.push((posted_at, dst, recv(src, tag, true)));
            }
        }
        timed.sort_by_key(|&(at, rank, _)| (at, rank));
        let of = |rank| {
            let mine = timed.iter().filter(|t| t.1 == rank);
            stream(rank, mine.map(|t| t.2.clone()).collect())
        };
        MemTrace::from_ranks((0..p).map(of).collect())
    }

    /// Both receives of one rank traded sources, for every two receives of
    /// different recorded sources — far more swaps than pass 4 asks about.
    fn all_swaps(trace: &MemTrace) -> Vec<MatchPlan> {
        let mut plans = Vec::new();
        for r in 0..trace.num_ranks() {
            let posted = |ev: &EventRecord| match ev.kind {
                EventKind::Recv { peer, .. } | EventKind::Irecv { peer, .. } => {
                    Some(((r as Rank, ev.seq), peer))
                }
                _ => None,
            };
            let recvs: Vec<(EventId, Rank)> = trace.rank(r).iter().filter_map(posted).collect();
            for &(a, from_a) in &recvs {
                for &(b, from_b) in recvs
                    .iter()
                    .filter(|&&(b, from_b)| b != a && from_b != from_a)
                {
                    plans.push(MatchPlan::new().force(a, from_b).force(b, from_a));
                }
            }
        }
        plans
    }

    /// DESIGN.md §18.8 on programs the simulator's workloads do not write:
    /// wherever a fork stops, it stops with the whole run's verdict.
    #[test]
    fn rejoin_equals_the_whole_run_on_arbitrary_swaps() {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 6000, ..ProptestConfig::default() })]

            fn cases(
                p in 3u32..5,
                messages in prop::collection::vec(message_strategy(), 2..14),
                barriers in prop::collection::vec(0u64..200, 0..2),
            ) {
                let trace = program_of(p, &messages, &barriers);
                if !run_progress(&trace, &MatchPolicy::Recorded).matching.completed {
                    continue;
                }
                let plans = all_swaps(&trace);
                let (holds, _) = batch_verdicts(&trace, &plans);
                let whole = whole_run_verdicts(&trace, &plans);
                for (i, plan) in plans.iter().enumerate() {
                    prop_assert_eq!(holds[i], whole[i], "[{}] of {:?}", plan, messages);
                }
                SWAPS.with(|c| c.set(c.get() + plans.len()));
                INFEASIBLE.with(|c| c.set(c.get() + whole.iter().filter(|&&h| !h).count()));
            }
        }
        thread_local! {
            static SWAPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
            static INFEASIBLE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        let before = (REJOINS.with(|c| c.get()), GUARD_REFUSALS.with(|c| c.get()));
        cases();
        let rejoins = REJOINS.with(|c| c.get()) - before.0;
        let refusals = GUARD_REFUSALS.with(|c| c.get()) - before.1;
        let (swaps, infeasible) = (SWAPS.with(|c| c.get()), INFEASIBLE.with(|c| c.get()));
        // Measured: 43 034 swaps, of which 10 798 stopped early, the guard
        // refused 27 414 and 28 338 do not hold.
        assert!(swaps > 10_000, "{swaps} swaps");
        assert!(rejoins > 1_000, "{rejoins} forks stopped early");
        assert!(refusals > 1_000, "{refusals} plans refused by the guard");
        assert!(infeasible > 1_000, "{infeasible} swaps that do not hold");
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
