//! The virtual-time coordinator: a strict sequencer over rank requests.
//!
//! # Protocol
//!
//! A rank hands in its calls in program order. A call that returns
//! something only the coordinator knows (a receive's envelope, a test's
//! verdict) asks for a reply and blocks the rank's thread; every other call
//! is posted and the rank runs on (see [`crate::rank`]). The coordinator
//! keeps each rank's posted calls in a FIFO behind its *current* call, and
//! every rank is, at any instant, in exactly one of four states:
//!
//! * **running** — it owes a blocking call: it is executing user code or
//!   posting calls, and the coordinator waits for its next blocking call
//!   (or `MPI_Finalize`) before making any global decision (conservative
//!   sequencing). Once that call has arrived, every call before it has too;
//! * **pending** — its current call has arrived but not been processed;
//! * **parked** — its current call was processed but cannot complete yet
//!   (blocking send/recv awaiting a match, wait awaiting a request,
//!   collective awaiting peers);
//! * **done** — it has finalized.
//!
//! When a current call finishes, a blocking one is answered and the rank
//! is running again; a posted one hands over to the next call in the FIFO,
//! which becomes pending at the finished call's end time.
//!
//! The coordinator has no thread: it is a state machine the rank threads
//! share under one lock. (a) `accept` takes each call as it is made. Once
//! no rank is running, the thread whose call made it so runs `drive`,
//! which (b) completes any parked waits whose requests resolved, in rank
//! order, then (c) processes the pending request with the smallest
//! `(enter time, rank)` key, until a reply puts a rank back to running. An answer goes to the rank's reply
//! slot, and the rank is recorded to be woken. Because no decision is made
//! while a rank is still running, and all randomness comes from per-rank
//! streams, the simulation is deterministic whichever thread drives; and
//! because a posted call becomes pending exactly when a reply would have
//! let the rank send it, the decisions — and the trace — are those of a
//! rank that waited for every reply.
//!
//! # Timing model
//!
//! With software overhead `o`, sampled one-way latency `λ`, size-dependent
//! transfer `T(d)` and ack latency `λ2` (all drawn at send issue):
//!
//! * message arrival  = `send_enter + o + λ + T(d)`
//! * receive end      = `max(arrival, recv_enter + o)`
//! * synchronous send = `max(send_enter + o, recv_end + λ2)` — the
//!   acknowledgement arm of the paper's Eq. 1
//! * eager send       = `send_enter + o + inject(d)`, independent of the
//!   receiver
//! * collectives      = the paper's Fig. 4 ⌈log₂ p⌉-round abstract model
//!   (see `Coordinator::complete_collective`).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

use crate::error::SimError;
use crate::message::{MsgInFlight, Party, PostedRecv, RecvInfo};
use crate::network::NetworkModel;
use crate::program::SendMode;
use crate::rank::{Incoming, Op, Reply};
use crate::tracer::Tracer;
use crate::Cycles;
use mpg_noise::{NoiseProcess, OsNoiseModel, StreamRng};
use mpg_trace::{
    EnvelopeMatcher, EventKind, EventRecord, Rank, ReqId, SendProtocol, Seq, ANY_SOURCE,
};

/// Fixed virtual cost of `MPI_Init` / `MPI_Finalize` bookkeeping.
pub(crate) const INIT_COST: Cycles = 1_000;
pub(crate) const FINALIZE_COST: Cycles = 1_000;
/// Fixed per-round combine cost added to collective rounds beyond the
/// byte-proportional part.
const COLLECTIVE_ROUND_BASE: Cycles = 100;

/// Aggregate counters reported in [`SimOutcome`](crate::SimOutcome).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total traced events.
    pub events: u64,
    /// Point-to-point messages transferred.
    pub messages: u64,
    /// Total payload bytes moved point-to-point.
    pub bytes: u64,
    /// Cycles stolen by OS noise across all ranks.
    pub noise_stolen: Cycles,
    /// Collective operations completed.
    pub collectives: u64,
    /// High-water mark of unmatched in-flight messages.
    pub max_in_flight: usize,
}

/// What a finished run reports: its counters, and each rank's finish time.
pub(crate) type Finished = (SimStats, Vec<Cycles>);

#[derive(Debug)]
enum ReqSlot {
    /// Isend issued, counterpart not yet matched.
    PendingSend,
    /// Irecv posted, counterpart not yet matched; holds what is needed to
    /// emit the trace record once the source is known.
    PendingRecv(IrecvStash),
    /// Completed at `time`.
    Complete {
        time: Cycles,
        info: Option<RecvInfo>,
    },
}

#[derive(Debug)]
struct IrecvStash {
    seq: Seq,
    t_start: Cycles,
    t_end: Cycles,
    req: ReqId,
    posted_any: bool,
}

#[derive(Debug)]
struct RankState {
    now: Cycles,
    /// Current request arrived, not yet processed.
    pending_op: Option<Op>,
    /// Current request processed but blocked.
    parked: Option<Op>,
    /// The current request waits for a reply.
    blocking: bool,
    /// What the rank sent behind its current request, oldest first.
    posted: VecDeque<Incoming>,
    done: bool,
    reqs: HashMap<ReqId, ReqSlot>,
    next_req: ReqId,
    seq: Seq,
    coll_epoch: u64,
}

impl RankState {
    fn new() -> Self {
        Self {
            now: 0,
            pending_op: None,
            parked: None,
            blocking: false,
            posted: VecDeque::new(),
            done: false,
            reqs: HashMap::new(),
            next_req: 1,
            seq: 0,
            coll_epoch: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum CollKind {
    Barrier,
    Bcast { root: Rank, bytes: u64 },
    Reduce { root: Rank, bytes: u64 },
    Allreduce { bytes: u64 },
    Scatter { root: Rank, bytes: u64 },
    Gather { root: Rank, bytes: u64 },
    Allgather { bytes: u64 },
    Alltoall { bytes: u64 },
}

#[derive(Debug)]
struct CollSlot {
    kind: CollKind,
    /// `(rank, enter_time)` in arrival order; sorted by rank at completion.
    entries: Vec<(Rank, Cycles)>,
}

/// The sequencer. Constructed by
/// [`Simulation::run`](crate::Simulation::run), driven by the rank threads.
pub struct Coordinator {
    p: u32,
    send_mode: SendMode,
    states: Vec<RankState>,
    engine: EnvelopeMatcher<MsgInFlight, PostedRecv>,
    net: NetworkModel,
    os_noise: OsNoiseModel,
    noise_rngs: Vec<StreamRng>,
    coll_rngs: Vec<StreamRng>,
    collectives: HashMap<u64, CollSlot>,
    tracer: Box<dyn Tracer>,
    /// Each rank's answer to its blocking call, until the rank takes it.
    replies: Vec<Option<Reply>>,
    /// Ranks answered since the last [`take_woken`](Self::take_woken).
    woken: Vec<Rank>,
    /// Ranks that owe a blocking request (or their finalize).
    running: u32,
    /// A rank's panic, reached in its FIFO: raised by the next step of
    /// [`drive`](Self::drive).
    panic: Option<SimError>,
    /// Pending requests keyed by (enter time, rank).
    queue: BinaryHeap<Reverse<(Cycles, Rank)>>,
    /// Parked ranks whose wait may have become satisfiable.
    worklist: BTreeSet<Rank>,
    stats: SimStats,
    finish_times: Vec<Cycles>,
}

impl Coordinator {
    const STREAM_NOISE: u64 = 0x4F53;
    const STREAM_COLL: u64 = 0x0043_4F4C;

    /// Builds a coordinator for `p` ranks, every one of them running.
    pub(crate) fn new(
        p: u32,
        seed: u64,
        send_mode: SendMode,
        net: NetworkModel,
        os_noise: OsNoiseModel,
        tracer: Box<dyn Tracer>,
    ) -> Self {
        Self {
            p,
            send_mode,
            states: (0..p).map(|_| RankState::new()).collect(),
            engine: EnvelopeMatcher::new(),
            net,
            os_noise,
            noise_rngs: (0..p)
                .map(|r| StreamRng::new(seed, Self::STREAM_NOISE ^ (u64::from(r) << 20)))
                .collect(),
            coll_rngs: (0..p)
                .map(|r| StreamRng::new(seed, Self::STREAM_COLL ^ (u64::from(r) << 20)))
                .collect(),
            collectives: HashMap::new(),
            tracer,
            replies: (0..p).map(|_| None).collect(),
            woken: Vec::new(),
            running: p,
            panic: None,
            queue: BinaryHeap::new(),
            worklist: BTreeSet::new(),
            stats: SimStats::default(),
            finish_times: vec![0; p as usize],
        }
    }

    /// Takes what a rank sent: a rank stops running once it sends a call
    /// it waits on, its finalize or its panic. The call becomes the rank's
    /// current one, or queues behind it.
    pub(crate) fn accept(&mut self, incoming: Incoming) {
        let (rank, owed) = match &incoming {
            Incoming::Op { rank, op, reply } => (*rank, *reply || matches!(op, Op::Finalize)),
            Incoming::Panicked { rank, .. } => (*rank, true),
        };
        if owed {
            self.running -= 1;
        }
        let st = &mut self.states[rank as usize];
        if st.pending_op.is_none() && st.parked.is_none() {
            debug_assert!(st.posted.is_empty());
            self.start(rank, incoming);
        } else {
            st.posted.push_back(incoming);
        }
    }

    /// Whether [`drive`](Self::drive) has a decision to take: no rank is
    /// running, or a panic has been reached.
    pub(crate) fn ready(&self) -> bool {
        self.running == 0 || self.panic.is_some()
    }

    /// Takes decisions while [`ready`](Self::ready). Returns `Ok(None)`
    /// once a reply has put a rank back to running, and the run's counters
    /// and finish times once every rank is done.
    pub(crate) fn drive(&mut self) -> Result<Option<Finished>, SimError> {
        loop {
            if let Some(err) = self.panic.take() {
                return Err(err);
            }
            if self.running > 0 {
                return Ok(None);
            }
            // (b) Complete satisfiable parked waits, lowest rank first.
            if let Some(r) = self.worklist.pop_first() {
                self.try_wait_progress(r)?;
                continue;
            }
            // (c) Process the earliest pending request.
            if let Some(Reverse((_, rank))) = self.queue.pop() {
                let op = self.states[rank as usize]
                    .pending_op
                    .take()
                    .expect("queue entry without pending op");
                self.handle_op(rank, op)?;
                continue;
            }
            // (d) Termination or deadlock.
            if self.states.iter().all(|s| s.done) {
                return Ok(Some((
                    std::mem::take(&mut self.stats),
                    std::mem::take(&mut self.finish_times),
                )));
            }
            let mut blocked: Vec<String> = self
                .states
                .iter()
                .enumerate()
                .filter_map(|(r, s)| {
                    s.parked
                        .as_ref()
                        .map(|op| format!("rank {r}: {}", op.describe()))
                })
                .collect();
            blocked.push(dump_unmatched(&self.engine));
            return Err(SimError::Deadlock { blocked });
        }
    }

    /// Takes `rank`'s answer to its blocking call, once it has one.
    pub(crate) fn take_reply(&mut self, rank: Rank) -> Option<Reply> {
        self.replies[rank as usize].take()
    }

    /// The ranks answered since the last call, in answer order.
    pub(crate) fn take_woken(&mut self) -> std::vec::Drain<'_, Rank> {
        self.woken.drain(..)
    }

    /// Hands back the tracer, for the caller to finish.
    pub(crate) fn into_tracer(self) -> Box<dyn Tracer> {
        self.tracer
    }

    fn emit(&mut self, rank: Rank, t_start: Cycles, t_end: Cycles, kind: EventKind) {
        let st = &mut self.states[rank as usize];
        let seq = st.seq;
        st.seq += 1;
        self.stats.events += 1;
        self.tracer.emit(EventRecord {
            rank,
            seq,
            t_start,
            t_end,
            kind,
        });
    }

    /// Emits a record with a pre-reserved sequence number (irecv patching).
    fn emit_at(&mut self, rank: Rank, seq: Seq, t_start: Cycles, t_end: Cycles, kind: EventKind) {
        self.stats.events += 1;
        self.tracer.emit(EventRecord {
            rank,
            seq,
            t_start,
            t_end,
            kind,
        });
    }

    fn reserve_seq(&mut self, rank: Rank) -> Seq {
        let st = &mut self.states[rank as usize];
        let seq = st.seq;
        st.seq += 1;
        seq
    }

    /// Makes what `rank` sent its current request: an op becomes pending
    /// at the rank's clock, a panic is raised by the next step of
    /// [`drive`](Self::drive).
    fn start(&mut self, rank: Rank, incoming: Incoming) {
        match incoming {
            Incoming::Op { op, reply, .. } => {
                let st = &mut self.states[rank as usize];
                st.pending_op = Some(op);
                st.blocking = reply;
                self.queue.push(Reverse((st.now, rank)));
            }
            Incoming::Panicked { rank, message } => {
                self.panic = Some(SimError::RankPanicked { rank, message });
            }
        }
    }

    /// Finishes `rank`'s current request at `now`. A blocking request is
    /// answered, and the rank is running again; a posted one hands over to the
    /// next request the rank sent, if it has arrived.
    fn reply(&mut self, rank: Rank, reply: Reply, now: Cycles) {
        let st = &mut self.states[rank as usize];
        st.now = now;
        if st.blocking {
            self.running += 1;
            self.replies[rank as usize] = Some(reply);
            self.woken.push(rank);
        } else if let Some(next) = st.posted.pop_front() {
            self.start(rank, next);
        }
    }

    fn invalid(&self, rank: Rank, detail: impl Into<String>) -> SimError {
        SimError::InvalidOperation {
            rank,
            detail: detail.into(),
        }
    }

    fn check_peer(&self, rank: Rank, peer: Rank, allow_any: bool) -> Result<(), SimError> {
        if peer == rank {
            return Err(self.invalid(rank, "self-message is not supported"));
        }
        if peer < self.p || (allow_any && peer == ANY_SOURCE) {
            Ok(())
        } else {
            Err(self.invalid(rank, format!("peer {peer} out of range (p={})", self.p)))
        }
    }

    fn handle_op(&mut self, rank: Rank, op: Op) -> Result<(), SimError> {
        let t = self.states[rank as usize].now;
        let o = self.net.sw_overhead();
        match op {
            Op::Init => {
                let end = t + INIT_COST;
                self.emit(rank, t, end, EventKind::Init);
                self.reply(rank, Reply::Done, end);
            }
            Op::Compute { work } => {
                let stolen = self
                    .os_noise
                    .stolen(t, work, &mut self.noise_rngs[rank as usize]);
                self.stats.noise_stolen += stolen;
                let end = t + work + stolen;
                self.emit(rank, t, end, EventKind::Compute { work });
                self.reply(rank, Reply::Done, end);
            }
            Op::Send {
                dst,
                tag,
                bytes,
                protocol,
            } => {
                self.check_peer(rank, dst, false)?;
                let timing = self.net.sample(rank, bytes);
                // §3.1.1: the standard send follows the platform protocol;
                // Ssend is always acknowledged; Bsend/Rsend complete locally
                // (Rsend additionally demands an already-posted receive).
                let eager = match protocol {
                    SendProtocol::Standard => self.send_mode.is_eager(bytes),
                    SendProtocol::Synchronous => false,
                    SendProtocol::Buffered | SendProtocol::Ready => true,
                };
                let msg = MsgInFlight {
                    src: rank,
                    dst,
                    tag,
                    bytes,
                    send_enter: t,
                    arrival: t + o + timing.latency + timing.transfer,
                    ack_latency: timing.ack_latency,
                    sender: Party::Blocking,
                    sender_done: eager,
                };
                self.stats.messages += 1;
                self.stats.bytes += bytes;
                if eager {
                    let end = t + o + self.net.inject_cost(bytes);
                    self.emit(
                        rank,
                        t,
                        end,
                        EventKind::Send {
                            peer: dst,
                            tag,
                            bytes,
                            protocol,
                        },
                    );
                    self.reply(rank, Reply::Done, end);
                } else {
                    self.states[rank as usize].parked = Some(Op::Send {
                        dst,
                        tag,
                        bytes,
                        protocol,
                    });
                }
                let matched = self.engine.post_send(msg);
                if protocol == SendProtocol::Ready && matched.is_none() {
                    return Err(self.invalid(
                        rank,
                        format!("ready send to {dst} without a posted receive"),
                    ));
                }
                if let Some((msg, pr)) = matched {
                    self.complete_match(msg, pr);
                }
                self.note_in_flight();
            }
            Op::Recv { src, tag } => {
                self.check_peer(rank, src, true)?;
                let order = self.engine.next_post_order();
                let pr = PostedRecv {
                    dst: rank,
                    src_pattern: src,
                    tag_pattern: tag,
                    posted_at: t,
                    receiver: Party::Blocking,
                    order,
                };
                self.states[rank as usize].parked = Some(Op::Recv { src, tag });
                if let Some((msg, pr)) = self.engine.post_recv(pr) {
                    self.complete_match(msg, pr);
                }
            }
            Op::Isend { dst, tag, bytes } => {
                self.check_peer(rank, dst, false)?;
                let st = &mut self.states[rank as usize];
                let req = st.next_req;
                st.next_req += 1;
                let timing = self.net.sample(rank, bytes);
                let eager = self.send_mode.is_eager(bytes);
                let msg = MsgInFlight {
                    src: rank,
                    dst,
                    tag,
                    bytes,
                    send_enter: t,
                    arrival: t + o + timing.latency + timing.transfer,
                    ack_latency: timing.ack_latency,
                    sender: Party::Request(req),
                    sender_done: eager,
                };
                self.stats.messages += 1;
                self.stats.bytes += bytes;
                let slot = if eager {
                    ReqSlot::Complete {
                        time: t + o + self.net.inject_cost(bytes),
                        info: None,
                    }
                } else {
                    ReqSlot::PendingSend
                };
                self.states[rank as usize].reqs.insert(req, slot);
                self.emit(
                    rank,
                    t,
                    t + o,
                    EventKind::Isend {
                        peer: dst,
                        tag,
                        bytes,
                        req,
                    },
                );
                if let Some((msg, pr)) = self.engine.post_send(msg) {
                    self.complete_match(msg, pr);
                }
                self.note_in_flight();
                self.reply(rank, Reply::Done, t + o);
            }
            Op::Irecv { src, tag } => {
                self.check_peer(rank, src, true)?;
                let st = &mut self.states[rank as usize];
                let req = st.next_req;
                st.next_req += 1;
                let seq = self.reserve_seq(rank);
                let stash = IrecvStash {
                    seq,
                    t_start: t,
                    t_end: t + o,
                    req,
                    posted_any: src == ANY_SOURCE,
                };
                self.states[rank as usize]
                    .reqs
                    .insert(req, ReqSlot::PendingRecv(stash));
                let order = self.engine.next_post_order();
                let pr = PostedRecv {
                    dst: rank,
                    src_pattern: src,
                    tag_pattern: tag,
                    posted_at: t,
                    receiver: Party::Request(req),
                    order,
                };
                if let Some((msg, pr)) = self.engine.post_recv(pr) {
                    self.complete_match(msg, pr);
                }
                self.reply(rank, Reply::Done, t + o);
            }
            Op::Wait { .. } | Op::WaitAll { .. } | Op::WaitSome { .. } => {
                self.states[rank as usize].parked = Some(op);
                self.try_wait_progress(rank)?;
            }
            Op::Barrier => self.enter_collective(rank, t, CollKind::Barrier, Op::Barrier)?,
            Op::Bcast { root, bytes } => {
                self.check_root(rank, root)?;
                self.enter_collective(
                    rank,
                    t,
                    CollKind::Bcast { root, bytes },
                    Op::Bcast { root, bytes },
                )?;
            }
            Op::Reduce { root, bytes } => {
                self.check_root(rank, root)?;
                self.enter_collective(
                    rank,
                    t,
                    CollKind::Reduce { root, bytes },
                    Op::Reduce { root, bytes },
                )?;
            }
            Op::Allreduce { bytes } => {
                self.enter_collective(
                    rank,
                    t,
                    CollKind::Allreduce { bytes },
                    Op::Allreduce { bytes },
                )?;
            }
            Op::Scatter { root, bytes } => {
                self.check_root(rank, root)?;
                self.enter_collective(
                    rank,
                    t,
                    CollKind::Scatter { root, bytes },
                    Op::Scatter { root, bytes },
                )?;
            }
            Op::Gather { root, bytes } => {
                self.check_root(rank, root)?;
                self.enter_collective(
                    rank,
                    t,
                    CollKind::Gather { root, bytes },
                    Op::Gather { root, bytes },
                )?;
            }
            Op::Allgather { bytes } => {
                self.enter_collective(
                    rank,
                    t,
                    CollKind::Allgather { bytes },
                    Op::Allgather { bytes },
                )?;
            }
            Op::Alltoall { bytes } => {
                self.enter_collective(
                    rank,
                    t,
                    CollKind::Alltoall { bytes },
                    Op::Alltoall { bytes },
                )?;
            }
            Op::Test { req } => {
                let end = t + o;
                let slot_ready = match self.states[rank as usize].reqs.get(&req) {
                    None => return Err(self.invalid(rank, format!("test on unknown req {req}"))),
                    Some(ReqSlot::Complete { time, info }) if *time <= end => Some((*time, *info)),
                    Some(_) => None,
                };
                let (completed, info) = match slot_ready {
                    Some((_, info)) => {
                        self.states[rank as usize].reqs.remove(&req);
                        (true, info)
                    }
                    // Conservative snapshot: an unmatched (or not-yet-done)
                    // request reports pending, as a real MPI_Test may.
                    None => (false, None),
                };
                self.emit(rank, t, end, EventKind::Test { req, completed });
                self.reply(rank, Reply::TestDone { completed, info }, end);
            }
            Op::Finalize => {
                let end = t + FINALIZE_COST;
                self.emit(rank, t, end, EventKind::Finalize);
                self.states[rank as usize].now = end;
                self.states[rank as usize].done = true;
                self.finish_times[rank as usize] = end;
                // Always posted: the thread exits after sending it, owing
                // no further request.
            }
        }
        Ok(())
    }

    fn check_root(&self, rank: Rank, root: Rank) -> Result<(), SimError> {
        if root < self.p {
            Ok(())
        } else {
            Err(self.invalid(rank, format!("root {root} out of range (p={})", self.p)))
        }
    }

    fn note_in_flight(&mut self) {
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.engine.in_flight_count());
    }

    /// Resolves a matched (message, posted-receive) pair: computes both end
    /// times, emits trace records, and unblocks or completes each party.
    fn complete_match(&mut self, msg: MsgInFlight, pr: PostedRecv) {
        let o = self.net.sw_overhead();
        let recv_end = msg.arrival.max(pr.posted_at + o);
        let info = RecvInfo {
            src: msg.src,
            tag: msg.tag,
            bytes: msg.bytes,
        };
        match pr.receiver {
            Party::Blocking => {
                self.emit(
                    pr.dst,
                    pr.posted_at,
                    recv_end,
                    EventKind::Recv {
                        peer: msg.src,
                        tag: msg.tag,
                        bytes: msg.bytes,
                        posted_any: pr.posted_any_source(),
                    },
                );
                self.states[pr.dst as usize].parked = None;
                self.reply(pr.dst, Reply::Recv { info }, recv_end);
            }
            Party::Request(req) => {
                let slot = self.states[pr.dst as usize]
                    .reqs
                    .get_mut(&req)
                    .expect("matched request missing from table");
                let ReqSlot::PendingRecv(stash) = std::mem::replace(
                    slot,
                    ReqSlot::Complete {
                        time: recv_end,
                        info: Some(info),
                    },
                ) else {
                    unreachable!("irecv request in non-pending state at match");
                };
                self.emit_at(
                    pr.dst,
                    stash.seq,
                    stash.t_start,
                    stash.t_end,
                    EventKind::Irecv {
                        peer: msg.src,
                        tag: msg.tag,
                        bytes: msg.bytes,
                        req: stash.req,
                        posted_any: stash.posted_any,
                    },
                );
                self.worklist.insert(pr.dst);
            }
        }
        if !msg.sender_done {
            let send_end = (msg.send_enter + o).max(recv_end + msg.ack_latency);
            match msg.sender {
                Party::Blocking => {
                    let protocol = match self.states[msg.src as usize].parked {
                        Some(Op::Send { protocol, .. }) => protocol,
                        _ => SendProtocol::Standard,
                    };
                    self.emit(
                        msg.src,
                        msg.send_enter,
                        send_end,
                        EventKind::Send {
                            peer: msg.dst,
                            tag: msg.tag,
                            bytes: msg.bytes,
                            protocol,
                        },
                    );
                    self.states[msg.src as usize].parked = None;
                    self.reply(msg.src, Reply::Done, send_end);
                }
                Party::Request(req) => {
                    let slot = self.states[msg.src as usize]
                        .reqs
                        .get_mut(&req)
                        .expect("matched send request missing from table");
                    *slot = ReqSlot::Complete {
                        time: send_end,
                        info: None,
                    };
                    self.worklist.insert(msg.src);
                }
            }
        }
    }

    /// Attempts to complete a parked wait-family operation on `rank`.
    fn try_wait_progress(&mut self, rank: Rank) -> Result<(), SimError> {
        let Some(op) = self.states[rank as usize].parked.clone() else {
            return Ok(());
        };
        let t = self.states[rank as usize].now;
        let o = self.net.sw_overhead();
        match op {
            Op::Wait { req } => {
                let time_info = match self.states[rank as usize].reqs.get(&req) {
                    None => return Err(self.invalid(rank, format!("wait on unknown req {req}"))),
                    Some(ReqSlot::Complete { time, info }) => Some((*time, *info)),
                    Some(_) => None,
                };
                if let Some((time, info)) = time_info {
                    self.states[rank as usize].reqs.remove(&req);
                    let end = (t + o).max(time);
                    self.emit(rank, t, end, EventKind::Wait { req });
                    self.states[rank as usize].parked = None;
                    self.reply(rank, Reply::WaitDone { info }, end);
                }
            }
            Op::WaitAll { ref reqs } => {
                let mut latest = t + o;
                for req in reqs {
                    match self.states[rank as usize].reqs.get(req) {
                        None => {
                            return Err(self.invalid(rank, format!("waitall on unknown req {req}")))
                        }
                        Some(ReqSlot::Complete { time, .. }) => latest = latest.max(*time),
                        Some(_) => return Ok(()), // still pending; stay parked
                    }
                }
                for req in reqs {
                    self.states[rank as usize].reqs.remove(req);
                }
                self.emit(rank, t, latest, EventKind::WaitAll { reqs: reqs.clone() });
                self.states[rank as usize].parked = None;
                self.reply(rank, Reply::WaitDone { info: None }, latest);
            }
            Op::WaitSome { ref reqs } => {
                if reqs.is_empty() {
                    let end = t + o;
                    self.emit(
                        rank,
                        t,
                        end,
                        EventKind::WaitSome {
                            reqs: Vec::new(),
                            completed: Vec::new(),
                        },
                    );
                    self.states[rank as usize].parked = None;
                    self.reply(
                        rank,
                        Reply::SomeDone {
                            completed: Vec::new(),
                        },
                        end,
                    );
                    return Ok(());
                }
                let mut min_done: Option<Cycles> = None;
                for req in reqs {
                    match self.states[rank as usize].reqs.get(req) {
                        None => {
                            return Err(self.invalid(rank, format!("waitsome on unknown req {req}")))
                        }
                        Some(ReqSlot::Complete { time, .. }) => {
                            min_done = Some(min_done.map_or(*time, |m: Cycles| m.min(*time)));
                        }
                        Some(_) => {}
                    }
                }
                let Some(min_done) = min_done else {
                    return Ok(()); // nothing complete yet; stay parked
                };
                let end = (t + o).max(min_done);
                let completed: Vec<ReqId> = reqs
                    .iter()
                    .filter(|req| {
                        matches!(
                            self.states[rank as usize].reqs.get(req),
                            Some(ReqSlot::Complete { time, .. }) if *time <= end
                        )
                    })
                    .copied()
                    .collect();
                for req in &completed {
                    self.states[rank as usize].reqs.remove(req);
                }
                self.emit(
                    rank,
                    t,
                    end,
                    EventKind::WaitSome {
                        reqs: reqs.clone(),
                        completed: completed.clone(),
                    },
                );
                self.states[rank as usize].parked = None;
                self.reply(rank, Reply::SomeDone { completed }, end);
            }
            _ => {}
        }
        Ok(())
    }

    fn enter_collective(
        &mut self,
        rank: Rank,
        t: Cycles,
        kind: CollKind,
        op: Op,
    ) -> Result<(), SimError> {
        let st = &mut self.states[rank as usize];
        let epoch = st.coll_epoch;
        st.coll_epoch += 1;
        st.parked = Some(op);
        let slot = self.collectives.entry(epoch).or_insert_with(|| CollSlot {
            kind: kind.clone(),
            entries: Vec::new(),
        });
        if slot.kind != kind {
            return Err(SimError::CollectiveMismatch {
                epoch,
                detail: format!(
                    "rank {rank} called {kind:?} but epoch began with {:?}",
                    slot.kind
                ),
            });
        }
        slot.entries.push((rank, t));
        if slot.entries.len() == self.p as usize {
            let slot = self.collectives.remove(&epoch).expect("slot just filled");
            self.complete_collective(slot);
        }
        Ok(())
    }

    /// Applies the paper's abstract collective model (Fig. 4).
    ///
    /// Each rank samples `⌈log₂ p⌉` rounds of (per-round combine work +
    /// OS noise + latency + transfer) to form its `lδ_i`; the blocking node
    /// fires at `max_i(enter_i + o + lδ_i)` and everyone leaves together —
    /// "forcing the slowest node … to dominate the performance of the entire
    /// collective". `Reduce` samples a single round (the paper's simplified
    /// variant); `Bcast` charges the rounds to the root only.
    fn complete_collective(&mut self, mut slot: CollSlot) {
        slot.entries.sort_unstable_by_key(|&(r, _)| r);
        let o = self.net.sw_overhead();
        let p = self.p;
        let rounds = (p as f64).log2().ceil() as u32;
        self.stats.collectives += 1;

        let (bytes, kind_rounds_per_rank): (u64, u32) = match slot.kind {
            CollKind::Barrier => (0, rounds),
            CollKind::Allreduce { bytes } => (bytes, rounds),
            CollKind::Allgather { bytes } => (bytes, rounds),
            CollKind::Alltoall { bytes } => (bytes, p.saturating_sub(1)),
            CollKind::Reduce { bytes, .. } | CollKind::Gather { bytes, .. } => (bytes, 1),
            // Root-only rounds for the distribution collectives.
            CollKind::Bcast { bytes, .. } | CollKind::Scatter { bytes, .. } => (bytes, 0),
        };

        let latency_dist = self.net.signature().latency.clone();
        let bandwidth = self.net.signature().bandwidth.clone();
        let mut hub: Cycles = 0;
        let mut enters = Vec::with_capacity(slot.entries.len());
        for &(r, enter) in &slot.entries {
            let charged_rounds = match slot.kind {
                CollKind::Bcast { root, .. } | CollKind::Scatter { root, .. } if r == root => {
                    rounds
                }
                CollKind::Bcast { .. } | CollKind::Scatter { .. } => 0,
                _ => kind_rounds_per_rank,
            };
            let mut l_delta: Cycles = 0;
            for k in 0..charged_rounds {
                use mpg_noise::SampleDist;
                let work = COLLECTIVE_ROUND_BASE + bytes;
                let rng = &mut self.coll_rngs[r as usize];
                let latency = latency_dist.sample(rng);
                let transfer = bandwidth.transfer_cycles(bytes, rng);
                let stolen = self.os_noise.stolen(
                    enter + u64::from(k) * work,
                    work,
                    &mut self.noise_rngs[r as usize],
                );
                self.stats.noise_stolen += stolen;
                l_delta += work + stolen + latency + transfer;
            }
            hub = hub.max(enter + o + l_delta);
            enters.push((r, enter));
        }

        let kind_event = |_r: Rank| match slot.kind {
            CollKind::Barrier => EventKind::Barrier { comm_size: p },
            CollKind::Bcast { root, bytes } => EventKind::Bcast {
                root,
                bytes,
                comm_size: p,
            },
            CollKind::Reduce { root, bytes } => EventKind::Reduce {
                root,
                bytes,
                comm_size: p,
            },
            CollKind::Allreduce { bytes } => EventKind::Allreduce {
                bytes,
                comm_size: p,
            },
            CollKind::Scatter { root, bytes } => EventKind::Scatter {
                root,
                bytes,
                comm_size: p,
            },
            CollKind::Gather { root, bytes } => EventKind::Gather {
                root,
                bytes,
                comm_size: p,
            },
            CollKind::Allgather { bytes } => EventKind::Allgather {
                bytes,
                comm_size: p,
            },
            CollKind::Alltoall { bytes } => EventKind::Alltoall {
                bytes,
                comm_size: p,
            },
        };
        for (r, enter) in enters {
            let end = hub.max(enter + o);
            self.emit(r, enter, end, kind_event(r));
            self.states[r as usize].parked = None;
            self.reply(r, Reply::Done, end);
        }
    }
}

/// Human-readable dump of unmatched matching state (deadlock diagnostics).
fn dump_unmatched(engine: &EnvelopeMatcher<MsgInFlight, PostedRecv>) -> String {
    let mut counts: HashMap<(Rank, Rank), usize> = HashMap::new();
    for m in engine.iter_in_flight() {
        *counts.entry((m.src, m.dst)).or_default() += 1;
    }
    let mut parts = Vec::new();
    for ((s, d), n) in counts {
        parts.push(format!("{n} unmatched msg(s) {s}->{d}"));
    }
    for pr in engine.iter_posted() {
        parts.push(format!(
            "recv posted on {} for src={} tag={}",
            pr.dst, pr.src_pattern, pr.tag_pattern
        ));
    }
    parts.sort();
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_mentions_leftovers() {
        let mut e = EnvelopeMatcher::new();
        e.post_send(MsgInFlight {
            src: 0,
            dst: 2,
            tag: 5,
            bytes: 8,
            send_enter: 0,
            arrival: 100,
            ack_latency: 0,
            sender: Party::Blocking,
            sender_done: false,
        });
        e.post_recv(PostedRecv {
            dst: 1,
            src_pattern: 0,
            tag_pattern: 5,
            posted_at: 0,
            receiver: Party::Blocking,
            order: 0,
        });
        let d = dump_unmatched(&e);
        assert!(d.contains("0->2"), "{d}");
        assert!(d.contains("recv posted on 1"), "{d}");
    }
}
