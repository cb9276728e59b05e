//! The rank-side API: what a simulated MPI program calls.
//!
//! Every method on [`RankCtx`] hands its call to the coordinator under the
//! lock all ranks share, and each call is one event for the coordinator to
//! sequence. Only a call that returns something the rank cannot know —
//! `recv`, `wait` on a live receive request, `waitsome` and `test` —
//! blocks the rank's thread until the coordinator answers. Every other
//! call is *posted*: the rank already knows its result (nothing, or the
//! request id the coordinator will assign, counted here), so it carries on
//! without a reply, at most `RUN_AHEAD - 1` calls in a row. From the
//! program's perspective these behave exactly like the corresponding
//! MPI-1 calls.
//!
//! There is no coordinator thread. The rank whose call leaves no rank
//! running drives the coordinator on its own stack, then unparks the other
//! ranks it answered; if it answered itself, it returns without a thread
//! switch. A blocked rank parks until its reply slot is filled, so a
//! blocking call costs at most one switch. A drive that fails marks the
//! run aborted and unparks every rank, and each one unwinds.

use std::any::Any;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};

use crate::collective;
use crate::coordinator::{Coordinator, Finished};
use crate::error::SimError;
use crate::message::RecvInfo;
use crate::program::CollectiveMode;
use crate::Cycles;
use mpg_trace::{Rank, ReqId, SendProtocol, Tag};

/// Sentinel panic payload used to unwind rank threads when the simulation
/// aborts; the thread wrapper recognizes and swallows it.
pub(crate) const ABORT: &str = "__mpg_sim_abort__";

/// A rank posts at most `RUN_AHEAD - 1` calls in a row; the next one waits
/// for its reply. This lets the coordinator see a rank that never blocks
/// on its own (a compute loop behind a send that never matches still
/// reports a deadlock instead of hanging), and bounds the calls queued
/// for each rank.
const RUN_AHEAD: u32 = 64;

/// Unwinds the rank thread after the simulation has failed. The panic
/// hook does not run, so nothing is printed.
fn abort() -> ! {
    std::panic::resume_unwind(Box::new(ABORT))
}

/// A nonblocking-request handle (MPI's `MPI_Request`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req(pub(crate) ReqId);

/// Operations a rank can request from the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    Init,
    Compute {
        work: Cycles,
    },
    Send {
        dst: Rank,
        tag: Tag,
        bytes: u64,
        protocol: SendProtocol,
    },
    Recv {
        src: Rank,
        tag: Tag,
    },
    Isend {
        dst: Rank,
        tag: Tag,
        bytes: u64,
    },
    Irecv {
        src: Rank,
        tag: Tag,
    },
    Wait {
        req: ReqId,
    },
    WaitAll {
        reqs: Vec<ReqId>,
    },
    WaitSome {
        reqs: Vec<ReqId>,
    },
    Test {
        req: ReqId,
    },
    Barrier,
    Bcast {
        root: Rank,
        bytes: u64,
    },
    Reduce {
        root: Rank,
        bytes: u64,
    },
    Allreduce {
        bytes: u64,
    },
    Scatter {
        root: Rank,
        bytes: u64,
    },
    Gather {
        root: Rank,
        bytes: u64,
    },
    Allgather {
        bytes: u64,
    },
    Alltoall {
        bytes: u64,
    },
    Finalize,
}

impl Op {
    /// Short description for deadlock diagnostics.
    pub(crate) fn describe(&self) -> String {
        match self {
            Op::Send {
                dst, tag, protocol, ..
            } => {
                format!("send(dst={dst}, tag={tag}, {protocol:?})")
            }
            Op::Recv { src, tag } => format!("recv(src={src}, tag={tag})"),
            Op::Wait { req } => format!("wait(req={req})"),
            Op::WaitAll { reqs } => format!("waitall({} reqs)", reqs.len()),
            Op::WaitSome { reqs } => format!("waitsome({} reqs)", reqs.len()),
            Op::Barrier => "barrier".into(),
            Op::Bcast { root, .. } => format!("bcast(root={root})"),
            Op::Reduce { root, .. } => format!("reduce(root={root})"),
            Op::Allreduce { .. } => "allreduce".into(),
            Op::Scatter { root, .. } => format!("scatter(root={root})"),
            Op::Gather { root, .. } => format!("gather(root={root})"),
            Op::Allgather { .. } => "allgather".into(),
            Op::Alltoall { .. } => "alltoall".into(),
            other => format!("{other:?}"),
        }
    }
}

/// Coordinator replies, given only to a call made with `reply: true`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Operation finished.
    Done,
    /// A blocking receive finished.
    Recv { info: RecvInfo },
    /// A wait finished; `info` is present when it completed a receive.
    WaitDone { info: Option<RecvInfo> },
    /// A waitsome finished with the given completed subset.
    SomeDone { completed: Vec<ReqId> },
    /// A test probe returned: `completed` tells whether the request
    /// finished; `info` carries the envelope for completed receives.
    TestDone {
        completed: bool,
        info: Option<RecvInfo>,
    },
}

/// What a rank thread hands the coordinator.
#[derive(Debug)]
pub(crate) enum Incoming {
    /// The rank requests an operation; with `reply` it blocks until the
    /// coordinator answers, without it the call is posted.
    Op { rank: Rank, op: Op, reply: bool },
    /// The rank's thread terminated abnormally (panic in user code).
    Panicked { rank: Rank, message: String },
}

/// What the rank threads share, behind one lock: the coordinator, and
/// what a rank needs to hand the CPU to another.
pub(crate) struct Shared {
    pub(crate) coordinator: Coordinator,
    /// Each rank's thread, registered before its first call.
    threads: Vec<Option<Thread>>,
    /// The simulation has failed: every call, and every rank that wakes,
    /// unwinds with [`ABORT`].
    pub(crate) aborted: bool,
    /// How the simulation ended, once it has.
    pub(crate) end: Option<Result<Finished, SimError>>,
    /// A panic inside the coordinator itself, for
    /// [`Simulation::run`](crate::Simulation::run) to raise again.
    pub(crate) bug: Option<Box<dyn Any + Send>>,
}

/// The lock every rank thread takes for each call.
pub(crate) type SharedLock = Arc<Mutex<Shared>>;

/// Locks `shared`.
pub(crate) fn lock(shared: &SharedLock) -> MutexGuard<'_, Shared> {
    shared.lock().expect(UNPOISONED)
}

/// No thread panics while holding the lock: [`Shared::hand_in`] catches
/// the coordinator's panics.
pub(crate) const UNPOISONED: &str = "no thread panics holding the simulation lock";

/// Wakes the ranks a drive answered or aborted.
pub(crate) fn unpark(threads: Vec<Thread>) {
    for t in threads {
        t.unpark();
    }
}

impl Shared {
    pub(crate) fn new(coordinator: Coordinator, p: u32) -> SharedLock {
        Arc::new(Mutex::new(Self {
            coordinator,
            threads: vec![None; p as usize],
            aborted: false,
            end: None,
            bug: None,
        }))
    }

    /// Records the calling thread as `rank`'s, so that a drive on another
    /// thread can wake it.
    pub(crate) fn register(&mut self, rank: Rank) {
        self.threads[rank as usize] = Some(thread::current());
    }

    /// Hands `incoming` from `me` to the coordinator and, when that leaves
    /// no rank running, drives it on this thread. Returns the threads to
    /// unpark once the lock is released: the other ranks the drive
    /// answered, or every rank when the simulation failed.
    fn hand_in(&mut self, incoming: Incoming, me: Rank) -> Vec<Thread> {
        let coordinator = &mut self.coordinator;
        let driven = catch_unwind(AssertUnwindSafe(|| {
            coordinator.accept(incoming);
            coordinator.ready().then(|| coordinator.drive())
        }));
        match driven {
            Ok(None) => Vec::new(),
            Ok(Some(Ok(done))) => {
                if let Some(done) = done {
                    self.end = Some(Ok(done));
                }
                let threads = &self.threads;
                self.coordinator
                    .take_woken()
                    .filter(|&r| r != me)
                    .filter_map(|r| threads[r as usize].clone())
                    .collect()
            }
            Ok(Some(Err(err))) => {
                self.end = Some(Err(err));
                self.abort_all()
            }
            Err(payload) => {
                self.bug = Some(payload);
                self.abort_all()
            }
        }
    }

    /// Fails the simulation: every rank unwinds at its next call or
    /// wake-up. Returns every registered thread, to unpark.
    pub(crate) fn abort_all(&mut self) -> Vec<Thread> {
        self.aborted = true;
        self.threads.iter().flatten().cloned().collect()
    }
}

/// Per-rank MPI-like handle passed to rank programs.
pub struct RankCtx {
    rank: Rank,
    size: u32,
    shared: SharedLock,
    pub(crate) collective_mode: CollectiveMode,
    pub(crate) finalized: bool,
    /// The id the coordinator gives this rank's next `isend` or `irecv`:
    /// its per-rank counter, which also starts at 1.
    next_req: ReqId,
    /// Receive requests no wait, waitall, waitsome or test has completed
    /// yet: a `wait` on one of these returns an envelope, so it blocks.
    live_recvs: HashSet<ReqId>,
    /// Calls posted since the last one that waited for a reply.
    posted: u32,
}

impl RankCtx {
    pub(crate) fn new(
        rank: Rank,
        size: u32,
        shared: SharedLock,
        collective_mode: CollectiveMode,
    ) -> Self {
        Self {
            rank,
            size,
            shared,
            collective_mode,
            finalized: false,
            next_req: 1,
            live_recvs: HashSet::new(),
            posted: 0,
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the job (MPI's `MPI_Comm_size` on `COMM_WORLD`).
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Hands `op` to the coordinator; with `reply`, waits for the answer.
    /// Unwinds with [`ABORT`] once the simulation has failed.
    fn submit(&self, op: Op, reply: bool) -> Option<Reply> {
        assert!(!self.finalized, "MPI call after finalize");
        let rank = self.rank;
        let mut sh = lock(&self.shared);
        if sh.aborted {
            drop(sh);
            abort();
        }
        let wake = sh.hand_in(Incoming::Op { rank, op, reply }, rank);
        let aborted = sh.aborted;
        // Filled if this drive answered this rank; a posted call has none.
        let mut answer = sh.coordinator.take_reply(rank);
        drop(sh);
        unpark(wake);
        if aborted {
            abort();
        }
        if !reply {
            return None;
        }
        // Another rank's drive fills the slot and only then unparks this
        // thread, so a wake-up that precedes `park` is not lost.
        while answer.is_none() {
            thread::park();
            let mut sh = lock(&self.shared);
            if sh.aborted {
                drop(sh);
                abort();
            }
            answer = sh.coordinator.take_reply(rank);
        }
        answer
    }

    /// Hands in this rank's panic, unless the simulation has already
    /// failed. Runs outside the rank's `catch_unwind`, so it never unwinds.
    pub(crate) fn panicked(&self, message: String) {
        let rank = self.rank;
        let mut sh = lock(&self.shared);
        if sh.aborted {
            return;
        }
        let wake = sh.hand_in(Incoming::Panicked { rank, message }, rank);
        drop(sh);
        unpark(wake);
    }

    /// Sends `op` and blocks until the coordinator replies.
    fn call(&mut self, op: Op) -> Reply {
        self.posted = 0;
        self.submit(op, true).expect("a blocking call is answered")
    }

    /// Sends `op` without waiting for it, unless it would be the
    /// `RUN_AHEAD`-th posted call in a row.
    fn post(&mut self, op: Op) {
        if self.posted + 1 == RUN_AHEAD {
            self.call(op);
        } else {
            self.submit(op, false);
            self.posted += 1;
        }
    }

    /// The request id the coordinator assigns to the `isend` or `irecv`
    /// just posted.
    fn take_req(&mut self) -> ReqId {
        let req = self.next_req;
        self.next_req += 1;
        req
    }

    pub(crate) fn init(&mut self) {
        self.post(Op::Init);
    }

    /// Always posted: the rank makes no call after it.
    pub(crate) fn finalize(&mut self) {
        self.submit(Op::Finalize, false);
        self.finalized = true;
    }

    /// Performs `work` cycles of local computation (the platform may stretch
    /// the interval with OS noise).
    pub fn compute(&mut self, work: Cycles) {
        self.post(Op::Compute { work });
    }

    /// Blocking standard send (`MPI_Send`): completion follows the
    /// platform's configured protocol (synchronous by default, matching the
    /// paper's Eq. 1).
    pub fn send(&mut self, dst: Rank, tag: Tag, bytes: u64) {
        self.post(Op::Send {
            dst,
            tag,
            bytes,
            protocol: SendProtocol::Standard,
        });
    }

    /// Synchronous send (`MPI_Ssend`, §3.1.1): always completes only after
    /// the matching receive, regardless of the platform's eager threshold.
    pub fn ssend(&mut self, dst: Rank, tag: Tag, bytes: u64) {
        self.post(Op::Send {
            dst,
            tag,
            bytes,
            protocol: SendProtocol::Synchronous,
        });
    }

    /// Buffered send (`MPI_Bsend`, §3.1.1): always completes after the local
    /// buffer copy, independent of the receiver.
    pub fn bsend(&mut self, dst: Rank, tag: Tag, bytes: u64) {
        self.post(Op::Send {
            dst,
            tag,
            bytes,
            protocol: SendProtocol::Buffered,
        });
    }

    /// Ready send (`MPI_Rsend`, §3.1.1): requires the matching receive to be
    /// already posted; calling it otherwise is an erroneous program and
    /// aborts the simulation with an error.
    pub fn rsend(&mut self, dst: Rank, tag: Tag, bytes: u64) {
        self.post(Op::Send {
            dst,
            tag,
            bytes,
            protocol: SendProtocol::Ready,
        });
    }

    /// Blocking receive from `src` (or [`mpg_trace::ANY_SOURCE`]) with `tag`
    /// (or [`mpg_trace::ANY_TAG`]). Returns the matched envelope.
    pub fn recv(&mut self, src: Rank, tag: Tag) -> RecvInfo {
        match self.call(Op::Recv { src, tag }) {
            Reply::Recv { info, .. } => info,
            other => unreachable!("coordinator protocol violation: {other:?}"),
        }
    }

    /// Nonblocking send; complete with [`wait`](Self::wait) or friends.
    pub fn isend(&mut self, dst: Rank, tag: Tag, bytes: u64) -> Req {
        self.post(Op::Isend { dst, tag, bytes });
        Req(self.take_req())
    }

    /// Nonblocking receive.
    pub fn irecv(&mut self, src: Rank, tag: Tag) -> Req {
        self.post(Op::Irecv { src, tag });
        let req = self.take_req();
        self.live_recvs.insert(req);
        Req(req)
    }

    /// Blocks until `req` completes; returns the envelope when it was a
    /// receive.
    pub fn wait(&mut self, req: Req) -> Option<RecvInfo> {
        let op = Op::Wait { req: req.0 };
        if !self.live_recvs.remove(&req.0) {
            // A send (or an unknown request, which the coordinator
            // reports): the answer is `None` whenever it completes.
            self.post(op);
            return None;
        }
        match self.call(op) {
            Reply::WaitDone { info } => info,
            other => unreachable!("coordinator protocol violation: {other:?}"),
        }
    }

    /// Blocks until every request in `reqs` completes.
    pub fn waitall(&mut self, reqs: &[Req]) {
        for r in reqs {
            self.live_recvs.remove(&r.0);
        }
        self.post(Op::WaitAll {
            reqs: reqs.iter().map(|r| r.0).collect(),
        });
    }

    /// Blocks until at least one request completes; returns the completed
    /// subset.
    pub fn waitsome(&mut self, reqs: &[Req]) -> Vec<Req> {
        match self.call(Op::WaitSome {
            reqs: reqs.iter().map(|r| r.0).collect(),
        }) {
            Reply::SomeDone { completed } => completed
                .into_iter()
                .inspect(|req| {
                    self.live_recvs.remove(req);
                })
                .map(Req)
                .collect(),
            other => unreachable!("coordinator protocol violation: {other:?}"),
        }
    }

    /// Nonblocking completion probe (MPI's `MPI_Test`): returns
    /// `Some(envelope)` when the request completed (consuming it; the
    /// envelope is `Some` only for receives), `None` when it is still in
    /// flight (the request stays live).
    #[allow(clippy::option_option)]
    pub fn test(&mut self, req: Req) -> Option<Option<RecvInfo>> {
        match self.call(Op::Test { req: req.0 }) {
            Reply::TestDone { completed, info } => {
                if completed {
                    self.live_recvs.remove(&req.0);
                }
                completed.then_some(info)
            }
            other => unreachable!("coordinator protocol violation: {other:?}"),
        }
    }

    /// Combined send-to-`dst` / receive-from-`src` (MPI's `MPI_Sendrecv`),
    /// built on nonblocking primitives so it cannot deadlock in rings.
    pub fn sendrecv(
        &mut self,
        dst: Rank,
        send_tag: Tag,
        bytes: u64,
        src: Rank,
        recv_tag: Tag,
    ) -> RecvInfo {
        let r = self.irecv(src, recv_tag);
        let s = self.isend(dst, send_tag, bytes);
        let info = self.wait(r).expect("irecv wait returns envelope");
        self.wait(s);
        info
    }

    /// Barrier over all ranks.
    pub fn barrier(&mut self) {
        match self.collective_mode {
            CollectiveMode::Abstract => self.post(Op::Barrier),
            CollectiveMode::Expanded => collective::expanded_barrier(self),
        }
    }

    /// Broadcast of `bytes` from `root`.
    pub fn bcast(&mut self, root: Rank, bytes: u64) {
        match self.collective_mode {
            CollectiveMode::Abstract => self.post(Op::Bcast { root, bytes }),
            CollectiveMode::Expanded => collective::expanded_bcast(self, root, bytes),
        }
    }

    /// Reduction of `bytes` to `root`.
    pub fn reduce(&mut self, root: Rank, bytes: u64) {
        match self.collective_mode {
            CollectiveMode::Abstract => self.post(Op::Reduce { root, bytes }),
            CollectiveMode::Expanded => collective::expanded_reduce(self, root, bytes),
        }
    }

    /// All-reduce of `bytes` (Fig. 4's operator).
    pub fn allreduce(&mut self, bytes: u64) {
        match self.collective_mode {
            CollectiveMode::Abstract => self.post(Op::Allreduce { bytes }),
            CollectiveMode::Expanded => collective::expanded_allreduce(self, bytes),
        }
    }

    /// Scatter of `bytes` per rank from `root`.
    pub fn scatter(&mut self, root: Rank, bytes: u64) {
        match self.collective_mode {
            CollectiveMode::Abstract => self.post(Op::Scatter { root, bytes }),
            CollectiveMode::Expanded => collective::expanded_scatter(self, root, bytes),
        }
    }

    /// Gather of `bytes` per rank to `root`.
    pub fn gather(&mut self, root: Rank, bytes: u64) {
        match self.collective_mode {
            CollectiveMode::Abstract => self.post(Op::Gather { root, bytes }),
            CollectiveMode::Expanded => collective::expanded_gather(self, root, bytes),
        }
    }

    /// All-gather of `bytes` per rank.
    pub fn allgather(&mut self, bytes: u64) {
        match self.collective_mode {
            CollectiveMode::Abstract => self.post(Op::Allgather { bytes }),
            CollectiveMode::Expanded => collective::expanded_allgather(self, bytes),
        }
    }

    /// All-to-all personalized exchange of `bytes` per pair.
    pub fn alltoall(&mut self, bytes: u64) {
        match self.collective_mode {
            CollectiveMode::Abstract => self.post(Op::Alltoall { bytes }),
            CollectiveMode::Expanded => collective::expanded_alltoall(self, bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_describe_is_short() {
        assert_eq!(
            Op::Send {
                dst: 3,
                tag: 1,
                bytes: 10,
                protocol: SendProtocol::Standard
            }
            .describe(),
            "send(dst=3, tag=1, Standard)"
        );
        assert_eq!(Op::Barrier.describe(), "barrier");
        assert_eq!(
            Op::WaitAll {
                reqs: vec![1, 2, 3]
            }
            .describe(),
            "waitall(3 reqs)"
        );
    }
}
