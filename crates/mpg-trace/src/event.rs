//! The traced event model.
//!
//! §3 classifies MPI-1 primitives into pairwise vs collective and blocking
//! vs nonblocking, plus single-node operations (`MPI_Init` etc.). The
//! [`EventKind`] variants cover the same subset the paper's prototype
//! handles: blocking send/recv, nonblocking isend/irecv with wait/waitall/
//! waitsome, and the barrier/bcast/reduce/allreduce collectives.

use crate::Cycles;

/// Processor (MPI rank) identifier.
pub type Rank = u32;
/// Message tag.
pub type Tag = u32;
/// Nonblocking-request identifier — the paper's "*status* flags that
/// uniquely identify the send/receive transaction" (Fig. 3). Unique per rank.
pub type ReqId = u64;
/// Per-rank event sequence number (0-based, dense).
pub type Seq = u64;

/// Wildcard source for receives (`MPI_ANY_SOURCE`). Traces always record the
/// *matched* source; the wildcard appears only in the `posted_any` flag.
pub const ANY_SOURCE: Rank = Rank::MAX;
/// Wildcard tag (`MPI_ANY_TAG`).
pub const ANY_TAG: Tag = Tag::MAX;

/// Which blocking-send variant produced a `Send` event (§3.1.1: "The MPI
/// specification provides three forms of blocking send: the synchronous
/// send, the buffered send, and the ready send").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SendProtocol {
    /// `MPI_Send`: implementation-chosen; completion semantics follow the
    /// platform's configured protocol.
    #[default]
    Standard,
    /// `MPI_Ssend`: completes only after the matching receive started
    /// (always acknowledged).
    Synchronous,
    /// `MPI_Bsend`: completes after the local buffer copy (never
    /// acknowledged).
    Buffered,
    /// `MPI_Rsend`: requires the receive to be already posted; completes
    /// locally.
    Ready,
}

/// What happened during a traced interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// `MPI_Init` — single-node, trivial to model (§3).
    Init,
    /// `MPI_Finalize` — the final node per rank; replay reports the modified
    /// timestamp of this event (§6).
    Finalize,
    /// A period of local computation between messaging events (Fig. 1's
    /// `c_i` phases). `work` is the application's intended busy time; the
    /// traced interval may be longer on a noisy platform.
    Compute {
        /// Cycles of pure application work in the interval.
        work: Cycles,
    },
    /// A blocking send (`MPI_Send`/`Ssend`/`Bsend`/`Rsend` per `protocol`;
    /// the synchronous form matches Eq. 1's acknowledgement arm).
    Send {
        /// Destination rank.
        peer: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size (the `d` of `δ_t(d)`).
        bytes: u64,
        /// Which §3.1.1 blocking-send variant this was.
        protocol: SendProtocol,
    },
    /// Blocking `MPI_Recv`. `peer` is the **matched** source (as a PMPI
    /// wrapper reads from the completed status), never the wildcard.
    Recv {
        /// Matched source rank.
        peer: Rank,
        /// Matched tag.
        tag: Tag,
        /// Payload size.
        bytes: u64,
        /// True when the receive was posted with `MPI_ANY_SOURCE`.
        posted_any: bool,
    },
    /// Nonblocking `MPI_Isend`; returns immediately (§3.1.3).
    Isend {
        /// Destination rank.
        peer: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: u64,
        /// Request handle completing at a later `Wait*`.
        req: ReqId,
    },
    /// Nonblocking `MPI_Irecv`.
    Irecv {
        /// Matched source rank (filled at completion by the tracer).
        peer: Rank,
        /// Matched tag.
        tag: Tag,
        /// Payload size.
        bytes: u64,
        /// Request handle.
        req: ReqId,
        /// True when posted with `MPI_ANY_SOURCE`.
        posted_any: bool,
    },
    /// `MPI_Wait` on one request.
    Wait {
        /// The request being completed.
        req: ReqId,
    },
    /// `MPI_Waitall` on a set of requests.
    WaitAll {
        /// All requests completed by this call.
        reqs: Vec<ReqId>,
    },
    /// `MPI_Waitsome`: blocks until at least one of `reqs` completes;
    /// `completed` records which did.
    WaitSome {
        /// Requests passed in.
        reqs: Vec<ReqId>,
        /// Requests that completed during this call.
        completed: Vec<ReqId>,
    },
    /// `MPI_Barrier` over `comm_size` ranks.
    Barrier {
        /// Number of participating ranks.
        comm_size: u32,
    },
    /// `MPI_Bcast` of `bytes` from `root`.
    Bcast {
        /// Root rank.
        root: Rank,
        /// Payload size.
        bytes: u64,
        /// Number of participating ranks.
        comm_size: u32,
    },
    /// `MPI_Reduce` to `root` (§3.2's simplified variant).
    Reduce {
        /// Root rank receiving the result.
        root: Rank,
        /// Payload size.
        bytes: u64,
        /// Number of participating ranks.
        comm_size: u32,
    },
    /// `MPI_Allreduce` (Fig. 4's subgraph).
    Allreduce {
        /// Payload size.
        bytes: u64,
        /// Number of participating ranks.
        comm_size: u32,
    },
    /// `MPI_Test`: nonblocking completion probe. The traced outcome is
    /// preserved verbatim on replay (§4.3: replay never reorders events).
    Test {
        /// The probed request.
        req: ReqId,
        /// Whether the request had completed when probed.
        completed: bool,
    },
    /// `MPI_Scatter` of `bytes` per rank from `root`.
    Scatter {
        /// Root rank distributing the data.
        root: Rank,
        /// Per-rank payload size.
        bytes: u64,
        /// Number of participating ranks.
        comm_size: u32,
    },
    /// `MPI_Gather` of `bytes` per rank to `root`.
    Gather {
        /// Root rank collecting the data.
        root: Rank,
        /// Per-rank payload size.
        bytes: u64,
        /// Number of participating ranks.
        comm_size: u32,
    },
    /// `MPI_Allgather` of `bytes` per rank to everyone.
    Allgather {
        /// Per-rank payload size.
        bytes: u64,
        /// Number of participating ranks.
        comm_size: u32,
    },
    /// `MPI_Alltoall`: every rank sends `bytes` to every other rank.
    Alltoall {
        /// Per-pair payload size.
        bytes: u64,
        /// Number of participating ranks.
        comm_size: u32,
    },
}

impl EventKind {
    /// True for events that interact with other ranks (pairwise or
    /// collective); false for single-node events and local computation.
    pub fn is_communication(&self) -> bool {
        !matches!(
            self,
            EventKind::Init | EventKind::Finalize | EventKind::Compute { .. }
        )
    }

    /// True for collective operations.
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            EventKind::Barrier { .. }
                | EventKind::Bcast { .. }
                | EventKind::Reduce { .. }
                | EventKind::Allreduce { .. }
                | EventKind::Scatter { .. }
                | EventKind::Gather { .. }
                | EventKind::Allgather { .. }
                | EventKind::Alltoall { .. }
        )
    }

    /// True for the nonblocking initiation events (immediate return, §3.1.3).
    pub fn is_nonblocking_init(&self) -> bool {
        matches!(self, EventKind::Isend { .. } | EventKind::Irecv { .. })
    }

    /// True for completion events that block on earlier nonblocking requests.
    pub fn is_wait(&self) -> bool {
        matches!(
            self,
            EventKind::Wait { .. } | EventKind::WaitAll { .. } | EventKind::WaitSome { .. }
        )
    }

    /// Every [`EventKind::name`], indexed by [`EventKind::code`]. Stable:
    /// recorded graphs and their on-disk form store the code, not the name.
    pub const NAMES: [&'static str; 19] = [
        "init",
        "finalize",
        "compute",
        "send",
        "recv",
        "isend",
        "irecv",
        "wait",
        "waitall",
        "waitsome",
        "barrier",
        "bcast",
        "reduce",
        "allreduce",
        "test",
        "scatter",
        "gather",
        "allgather",
        "alltoall",
    ];

    /// This kind's index into [`EventKind::NAMES`].
    pub fn code(&self) -> u8 {
        match self {
            EventKind::Init => 0,
            EventKind::Finalize => 1,
            EventKind::Compute { .. } => 2,
            EventKind::Send { .. } => 3,
            EventKind::Recv { .. } => 4,
            EventKind::Isend { .. } => 5,
            EventKind::Irecv { .. } => 6,
            EventKind::Wait { .. } => 7,
            EventKind::WaitAll { .. } => 8,
            EventKind::WaitSome { .. } => 9,
            EventKind::Barrier { .. } => 10,
            EventKind::Bcast { .. } => 11,
            EventKind::Reduce { .. } => 12,
            EventKind::Allreduce { .. } => 13,
            EventKind::Test { .. } => 14,
            EventKind::Scatter { .. } => 15,
            EventKind::Gather { .. } => 16,
            EventKind::Allgather { .. } => 17,
            EventKind::Alltoall { .. } => 18,
        }
    }

    /// Short lowercase name for DOT labels and table rows.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.code() as usize]
    }
}

/// One traced event: the interval `[t_start, t_end]` in the *local* clock of
/// `rank`, split by the analyzer into start/end subevents (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Rank that produced the event.
    pub rank: Rank,
    /// Dense per-rank sequence number; §4.1's order-only matching keys off
    /// this, never off timestamps.
    pub seq: Seq,
    /// Entry timestamp (local clock, cycles).
    pub t_start: Cycles,
    /// Exit timestamp (local clock, cycles); `t_end >= t_start`.
    pub t_end: Cycles,
    /// What the interval was.
    pub kind: EventKind,
}

impl EventRecord {
    /// Duration of the interval in the local clock.
    pub fn duration(&self) -> Cycles {
        self.t_end - self.t_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(!EventKind::Init.is_communication());
        assert!(!EventKind::Compute { work: 5 }.is_communication());
        assert!(EventKind::Send {
            peer: 1,
            tag: 0,
            bytes: 8,
            protocol: SendProtocol::Standard
        }
        .is_communication());
        assert!(EventKind::Barrier { comm_size: 4 }.is_collective());
        assert!(!EventKind::Send {
            peer: 1,
            tag: 0,
            bytes: 8,
            protocol: SendProtocol::Buffered
        }
        .is_collective());
        assert!(EventKind::Isend {
            peer: 0,
            tag: 0,
            bytes: 0,
            req: 1
        }
        .is_nonblocking_init());
        assert!(EventKind::Wait { req: 1 }.is_wait());
        assert!(EventKind::WaitAll { reqs: vec![1, 2] }.is_wait());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            EventKind::Allreduce {
                bytes: 8,
                comm_size: 2
            }
            .name(),
            "allreduce"
        );
        assert_eq!(EventKind::Compute { work: 1 }.name(), "compute");
        assert_eq!(
            EventKind::Alltoall {
                bytes: 1,
                comm_size: 2
            }
            .name(),
            "alltoall"
        );
    }

    #[test]
    fn duration() {
        let e = EventRecord {
            rank: 0,
            seq: 0,
            t_start: 100,
            t_end: 150,
            kind: EventKind::Init,
        };
        assert_eq!(e.duration(), 50);
    }
}
