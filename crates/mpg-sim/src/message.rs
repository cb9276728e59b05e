//! Message and request bookkeeping types the coordinator files in its
//! [`EnvelopeMatcher`](mpg_trace::EnvelopeMatcher).

use crate::Cycles;
use mpg_trace::{Rank, RecvEnvelope, ReqId, SendEnvelope, Tag, ANY_SOURCE};

/// What a completed receive learned from the matched message — the shape of
/// MPI's `MPI_Status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvInfo {
    /// Actual source rank.
    pub src: Rank,
    /// Actual tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Who is blocked on (or tracking) one side of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Party {
    /// A blocking call: the rank thread is parked until completion.
    Blocking,
    /// A nonblocking call: completion lands in the request table under this
    /// id.
    Request(ReqId),
}

/// A message whose send side has been issued but which has not yet matched a
/// receive.
#[derive(Debug, Clone)]
pub struct MsgInFlight {
    /// Sender rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size.
    pub bytes: u64,
    /// Global time the sender entered the send operation.
    pub send_enter: Cycles,
    /// Global time the last byte reaches the receiver (overhead + latency +
    /// transfer, all sampled at send issue on the sender's streams).
    pub arrival: Cycles,
    /// Pre-sampled acknowledgement latency for the synchronous-send
    /// completion arm (the paper's `δ_λ2`).
    pub ack_latency: Cycles,
    /// How the sender's completion is delivered.
    pub sender: Party,
    /// True when the sender used an eager protocol and already completed.
    pub sender_done: bool,
}

/// A receive that has been posted but not yet matched.
#[derive(Debug, Clone)]
pub struct PostedRecv {
    /// Receiver rank.
    pub dst: Rank,
    /// Source pattern (`ANY_SOURCE` allowed).
    pub src_pattern: Rank,
    /// Tag pattern (`ANY_TAG` allowed).
    pub tag_pattern: Tag,
    /// Global time the receiver entered the receive operation.
    pub posted_at: Cycles,
    /// How the receiver's completion is delivered.
    pub receiver: Party,
    /// Monotone post index used for MPI's posted-receive ordering.
    pub order: u64,
}

impl PostedRecv {
    /// True when the receive was posted with a wildcard source.
    pub fn posted_any_source(&self) -> bool {
        self.src_pattern == ANY_SOURCE
    }
}

impl SendEnvelope for MsgInFlight {
    fn src(&self) -> Rank {
        self.src
    }

    fn dst(&self) -> Rank {
        self.dst
    }

    fn tag(&self) -> Tag {
        self.tag
    }

    fn arrival(&self) -> u64 {
        self.arrival
    }
}

impl RecvEnvelope for PostedRecv {
    fn dst(&self) -> Rank {
        self.dst
    }

    fn src_pattern(&self) -> Rank {
        self.src_pattern
    }

    fn tag_pattern(&self) -> Tag {
        self.tag_pattern
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_trace::ANY_TAG;

    fn posted(src: Rank, tag: Tag) -> PostedRecv {
        PostedRecv {
            dst: 0,
            src_pattern: src,
            tag_pattern: tag,
            posted_at: 0,
            receiver: Party::Blocking,
            order: 0,
        }
    }

    #[test]
    fn pattern_matching() {
        assert!(posted(3, 7).accepts(3, 7));
        assert!(!posted(3, 7).accepts(4, 7));
        assert!(!posted(3, 7).accepts(3, 8));
        assert!(posted(ANY_SOURCE, 7).accepts(9, 7));
        assert!(posted(3, ANY_TAG).accepts(3, 123));
        assert!(posted(ANY_SOURCE, ANY_TAG).accepts(5, 5));
    }

    #[test]
    fn any_source_flag() {
        assert!(posted(ANY_SOURCE, 0).posted_any_source());
        assert!(!posted(2, 0).posted_any_source());
    }
}
