//! Order-based matching state for the streaming replay (§4.1).
//!
//! "Each message event is guaranteed to have a counterpart, and this
//! counterpart can be found simply by processing each event in order on each
//! processor."
//!
//! Traces record the *matched* source and tag for every receive (wildcards
//! are resolved by the run itself), so replay posts concrete patterns to
//! the one matching kernel, [`EnvelopeMatcher`], the simulator, lint and
//! the DES share. This module adds only what the engine prints: the §4.2
//! window accounting and the unmatched counts.
//!
//! Matching consults **only** ranks, tags and queue order — never drift
//! values — which is what lets the lane-batched engine evaluate K
//! perturbation configs over one traversal: the state here is generic over
//! the drift payload `V` (a scalar [`Drift`] for single replays, a
//! [`MAX_LANES`](crate::lane::MAX_LANES)-wide lane vector for sweeps) and
//! every decision is identical for every lane by construction.

use crate::graph::NodeId;
use crate::{Cycles, Drift};
use mpg_trace::{EnvelopeMatcher, Rank, RecvEnvelope, ReqId, SendEnvelope, Tag};

/// Who completes the send side of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderRef {
    /// A blocking synchronous send: the sending rank's cursor is stalled on
    /// the send event until the acknowledgement drift arrives.
    BlockedSend {
        /// Sending rank.
        rank: Rank,
    },
    /// A nonblocking send: the acknowledgement resolves request `req`.
    Request {
        /// Sending rank.
        rank: Rank,
        /// The isend's request id.
        req: ReqId,
    },
    /// The sender completed locally (eager protocol / `ack_arm` disabled);
    /// no acknowledgement flows back.
    Done,
}

/// One message offered by a processed send event, waiting for its receive.
/// Generic over the drift payload: `Drift` for scalar replays, a lane
/// vector for batched sweeps.
#[derive(Debug, Clone)]
pub struct SendRecord<V = Drift> {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size.
    pub bytes: u64,
    /// Drift of the send's start subevent, `D(send_start)`.
    pub d_src: V,
    /// Drift candidate carried by the forward message path:
    /// `D(send_start) + δ_λ1 + δ_t(d) + δ_os2` (already sampled).
    pub d_msg: V,
    /// Pre-sampled acknowledgement latency `δ_λ2`.
    pub ack_lambda: V,
    /// How the sender completes.
    pub sender: SenderRef,
    /// The send's start subevent (graph recording).
    pub src_node: NodeId,
    /// Send-start timestamp in the *sender's local clock* (only the
    /// measured-slack absorption mode reads this — deliberately cross-clock).
    pub send_start_local: Cycles,
}

/// A receive posted before its message record arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRecv<V = Drift> {
    /// Matched source (exact — resolved by the original run).
    pub src: Rank,
    /// Matched tag (exact — resolved by the original run).
    pub tag: Tag,
    /// The irecv request this will resolve (pending receives are only
    /// queued for nonblocking receives; a blocking receive stalls its
    /// cursor instead).
    pub req: ReqId,
    /// Receiving rank.
    pub rank: Rank,
    /// Drift of the irecv's end subevent (the receive-side arrival anchor
    /// for acknowledgements).
    pub d_posted: V,
    /// The irecv's end subevent (graph recording).
    pub end_node: NodeId,
}

impl<V> SendEnvelope for SendRecord<V> {
    fn src(&self) -> Rank {
        self.src
    }

    fn dst(&self) -> Rank {
        self.dst
    }

    fn tag(&self) -> Tag {
        self.tag
    }

    // Replay's receives are concrete, so the matcher never orders by this.
    fn arrival(&self) -> u64 {
        0
    }
}

impl<V> RecvEnvelope for PendingRecv<V> {
    const CONCRETE: bool = true;

    fn dst(&self) -> Rank {
        self.rank
    }

    fn src_pattern(&self) -> Rank {
        self.src
    }

    fn tag_pattern(&self) -> Tag {
        self.tag
    }
}

/// A blocking receive's pattern: probed on every retry, never posted.
struct BlockingRecv {
    src: Rank,
    dst: Rank,
    tag: Tag,
}

impl RecvEnvelope for BlockingRecv {
    const CONCRETE: bool = true;

    fn dst(&self) -> Rank {
        self.dst
    }

    fn src_pattern(&self) -> Rank {
        self.src
    }

    fn tag_pattern(&self) -> Tag {
        self.tag
    }
}

/// All cross-rank matching state, with window accounting.
#[derive(Debug)]
pub struct MatchState<V = Drift> {
    matcher: EnvelopeMatcher<SendRecord<V>, PendingRecv<V>>,
    high_water: usize,
}

impl<V> Default for MatchState<V> {
    fn default() -> Self {
        Self {
            matcher: EnvelopeMatcher::new(),
            high_water: 0,
        }
    }
}

impl<V> MatchState<V> {
    /// Creates empty state.
    pub fn new() -> Self {
        Self::default()
    }

    fn note(&mut self) {
        self.note_external(0);
    }

    /// Extra retained items tracked by the caller (open requests,
    /// collective entries) folded into the high-water mark.
    pub fn note_external(&mut self, external: usize) {
        self.high_water = self.high_water.max(self.retained() + external);
    }

    /// Peak retained items (the §4.2 window bound).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Currently retained items: unmatched send records and pending
    /// receives.
    pub fn retained(&self) -> usize {
        self.unmatched_sends() + self.unmatched_recvs()
    }

    /// Offers a send record. If a pending (nonblocking) receive was posted
    /// first for it, returns the pair — the caller resolves that request;
    /// otherwise the record is queued.
    pub fn offer_send(&mut self, rec: SendRecord<V>) -> Option<(SendRecord<V>, PendingRecv<V>)> {
        let pair = self.matcher.post_send(rec);
        self.note();
        pair
    }

    /// Takes the earliest queued send with `tag` on `(src, dst)` for a
    /// blocking receive, which is never posted: its cursor stalls and
    /// retries when a record lands.
    pub fn take_send(&mut self, src: Rank, dst: Rank, tag: Tag) -> Option<SendRecord<V>> {
        self.matcher.take_match(&BlockingRecv { src, dst, tag })
    }

    /// Posts a nonblocking receive: returns the queued send it takes, or
    /// keeps it pending until [`offer_send`](Self::offer_send) brings one.
    pub fn post_recv(&mut self, pr: PendingRecv<V>) -> Option<SendRecord<V>> {
        let rec = self.matcher.post_recv(pr).map(|(rec, _)| rec);
        self.note();
        rec
    }

    /// Count of unmatched send records (post-replay §4.3 diagnostics).
    pub fn unmatched_sends(&self) -> usize {
        self.matcher.in_flight_count()
    }

    /// Count of unmatched pending receives.
    pub fn unmatched_recvs(&self) -> usize {
        self.matcher.posted_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(src: Rank, dst: Rank, tag: Tag, req: ReqId) -> PendingRecv {
        PendingRecv {
            src,
            tag,
            req,
            rank: dst,
            d_posted: 0,
            end_node: NodeId::end(dst, 0),
        }
    }

    fn rec(src: Rank, dst: Rank, tag: Tag, d_msg: Drift) -> SendRecord {
        SendRecord {
            src,
            dst,
            tag,
            bytes: 8,
            d_src: 0,
            d_msg,
            ack_lambda: 0,
            sender: SenderRef::Done,
            src_node: NodeId::start(src, 0),
            send_start_local: 0,
        }
    }

    #[test]
    fn pending_recv_resolves_in_post_order() {
        let mut m = MatchState::new();
        assert!(m.post_recv(pending(0, 1, 5, 1)).is_none());
        assert!(m.post_recv(pending(0, 1, 5, 2)).is_none());
        let (_, pr) = m.offer_send(rec(0, 1, 5, 10)).unwrap();
        assert_eq!(pr.req, 1);
        let (_, pr) = m.offer_send(rec(0, 1, 5, 20)).unwrap();
        assert_eq!(pr.req, 2);
    }

    #[test]
    fn pending_recv_tag_selective() {
        let mut m = MatchState::new();
        m.post_recv(pending(0, 1, 9, 1));
        // A tag-5 send must not satisfy the tag-9 pending receive.
        assert!(m.offer_send(rec(0, 1, 5, 10)).is_none());
        assert_eq!(m.unmatched_sends(), 1);
        assert_eq!(m.unmatched_recvs(), 1);
    }

    #[test]
    fn far_ranks_queue_and_count_as_unmatched() {
        // A corrupt trace can name any rank, the wildcard values included;
        // they are queued, matched only by an equal envelope and counted as
        // unmatched at the end, never a panic.
        let mut m = MatchState::new();
        m.offer_send(rec(0, 77, 5, 10));
        m.post_recv(pending(93, 1, 5, 1));
        m.post_recv(pending(Rank::MAX, 0, Tag::MAX, 2));
        assert!(m.offer_send(rec(3, 0, 4, 10)).is_none());
        assert!(m.take_send(0, 77, 5).is_some());
        assert_eq!(m.unmatched_recvs(), 2);
        assert!(m.take_send(50, 60, 5).is_none());
        assert!(m.take_send(Rank::MAX, 0, Tag::MAX).is_none());
        assert_eq!(m.unmatched_sends(), 1);
    }

    #[test]
    fn window_accounting() {
        let mut m = MatchState::new();
        m.offer_send(rec(0, 1, 5, 1));
        m.offer_send(rec(0, 1, 5, 2));
        assert_eq!(m.retained(), 2);
        m.take_send(0, 1, 5);
        assert_eq!(m.retained(), 1);
        assert_eq!(m.high_water(), 2);
        m.note_external(10);
        assert_eq!(m.high_water(), 11);
    }
}
