//! Lightweight send/receive envelopes for the lint progress simulation.
//!
//! The simulator's own envelope types carry timing and completion state the
//! lint passes do not need; these carry exactly what the matching rules and
//! the diagnostics require: the channel, the pattern, the payload size, and
//! the `(rank, seq)` provenance used to point diagnostics at trace lines.

use mpg_trace::{Rank, RecvEnvelope, ReqId, SendEnvelope, Seq, Tag};

/// An offered (possibly unmatched) send, as the lint matcher sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LintSend {
    /// Sender rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size.
    pub bytes: u64,
    /// Sequence number of the send event on `src`.
    pub seq: Seq,
    /// Position of the send event in `src`'s stream. Equal to `seq` in a
    /// valid trace; the simulation keys its per-rank state on this one, so
    /// duplicate or gapped sequence numbers cannot alias two events.
    pub idx: usize,
    /// Global issue stamp (the matcher's wildcard arrival order).
    pub issue: u64,
}

impl SendEnvelope for LintSend {
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
        self.issue
    }
}

/// A posted (possibly unmatched) receive, as the lint matcher sees it.
///
/// Traces record the *matched* source, so the pattern posted here is the
/// resolution the original run chose; the original wildcard survives only
/// in `posted_any`, which drives the `MPG-WILD-RACE` feasibility probe.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LintRecv {
    /// Receiver rank.
    pub dst: Rank,
    /// Source pattern (the recorded matched source, or `ANY_SOURCE` for
    /// feasibility probes).
    pub src_pattern: Rank,
    /// Tag pattern.
    pub tag_pattern: Tag,
    /// Expected payload size.
    pub bytes: u64,
    /// Sequence number of the receive event on `dst`.
    pub seq: Seq,
    /// Position of the receive event in `dst`'s stream (see
    /// [`LintSend::idx`]).
    pub idx: usize,
    /// True when the original receive was posted with `MPI_ANY_SOURCE`.
    pub posted_any: bool,
    /// The nonblocking request this receive completes, if any.
    pub req: Option<ReqId>,
}

impl RecvEnvelope for LintRecv {
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
