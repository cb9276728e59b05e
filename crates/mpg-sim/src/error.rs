//! Simulation failure modes.

/// Errors terminating a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Every live rank is blocked and no operation can make progress — the
    /// program has a genuine communication deadlock (e.g. two synchronous
    /// sends facing each other).
    Deadlock {
        /// Human-readable dump of each blocked rank's pending operation.
        blocked: Vec<String>,
    },
    /// Ranks disagreed on the collective sequence (rank A's nth collective
    /// is a barrier, rank B's is an allreduce, …).
    CollectiveMismatch {
        /// Index of the collective in program order.
        epoch: u64,
        /// Per-rank descriptions of the mismatched operations.
        detail: String,
    },
    /// A rank program panicked; the simulation cannot be trusted past this.
    RankPanicked {
        /// The panicking rank.
        rank: u32,
        /// Panic payload when it was a string.
        message: String,
    },
    /// An operation referenced an invalid rank, request, or parameter.
    InvalidOperation {
        /// The offending rank.
        rank: u32,
        /// What was wrong.
        detail: String,
    },
    /// The host could not start a rank's thread (out of memory, or a
    /// thread or address-space limit).
    Spawn {
        /// The first rank that did not start.
        rank: u32,
        /// The operating system's reason.
        detail: String,
    },
    /// Trace emission failed (I/O).
    Trace(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "deadlock: all ranks blocked: {}", blocked.join("; "))
            }
            SimError::CollectiveMismatch { epoch, detail } => {
                write!(f, "collective mismatch at epoch {epoch}: {detail}")
            }
            SimError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::InvalidOperation { rank, detail } => {
                write!(f, "invalid operation on rank {rank}: {detail}")
            }
            SimError::Spawn { rank, detail } => {
                write!(f, "could not start rank {rank}'s thread: {detail}")
            }
            SimError::Trace(m) => write!(f, "trace error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}
