#![warn(missing_docs)]
// The one exception is `ooc::MappedFile`, which maps rank files.
#![deny(unsafe_code)]

//! Event traces for message-passing programs (§4 of the paper).
//!
//! "Each processor creates an event trace that records the local timestamp,
//! the event type, and event metadata for each event that occurs. … Each MPI
//! primitive to be recorded is wrapped with a lightweight PMPI wrapper that
//! records the event in a memory resident buffer. The buffer is dumped to an
//! event trace file when it becomes full."
//!
//! This crate defines the event model ([`EventRecord`]/[`EventKind`]), a
//! compact varint binary codec, the buffered [`TraceWriter`] mirroring the
//! PMPI wrapper's flush-on-full behaviour, a streaming decoder for
//! arbitrarily large traces ([`FrameCursor`]), per-rank [`ClockModel`]s
//! (traces deliberately carry *unsynchronized* clocks, §4.1), and structural
//! validation.
//!
//! The crate is dependency-free so every other crate can speak traces.

pub mod clock;
pub mod codec;
pub mod diag;
pub mod event;
pub mod faultgen;
pub mod fileset;
pub mod frame;
pub mod hash;
pub mod matching;
pub mod ooc;
pub mod salvage;
pub mod stats;
pub mod text;
pub mod validate;
pub mod writer;

pub use clock::ClockModel;
pub use diag::{
    json_escape_into, sort_diagnostics, validate_trace_diagnostics, Diagnostic, Rule, Severity,
};
pub use event::{EventKind, EventRecord, Rank, ReqId, SendProtocol, Seq, Tag, ANY_SOURCE, ANY_TAG};
pub use faultgen::{inject_dir, mutate_bytes, FaultKind, FaultPlan};
pub use fileset::{FileTraceSet, FsckStatus, MemTrace, SalvageReport, TraceDirWriter};
pub use hash::{fnv1a64, fnv1a64_append, trace_fingerprint, TraceFingerprint};
pub use matching::{EnvelopeMatcher, RecvEnvelope, SendEnvelope};
pub use ooc::{FrameCursor, FrameIndex, MappedFile, OocTraceSet};
pub use salvage::{salvage_bytes, salvage_into, RankSalvage, SealStatus};
pub use stats::{trace_stats, TraceStats};
pub use text::{text_to_trace, trace_to_text};
pub use validate::{validate_rank_trace, validate_trace, Violation};
pub use writer::TraceWriter;

/// Cycle-denominated local timestamp, matching `mpg_noise::Cycles` without
/// creating a dependency.
pub type Cycles = u64;

/// Errors arising while reading or decoding trace data.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed or truncated record stream.
    Corrupt(String),
    /// A CRC32C check failed: a frame payload, the whole-file checksum, or
    /// the footer's own checksum.
    Checksum(String),
    /// A v2 stream ended without a valid sealed footer — the writer most
    /// likely crashed mid-run. The salvage reader can recover the intact
    /// frames.
    Unsealed(String),
    /// A trace directory's `meta.txt` promises ranks whose files are
    /// absent; carries every missing rank, not just the first.
    MissingRanks(Vec<u32>),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Corrupt(m) => write!(f, "corrupt trace: {m}"),
            TraceError::Checksum(m) => write!(f, "trace checksum mismatch: {m}"),
            TraceError::Unsealed(m) => write!(f, "unsealed trace: {m}"),
            TraceError::MissingRanks(ranks) => {
                let list: Vec<String> = ranks.iter().map(|r| r.to_string()).collect();
                write!(
                    f,
                    "missing trace file(s) for rank(s) {} — run `mpgtool fsck` to salvage",
                    list.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}
