#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Supervised job runtime for trace analysis (`mpgtool serve`).
//!
//! The analysis engines in this workspace were built as run-to-completion
//! CLI passes. This crate wraps them in a long-lived, failure-isolated
//! service runtime:
//!
//! * **Admission control** — a bounded queue with a typed
//!   [`ServeError::Overloaded`] backpressure error; the service sheds load
//!   instead of growing without bound.
//! * **Deadlines & cancellation** — every job carries a
//!   [`CancelToken`](mpg_core::CancelToken) that the engine hot loops poll
//!   on an amortized event-count schedule
//!   ([`CHECK_INTERVAL`](mpg_core::CHECK_INTERVAL)); a fired token yields
//!   a *partial frontier report* through the crash-degradation machinery,
//!   not an error.
//! * **Panic isolation** — each job body runs under `catch_unwind`; a
//!   panic quarantines the job (crash ledger, `crashed` state) and retires
//!   its worker, which the supervisor respawns. One poisoned job never
//!   takes the service down.
//! * **Retries** — transient I/O failures are retried under a bounded,
//!   deterministically-jittered exponential backoff ([`RetryPolicy`]).
//! * **Warm artifacts** — replay, lint and explore jobs share the
//!   content-addressed report cache, and lint and explore jobs the arena
//!   and clock artifacts, with solo `mpgtool` runs: every report key and
//!   the one lookup/publish path live in [`tier`]. Cache anomalies are
//!   silent misses.
//! * **Resident traces** — a decoded trace stays in memory under its
//!   content fingerprint, within a byte budget, so the jobs of a sweep
//!   over one trace decode it once.
//! * **Chaos harness** — [`ChaosPlan`] injects seeded service-level faults
//!   (panics, stalls, transient I/O errors, artifact corruption) and
//!   [`JobRuntime::invariant_violations`] checks the contract afterwards:
//!   nothing wedges, the quarantine balances, completed output is
//!   byte-identical to solo runs.
//!
//! Rendering lives in [`render`] and is shared with `mpgtool`, so a
//! service job's output is byte-identical to the equivalent CLI
//! invocation by construction. See DESIGN.md §15 for the lifecycle state
//! machine and exit/error contract.

pub mod chaos;
pub mod job;
pub mod proto;
pub mod render;
mod resident;
pub mod retry;
pub mod runtime;
pub mod tier;

pub use chaos::{ChaosOp, ChaosPlan, CHAOS_OPS};
pub use job::{JobId, JobKind, JobSpec, JobState, JobStatus, ServeError};
pub use proto::serve_script;
pub use render::{
    lint_exit_code, render_explore_report, render_lint_report, render_replay_report, replay_config,
};
pub use retry::RetryPolicy;
pub use runtime::{JobRuntime, RuntimeConfig, RuntimeStats};
pub use tier::{
    analyze_report_key, explore_report_key, lint_report_key, replay_report_key, ReportTier,
};
