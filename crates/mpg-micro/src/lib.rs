#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Microbenchmarks for platform parameterization (§5).
//!
//! "We propose that in the initial phase of this research, parameters be
//! determined using *microbenchmarks* that are carefully constructed to
//! probe very specific performance parameters. Each parallel platform has a
//! signature that is defined by the set of metrics determined by various
//! microbenchmarks."
//!
//! The four probes the paper names, each implemented against the simulated
//! platform exactly as it would run on hardware:
//!
//! * [`ftq`](mod@ftq) — the fixed time quantum benchmark of Sottile & Minnich
//!   \[16\]: repeated fine-grained work quanta expose periodic OS
//!   interference as deficits in work-per-quantum;
//! * [`mraz`](mod@mraz) — Mraz's point-to-point probe \[11\]: a tight
//!   send/recv loop whose round-trip spread reveals noise as seen by
//!   messaging;
//! * [`pingpong`](mod@pingpong) — the classic latency benchmark (§5.2);
//! * [`bandwidth`](mod@bandwidth) — large one-way messages with a small acknowledgement.
//!
//! [`measure_signature`] runs all four and assembles an **empirical**
//! [`PlatformSignature`](mpg_noise::PlatformSignature) whose distributions come from the measured samples
//! (§5's method 2), ready to hand to the replay layer. The derivation of an
//! *injected-delta* model for cross-platform prediction (quiet trace →
//! noisy target) lives in [`delta_model`](mod@delta_model).

pub mod bandwidth;
pub mod delta_model;
pub mod ftq;
pub mod mraz;
pub mod pingpong;
pub mod signature;

pub use bandwidth::{bandwidth, BandwidthResult};
pub use delta_model::delta_model;
pub use ftq::{ftq, FtqResult};
pub use mraz::{mraz, MrazResult};
pub use pingpong::{pingpong, PingPongResult};
pub use signature::{measure_signature, MeasuredSignature};

/// Cycle unit shared across the workspace.
pub type Cycles = u64;
