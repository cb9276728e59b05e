#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Perturbation parameterization for message-passing graph analysis.
//!
//! Section 5 of the paper treats every simulated perturbation — operating
//! system noise on local edges, latency and bandwidth variation on message
//! edges — as a random variable whose distribution is either
//!
//! 1. an **assumed parametric distribution** whose parameters are estimated
//!    from microbenchmark measurements (e.g. exponential queueing delay), or
//! 2. an **empirical distribution** built directly from the measured samples,
//!    which by the law of large numbers converges to the true distribution as
//!    the sample count grows.
//!
//! This crate provides both, plus the generative OS-noise *processes* used by
//! the simulated platform (periodic daemons, Poisson interrupts), summary
//! statistics, and the [`PlatformSignature`] bundle that carries a platform's
//! measured characteristics into the analyzer.
//!
//! All time quantities are in **cycles** (`u64`), matching the paper's use of
//! cycle-accurate processor timers (§4.2, §6.1).
//!
//! [`PlatformSignature`]: signature::PlatformSignature

pub mod dist;
pub mod empirical;
pub mod fit;
pub mod histogram;
pub mod noise_model;
pub mod rng;
pub mod signature;
pub mod stats;

pub use dist::{Dist, SampleDist};
pub use empirical::Empirical;
pub use fit::{best_fit, fit_exponential, fit_lognormal, fit_normal, fit_pareto, ks_statistic};
pub use histogram::{Binning, Histogram};
pub use noise_model::{NoiseProcess, OsNoiseModel};
pub use rng::StreamRng;
pub use signature::{BandwidthModel, PlatformSignature};
pub use stats::Summary;

/// One cycle-denominated time quantity.
pub type Cycles = u64;
