#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Baseline comparator: a general discrete-event simulator and a
//! Dimemas-like trace-replay model (§1, §1.1).
//!
//! "One technique … is to simulate perturbations in message latency and
//! processor compute time… This is easily modeled as a discrete event
//! simulation… Unlike a general discrete event model, we chose to directly
//! analyze the message-passing graph."
//!
//! This crate is the "general discrete event model" the paper chose *not*
//! to build, implemented so the choice can be evaluated (experiment E8):
//!
//! * [`engine`] — a minimal, generic future-event-list DES core;
//! * [`dimemas`] — a trace replayer driven by that core, implementing the
//!   published Dimemas communication model (§1.1): machine latency,
//!   bandwidth (size/bandwidth transfer), resource contention (a finite
//!   number of concurrent "buses"), flight time, and a CPU-speed ratio —
//!   re-simulating absolute timestamps rather than propagating drifts;
//! * [`compare`] — agreement metrics between the two predictors.

pub mod compare;
pub mod dimemas;
pub mod engine;

pub use compare::{agreement, Agreement};
pub use dimemas::{DimemasReplay, DimemasReport, MachineModel};
pub use engine::EventQueue;

/// Cycle unit shared across the workspace.
pub type Cycles = u64;
