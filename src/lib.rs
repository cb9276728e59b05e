#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `mpg` — message-passing graph performance analysis.
//!
//! Facade crate re-exporting the whole workspace: see the individual crates
//! for details, or `examples/quickstart.rs` for the end-to-end pipeline
//! (simulate → trace → build graph → perturb → replay → report).

pub use mpg_analysis as analysis;
pub use mpg_apps as apps;
pub use mpg_core as core;
pub use mpg_des as des;
pub use mpg_lint as lint;
pub use mpg_micro as micro;
pub use mpg_noise as noise;
pub use mpg_serve as serve;
pub use mpg_sim as sim;
pub use mpg_trace as trace;
