#![warn(missing_docs)]

//! Experiment harness: reproduces every figure and table of the paper.
//!
//! Each experiment in [`experiments`] is a self-contained driver mapping to
//! one artifact of the paper (see the experiment index in `DESIGN.md`):
//!
//! | id  | paper artifact |
//! |-----|----------------|
//! | e1  | Fig. 1 — alternating compute/messaging phases |
//! | e2  | Fig. 2 + Eq. 1 — blocking send/recv subgraph |
//! | e3  | Fig. 3 + Eq. 2 — nonblocking pair + waits |
//! | e4  | Fig. 4 — abstract vs explicit collective model |
//! | e5  | Fig. 5 — DOT export of a blocking trace |
//! | e6  | §6.1 — the 128-rank token-ring perturbation sweep |
//! | e7  | §4.2 — windowed streaming memory bound |
//! | e8  | §1.1 — graph traversal vs Dimemas-like DES |
//! | e9  | §5 — law-of-large-numbers ECDF convergence |
//! | e10 | §5.1–5.2 — microbenchmark platform signatures |
//! | e11 | §6 — cross-platform runtime prediction |
//! | e12 | §6/§7 — noise-reduction (future work) |
//! | e13 | §4.2 — absorbed vs propagated sensitivity |
//! | e14 | ablation: conservative vs measured-slack absorption (§4.1) |
//! | e15 | extension: critical paths & tolerant/sensitive regions (§4.2) |
//! | e16 | ablation: assumed-distribution vs empirical parameterization (§5) |
//!
//! Run them all with `cargo run -p mpg-analysis --bin experiments`, or one
//! with `… --bin experiments e6`. Pass `--quick` for reduced problem sizes
//! (the test suite uses that mode). [`history`] implements the paper's
//! future-work experiment-history store.

pub mod experiments;
pub mod history;
pub mod perf;
pub mod sweep;
pub mod table;

pub use experiments::{all_experiments, Experiment, ExperimentResult};
pub use history::{record_from_report, AnalysisRecord, HistoryStore};
pub use perf::PerfSnapshot;
pub use sweep::{parallel_replays, sweep_replays, sweep_replays_cancellable, SweepMode};
pub use table::Table;

/// Cycle unit shared across the workspace.
pub type Cycles = u64;
