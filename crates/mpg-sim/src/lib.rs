#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A deterministic simulated MPI runtime.
//!
//! The paper generates its input data by running real MPI programs on a real
//! cluster under a PMPI tracing library (§4). This crate substitutes that
//! testbed: rank programs are ordinary Rust closures executing against a
//! [`RankCtx`] that exposes the same MPI-1 subset the paper models
//! (blocking send/recv, nonblocking isend/irecv with wait/waitall/waitsome,
//! and barrier/bcast/reduce/allreduce collectives). A central coordinator
//! advances **virtual time** in cycles, injects platform behaviour — wire
//! latency, bandwidth, software overhead, and OS noise from a
//! [`PlatformSignature`](mpg_noise::PlatformSignature) — and emits the same
//! per-rank, locally-timestamped event traces a PMPI wrapper would.
//!
//! # Determinism
//!
//! Rank programs run on OS threads, but the coordinator is a strict
//! sequencer with no thread of its own. A rank blocks only on a call whose
//! answer the coordinator alone has (`recv`, `wait` on a receive request,
//! `waitsome`, `test`), or after a run of 63 posted calls; every other call
//! is posted and the rank runs on. The coordinator holds every rank's calls
//! up to its next blocking one before deciding what to process: the rank
//! thread whose call leaves no rank running takes the decisions, under the
//! one lock every call takes, and wakes the ranks they answer. Decisions
//! follow `(enter time, rank)` order and never which thread takes them; a
//! posted call starts exactly when a reply would have let the rank send it,
//! and all randomness comes from per-rank
//! [`StreamRng`](mpg_noise::StreamRng) streams, so a given seed reproduces a
//! simulation bit for bit — the same trace as if every call waited for its
//! reply.
//!
//! # Example
//!
//! ```
//! use mpg_sim::Simulation;
//! use mpg_noise::PlatformSignature;
//!
//! let outcome = Simulation::new(4, PlatformSignature::quiet("test"))
//!     .seed(7)
//!     .run(|ctx| {
//!         let p = ctx.size();
//!         let next = (ctx.rank() + 1) % p;
//!         let prev = (ctx.rank() + p - 1) % p;
//!         ctx.compute(10_000);
//!         if ctx.rank() == 0 {
//!             ctx.send(next, 0, 1024);
//!             ctx.recv(prev, 0);
//!         } else {
//!             ctx.recv(prev, 0);
//!             ctx.send(next, 0, 1024);
//!         }
//!         ctx.barrier();
//!     })
//!     .unwrap();
//! assert_eq!(outcome.trace.num_ranks(), 4);
//! ```

pub mod collective;
pub mod comm;
pub mod coordinator;
pub mod error;
pub mod message;
pub mod network;
pub mod program;
pub mod rank;
pub mod tracer;

pub use comm::Comm;
pub use error::SimError;
pub use message::RecvInfo;
pub use program::{CollectiveMode, SendMode, SimOutcome, Simulation, StreamedRun};
pub use rank::{RankCtx, Req};

/// Virtual time in cycles (same unit as `mpg_noise::Cycles`).
pub type Cycles = u64;
