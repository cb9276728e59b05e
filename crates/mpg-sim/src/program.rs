//! The [`Simulation`] builder and runner.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use crate::coordinator::{Coordinator, Finished, SimStats};
use crate::error::SimError;
use crate::network::NetworkModel;
use crate::rank::{lock, RankCtx, Shared, ABORT, UNPOISONED};
use crate::tracer::{FrameTracer, MemTracer, NullTracer, Tracer};
use crate::Cycles;
use mpg_noise::PlatformSignature;
use mpg_trace::{ClockModel, MemTrace};

/// How blocking/nonblocking sends complete (§3.1.1 notes MPI's send
/// variants; the paper's Eq. 1 models the synchronous form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Every send completes only after the receiver has the data and an
    /// acknowledgement returns (Eq. 1's third arm). The default, matching
    /// the paper's model.
    Synchronous,
    /// Messages up to `threshold` bytes complete locally after the buffer
    /// copy; larger ones fall back to synchronous completion, like real MPI
    /// eager/rendezvous protocols.
    Eager {
        /// Largest eager payload in bytes.
        threshold: u64,
    },
}

impl SendMode {
    /// Does a message of `bytes` complete eagerly under this mode?
    pub fn is_eager(self, bytes: u64) -> bool {
        match self {
            SendMode::Synchronous => false,
            SendMode::Eager { threshold } => bytes <= threshold,
        }
    }
}

/// How collectives are executed and traced (the ablation of §3.2, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveMode {
    /// The coordinator applies the paper's ⌈log₂ p⌉-round abstract model and
    /// the trace contains one collective event per rank (Fig. 4's subgraph).
    Abstract,
    /// Collectives are expanded into explicit point-to-point exchanges
    /// (butterfly allreduce, binomial bcast/reduce, dissemination barrier);
    /// the trace contains only pairwise events. "This can be explicitly
    /// constructed in the graph … unfortunately, this is not space or time
    /// efficient."
    Expanded,
}

/// Everything a finished simulation produced.
#[derive(Debug)]
pub struct SimOutcome {
    /// Per-rank event trace with **local** (skewed) timestamps.
    pub trace: MemTrace,
    /// Global virtual time at which each rank finished `MPI_Finalize` — the
    /// ground truth replays are validated against.
    pub finish_times: Vec<Cycles>,
    /// Aggregate counters.
    pub stats: SimStats,
}

impl SimOutcome {
    /// The job's makespan: the latest rank finish time (global clock).
    pub fn makespan(&self) -> Cycles {
        self.finish_times.iter().copied().max().unwrap_or(0)
    }
}

/// Everything a simulation that streamed its trace to disk produced
/// ([`Simulation::run_streamed`]): the trace is in its directory, not
/// here.
#[derive(Debug)]
pub struct StreamedRun {
    /// Global virtual time at which each rank finished `MPI_Finalize`.
    pub finish_times: Vec<Cycles>,
    /// Aggregate counters; `events` is the number of records written.
    pub stats: SimStats,
}

impl StreamedRun {
    /// The job's makespan: the latest rank finish time (global clock).
    pub fn makespan(&self) -> Cycles {
        self.finish_times.iter().copied().max().unwrap_or(0)
    }
}

/// Builder for one simulated MPI job.
pub struct Simulation {
    ranks: u32,
    signature: PlatformSignature,
    seed: u64,
    send_mode: SendMode,
    collective_mode: CollectiveMode,
    clocks: Option<Vec<ClockModel>>,
    tracing: bool,
}

impl Simulation {
    /// A job of `ranks` ranks on the given platform.
    ///
    /// # Panics
    /// Panics when `ranks == 0`.
    pub fn new(ranks: u32, signature: PlatformSignature) -> Self {
        assert!(ranks > 0, "need at least one rank");
        Self {
            ranks,
            signature,
            seed: 0,
            send_mode: SendMode::Synchronous,
            collective_mode: CollectiveMode::Abstract,
            clocks: None,
            tracing: true,
        }
    }

    /// Root RNG seed; the same seed reproduces the run exactly.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Send completion protocol (default [`SendMode::Synchronous`]).
    pub fn send_mode(mut self, mode: SendMode) -> Self {
        self.send_mode = mode;
        self
    }

    /// Collective execution mode (default [`CollectiveMode::Abstract`]).
    pub fn collective_mode(mut self, mode: CollectiveMode) -> Self {
        self.collective_mode = mode;
        self
    }

    /// Per-rank trace clock models. Defaults to
    /// [`ClockModel::skewed`] per rank — traces are unsynchronized unless
    /// explicitly overridden with [`ClockModel::ideal`] clocks.
    pub fn clocks(mut self, clocks: Vec<ClockModel>) -> Self {
        assert_eq!(clocks.len(), self.ranks as usize);
        self.clocks = Some(clocks);
        self
    }

    /// Convenience: perfectly synchronized trace clocks.
    pub fn ideal_clocks(self) -> Self {
        let n = self.ranks as usize;
        self.clocks(vec![ClockModel::ideal(); n])
    }

    /// Disables trace collection in [`run`](Self::run) (benchmarking the
    /// simulator itself). [`run_streamed`](Self::run_streamed) always
    /// writes its trace.
    pub fn no_trace(mut self) -> Self {
        self.tracing = false;
        self
    }

    /// Runs `program` on every rank (SPMD style: the closure observes its
    /// rank via [`RankCtx::rank`]). Blocks until all ranks finalize.
    pub fn run<F>(self, program: F) -> Result<SimOutcome, SimError>
    where
        F: Fn(&mut RankCtx) + Sync,
    {
        let clocks = self.trace_clocks();
        let tracer: Box<dyn Tracer> = if self.tracing {
            Box::new(MemTracer::new(clocks))
        } else {
            Box::new(NullTracer)
        };
        let ranks = self.ranks as usize;
        let (mut tracer, (stats, finish_times)) = self.simulate(tracer, program)?;
        let trace = tracer
            .finish()
            .map_err(SimError::Trace)?
            .unwrap_or_else(|| MemTrace::new(ranks));
        Ok(SimOutcome {
            trace,
            finish_times,
            stats,
        })
    }

    /// Runs `program` like [`run`](Self::run), but writes the trace to a
    /// new trace directory at `dir` while the ranks run, as the paper's
    /// PMPI tracer does: each rank's records fill a memory-resident buffer
    /// that is written to the rank's file as one frame when full, so the
    /// trace is never whole in memory. The files are byte for byte those
    /// [`MemTrace::save`] writes of `run`'s trace.
    ///
    /// A run that fails — the program, a thread that cannot start, or a
    /// write ([`SimError::Trace`]) — leaves no trace directory: every file
    /// and directory it created is removed, and nothing else.
    pub fn run_streamed<F>(self, dir: &Path, program: F) -> Result<StreamedRun, SimError>
    where
        F: Fn(&mut RankCtx) + Sync,
    {
        let tracer = FrameTracer::create(dir, self.trace_clocks())
            .map_err(|e| SimError::Trace(e.to_string()))?;
        let (mut tracer, (stats, finish_times)) = self.simulate(Box::new(tracer), program)?;
        tracer.finish().map_err(SimError::Trace)?;
        Ok(StreamedRun {
            finish_times,
            stats,
        })
    }

    /// The per-rank trace clocks: the configured ones, or skewed.
    fn trace_clocks(&self) -> Vec<ClockModel> {
        self.clocks
            .clone()
            .unwrap_or_else(|| (0..self.ranks).map(ClockModel::skewed).collect())
    }

    /// Runs `program` on every rank with `tracer` as the coordinator's
    /// sink; hands the tracer back unfinished.
    fn simulate<F>(
        self,
        tracer: Box<dyn Tracer>,
        program: F,
    ) -> Result<(Box<dyn Tracer>, Finished), SimError>
    where
        F: Fn(&mut RankCtx) + Sync,
    {
        let net = NetworkModel::new(self.signature.clone(), self.ranks as usize, self.seed);
        let coordinator = Coordinator::new(
            self.ranks,
            self.seed,
            self.send_mode,
            net,
            self.signature.os_noise.clone(),
            tracer,
        );
        let shared = Shared::new(coordinator, self.ranks);

        let collective_mode = self.collective_mode;
        let ranks = self.ranks;
        let program = &program;

        // The rank threads drive the coordinator among themselves; this
        // thread only starts them and waits for them. None runs before
        // all are started: a spawn can fail because the stacks exhausted
        // the address space, and a rank allocating then (or unwinding,
        // which allocates too) would abort the process instead.
        let start = StartGate::default();
        thread::scope(|scope| {
            let start = &start;
            for r in 0..ranks {
                let mine = shared.clone();
                let spawned = thread::Builder::new().spawn_scoped(scope, move || {
                    if !start.wait() {
                        return;
                    }
                    lock(&mine).register(r);
                    let mut ctx = RankCtx::new(r, ranks, mine, collective_mode);
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        ctx.init();
                        program(&mut ctx);
                        ctx.finalize();
                    }));
                    if let Err(payload) = outcome {
                        let is_abort = payload.downcast_ref::<&str>().is_some_and(|s| *s == ABORT);
                        if !is_abort {
                            let message = payload
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "non-string panic".into());
                            ctx.panicked(message);
                        }
                    }
                });
                if let Err(e) = spawned {
                    // The ranks already started would wait forever for
                    // this one: fail the run, and send them home from the
                    // gate before they run.
                    lock(&shared).end = Some(Err(SimError::Spawn {
                        rank: r,
                        detail: e.to_string(),
                    }));
                    start.open(false);
                    return;
                }
            }
            start.open(true);
        });

        let sh = Arc::into_inner(shared)
            .expect("every rank thread has exited")
            .into_inner()
            .expect(UNPOISONED);
        if let Some(payload) = sh.bug {
            // A coordinator bug, not the program's: raise it here, as if
            // this thread had been driving.
            resume_unwind(payload);
        }
        let finished = sh.end.expect("every rank has finalized or failed")?;
        Ok((sh.coordinator.into_tracer(), finished))
    }
}

/// Holds every rank thread until the spawn loop is done: no rank runs (or
/// allocates) while the loop may still be exhausting the address space,
/// and after a failed spawn the started ranks leave without running.
#[derive(Default)]
struct StartGate {
    /// `Some(run)` once the loop is done.
    state: Mutex<Option<bool>>,
    opened: Condvar,
}

impl StartGate {
    /// Blocks until the gate opens; whether to run.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(run) = *state {
                return run;
            }
            state = self.opened.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn open(&self, run: bool) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = Some(run);
        self.opened.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_trace::{validate_trace, EventKind};

    fn quiet() -> PlatformSignature {
        PlatformSignature::quiet("test")
    }

    #[test]
    fn single_rank_compute_only() {
        let out = Simulation::new(1, quiet())
            .ideal_clocks()
            .run(|ctx| ctx.compute(5_000))
            .unwrap();
        assert_eq!(out.trace.num_ranks(), 1);
        let events = out.trace.rank(0);
        assert_eq!(events.len(), 3); // init, compute, finalize
        assert_eq!(events[1].kind, EventKind::Compute { work: 5_000 });
        assert_eq!(events[1].duration(), 5_000); // quiet platform: no noise
        assert!(validate_trace(&out.trace).is_empty());
    }

    #[test]
    fn two_rank_pingpong() {
        let out = Simulation::new(2, quiet())
            .ideal_clocks()
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 7, 1000);
                    let info = ctx.recv(1, 8);
                    assert_eq!(info.bytes, 2000);
                } else {
                    let info = ctx.recv(0, 7);
                    assert_eq!(info.src, 0);
                    assert_eq!(info.bytes, 1000);
                    ctx.send(0, 8, 2000);
                }
            })
            .unwrap();
        assert!(validate_trace(&out.trace).is_empty());
        assert_eq!(out.stats.messages, 2);
        assert_eq!(out.stats.bytes, 3000);
        // Recv on rank 1 must end at arrival: init(1000) + enter + o(300) +
        // λ(2000) + transfer(500).
        let recv = &out.trace.rank(1)[1];
        assert_eq!(recv.kind.name(), "recv");
        assert_eq!(recv.t_end, 1000 + 300 + 2000 + 500);
    }

    #[test]
    fn synchronous_send_waits_for_receiver() {
        // Receiver delays before posting; sender's send interval must cover
        // the delay + ack.
        let out = Simulation::new(2, quiet())
            .ideal_clocks()
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 0, 8);
                } else {
                    ctx.compute(1_000_000);
                    ctx.recv(0, 0);
                }
            })
            .unwrap();
        let send = &out.trace.rank(0)[1];
        // recv posted at 1_001_000, ends max(arrival, posted+o)=1_001_300;
        // ack λ2=2000 → send end 1_003_300.
        assert_eq!(send.t_end, 1_001_000 + 300 + 2_000);
    }

    #[test]
    fn eager_send_returns_immediately() {
        let out = Simulation::new(2, quiet())
            .ideal_clocks()
            .send_mode(SendMode::Eager { threshold: 1 << 20 })
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 0, 100);
                } else {
                    ctx.compute(1_000_000);
                    ctx.recv(0, 0);
                }
            })
            .unwrap();
        let send = &out.trace.rank(0)[1];
        // o(300) + inject(50) regardless of the late receiver.
        assert_eq!(send.duration(), 350);
    }

    #[test]
    fn deadlock_detected() {
        let err = Simulation::new(2, quiet())
            .run(|ctx| {
                // Both ranks receive first: classic deadlock.
                let peer = 1 - ctx.rank();
                ctx.recv(peer, 0);
                ctx.send(peer, 0, 8);
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn sync_send_send_deadlock_detected() {
        let err = Simulation::new(2, quiet())
            .run(|ctx| {
                let peer = 1 - ctx.rank();
                ctx.send(peer, 0, 8);
                ctx.recv(peer, 0);
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn eager_send_send_does_not_deadlock() {
        Simulation::new(2, quiet())
            .send_mode(SendMode::Eager { threshold: 1 << 20 })
            .run(|ctx| {
                let peer = 1 - ctx.rank();
                ctx.send(peer, 0, 8);
                ctx.recv(peer, 0);
            })
            .unwrap();
    }

    #[test]
    fn rank_panic_reported() {
        let err = Simulation::new(2, quiet())
            .run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("boom on rank 1");
                }
                ctx.recv(1, 0);
            })
            .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other}"),
        }
    }

    #[test]
    fn determinism_same_seed() {
        let run = || {
            Simulation::new(4, PlatformSignature::noisy("n", 1.0))
                .seed(1234)
                .run(|ctx| {
                    let p = ctx.size();
                    for _ in 0..5 {
                        ctx.compute(10_000);
                        ctx.sendrecv((ctx.rank() + 1) % p, 0, 512, (ctx.rank() + p - 1) % p, 0);
                    }
                    ctx.allreduce(64);
                })
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.finish_times, b.finish_times);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn noise_increases_makespan() {
        let program = |ctx: &mut RankCtx| {
            for _ in 0..20 {
                ctx.compute(100_000);
                ctx.barrier();
            }
        };
        let quiet_out = Simulation::new(4, quiet()).seed(1).run(program).unwrap();
        let noisy_out = Simulation::new(4, PlatformSignature::noisy("n", 4.0))
            .seed(1)
            .run(program)
            .unwrap();
        assert!(
            noisy_out.makespan() > quiet_out.makespan(),
            "noisy {} <= quiet {}",
            noisy_out.makespan(),
            quiet_out.makespan()
        );
        assert!(noisy_out.stats.noise_stolen > 0);
    }

    #[test]
    fn collective_mismatch_detected() {
        let err = Simulation::new(2, quiet())
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.barrier();
                } else {
                    ctx.allreduce(8);
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::CollectiveMismatch { .. }), "{err}");
    }

    #[test]
    fn skewed_clocks_still_validate() {
        // Default clocks are skewed; traces must still be per-rank monotonic.
        let out = Simulation::new(3, quiet())
            .run(|ctx| {
                ctx.compute(1000);
                ctx.barrier();
            })
            .unwrap();
        assert!(validate_trace(&out.trace).is_empty());
        // And rank clocks genuinely differ: init start times disagree.
        let starts: Vec<u64> = (0..3).map(|r| out.trace.rank(r)[0].t_start).collect();
        assert!(starts.windows(2).any(|w| w[0] != w[1]), "{starts:?}");
    }

    #[test]
    fn waitsome_returns_subset() {
        let out = Simulation::new(2, quiet())
            .ideal_clocks()
            .run(|ctx| {
                if ctx.rank() == 0 {
                    // Two irecvs; peer sends one quickly, one after a long
                    // compute. Waitsome should complete with just the first.
                    let r1 = ctx.irecv(1, 1);
                    let r2 = ctx.irecv(1, 2);
                    let done = ctx.waitsome(&[r1, r2]);
                    assert_eq!(done.len(), 1);
                    let rest: Vec<_> = [r1, r2].into_iter().filter(|r| !done.contains(r)).collect();
                    ctx.waitall(&rest);
                } else {
                    ctx.send(0, 1, 8);
                    ctx.compute(10_000_000);
                    ctx.send(0, 2, 8);
                }
            })
            .unwrap();
        assert!(validate_trace(&out.trace).is_empty());
    }

    #[test]
    fn no_trace_mode() {
        let out = Simulation::new(2, quiet())
            .no_trace()
            .run(|ctx| {
                ctx.barrier();
            })
            .unwrap();
        assert_eq!(out.trace.total_events(), 0);
        assert!(out.makespan() > 0);
    }

    #[test]
    fn invalid_peer_rejected() {
        let err = Simulation::new(2, quiet())
            .run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send(5, 0, 8);
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidOperation { rank: 0, .. }),
            "{err}"
        );
    }
}
