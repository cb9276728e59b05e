//! The supervised job runtime: bounded admission, worker pool, deadlines,
//! cooperative cancellation, panic quarantine, and transient-failure
//! retries.
//!
//! Supervision model: worker threads pull jobs from a bounded queue; each
//! job body runs under `catch_unwind`. A panicking job is **quarantined**
//! (recorded with its panic message, marked `crashed`) and its worker
//! exits — the thread's state is conservatively treated as poisoned — to
//! be respawned by the next supervision pass ([`JobRuntime::supervise`],
//! folded into every public entry point). Cancellation and deadlines ride
//! the engines' [`CancelToken`] plumbing, so a cut-short replay comes back
//! as a *partial frontier report*, not an error.
//!
//! Every job kind goes through `run_cached`: a report-cache hit answers
//! without opening the trace (`tier.rs`, DESIGN §14.4); a miss gets the
//! trace through `open_trace`, which serves it from the runtime's
//! resident set (`resident.rs`, DESIGN §20) when a trace of the
//! directory's content fingerprint is already decoded.

use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpg_core::{CacheStore, CancelReason, CancelToken, ReplayError, Replayer};
use mpg_trace::{MemTrace, TraceError};

use crate::chaos::{ChaosOp, ChaosPlan};
use crate::job::{JobId, JobKind, JobSpec, JobState, JobStatus, ServeError};
use crate::render;
use crate::resident::{trace_key, ResidentTraces};
use crate::retry::RetryPolicy;
use crate::tier::{self, ReportTier};

/// Runtime tuning knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it get
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Deadline applied to jobs that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Transient-failure retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// Report, arena and clock cache for warm jobs (shared with solo
    /// `mpgtool` runs).
    pub cache: Option<CacheStore>,
    /// Chaos plan (tests / `--chaos`); [`ChaosPlan::none`] in production.
    pub chaos: ChaosPlan,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            queue_depth: 16,
            default_deadline: None,
            retry: RetryPolicy::default(),
            cache: None,
            chaos: ChaosPlan::none(),
        }
    }
}

/// Aggregate counters for `STATS` and the invariant checker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Jobs accepted.
    pub submitted: u64,
    /// Terminal-state counts.
    pub done: u64,
    /// Jobs that failed with a typed error.
    pub failed: u64,
    /// Jobs cut short by explicit cancellation.
    pub cancelled: u64,
    /// Jobs cut short by their deadline.
    pub deadline_exceeded: u64,
    /// Jobs that panicked (= quarantine length).
    pub crashed: u64,
    /// Workers respawned after a crash.
    pub respawns: u64,
    /// Jobs answered by a report-cache hit (any kind).
    pub cache_hits: u64,
    /// Full trace decodes that completed (resident misses, and traces
    /// without a fingerprint).
    pub trace_loads: u64,
    /// Jobs whose trace was already resident.
    pub trace_hits: u64,
    /// Estimated bytes of decoded traces held resident.
    pub resident_bytes: u64,
}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    output: Option<String>,
    error: Option<String>,
    attempts: u32,
    started: bool,
    token: CancelToken,
}

impl JobRecord {
    fn status(&self, id: JobId) -> JobStatus {
        JobStatus {
            id,
            state: self.state,
            output: self.output.clone(),
            error: self.error.clone(),
            attempts: self.attempts,
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<JobId>>,
    work_cv: Condvar,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    done_cv: Condvar,
    quarantine: Mutex<Vec<(JobId, String)>>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    respawns: AtomicU64,
    cache_hits: AtomicU64,
    retry: RetryPolicy,
    cache: Option<CacheStore>,
    resident: ResidentTraces,
    chaos: ChaosPlan,
}

/// Locks a mutex, recovering from poisoning: the runtime's shared state is
/// only mutated under short, panic-free critical sections, so a poisoned
/// lock means a *worker* died elsewhere — the data is still consistent.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The supervised job runtime. Dropping it shuts down ungracefully; call
/// [`JobRuntime::shutdown`] to drain first.
pub struct JobRuntime {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    target_workers: usize,
    queue_depth: usize,
    default_deadline: Option<Duration>,
}

impl JobRuntime {
    /// Starts the worker pool.
    pub fn start(cfg: RuntimeConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            quarantine: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            respawns: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            retry: cfg.retry,
            cache: cfg.cache,
            resident: ResidentTraces::new(),
            chaos: cfg.chaos,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| spawn_worker(Arc::clone(&shared)))
            .collect();
        JobRuntime {
            shared,
            workers: Mutex::new(workers),
            target_workers: cfg.workers.max(1),
            queue_depth: cfg.queue_depth.max(1),
            default_deadline: cfg.default_deadline,
        }
    }

    /// Submits a job. `Err(Overloaded)` when the queue is full — the
    /// backpressure contract; `Err(ShuttingDown)` after
    /// [`JobRuntime::shutdown`] began.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobId, ServeError> {
        self.supervise();
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if spec.deadline.is_none() {
            spec.deadline = self.default_deadline;
        }
        let mut queue = lock(&self.shared.queue);
        let depth = self.queue_depth;
        if queue.len() >= depth {
            return Err(ServeError::Overloaded { depth });
        }
        let id = JobId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        let token = match spec.deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        lock(&self.shared.jobs).insert(
            id.0,
            JobRecord {
                spec,
                state: JobState::Queued,
                output: None,
                error: None,
                attempts: 0,
                started: false,
                token,
            },
        );
        queue.push_back(id);
        drop(queue);
        self.shared.work_cv.notify_one();
        Ok(id)
    }

    /// Requests cancellation. Queued jobs transition immediately; running
    /// jobs observe the token within one engine check interval and come
    /// back with a partial report.
    pub fn cancel(&self, id: JobId) -> Result<(), ServeError> {
        self.supervise();
        let mut jobs = lock(&self.shared.jobs);
        let rec = jobs.get_mut(&id.0).ok_or(ServeError::UnknownJob(id))?;
        rec.token.cancel();
        if rec.state == JobState::Queued {
            rec.state = JobState::Cancelled;
            drop(jobs);
            self.shared.done_cv.notify_all();
        }
        Ok(())
    }

    /// Point-in-time view of a job.
    pub fn status(&self, id: JobId) -> Result<JobStatus, ServeError> {
        self.supervise();
        let jobs = lock(&self.shared.jobs);
        let rec = jobs.get(&id.0).ok_or(ServeError::UnknownJob(id))?;
        Ok(rec.status(id))
    }

    /// Blocks until the job reaches a terminal state (or `timeout`
    /// passes); returns the final status either way.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Result<JobStatus, ServeError> {
        let deadline = Instant::now() + timeout;
        loop {
            // The park's 20 ms timeout is the supervision heartbeat.
            self.supervise();
            let jobs = lock(&self.shared.jobs);
            let rec = jobs.get(&id.0).ok_or(ServeError::UnknownJob(id))?;
            if rec.state.is_terminal() || Instant::now() >= deadline {
                return Ok(rec.status(id));
            }
            // Parked under the acquisition that read the state, so no
            // worker can set it and notify in between.
            let _ = self
                .shared
                .done_cv
                .wait_timeout(jobs, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until every accepted job is terminal.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            self.supervise();
            let all_terminal = lock(&self.shared.jobs)
                .values()
                .all(|r| r.state.is_terminal());
            if all_terminal {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Drains, then stops and joins the workers.
    pub fn shutdown(&self, timeout: Duration) -> bool {
        let drained = self.drain(timeout);
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_cv.notify_all();
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
        drained
    }

    /// Respawns workers that died (a quarantined panic kills its worker).
    /// Folded into every public entry point, so the pool self-heals on the
    /// next interaction; tests may also call it directly.
    pub fn supervise(&self) {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut workers = lock(&self.workers);
        for slot in workers.iter_mut() {
            if slot.is_finished() {
                let dead = std::mem::replace(slot, spawn_worker(Arc::clone(&self.shared)));
                let _ = dead.join();
                self.shared.respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
        while workers.len() < self.target_workers {
            workers.push(spawn_worker(Arc::clone(&self.shared)));
            self.shared.respawns.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Quarantined jobs: id plus panic message. Never cleared — the
    /// quarantine is the service's crash ledger.
    pub fn quarantine(&self) -> Vec<(JobId, String)> {
        lock(&self.shared.quarantine).clone()
    }

    /// Live (non-finished) worker threads.
    pub fn live_workers(&self) -> usize {
        lock(&self.workers)
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RuntimeStats {
        let jobs = lock(&self.shared.jobs);
        let count = |s: JobState| jobs.values().filter(|r| r.state == s).count() as u64;
        RuntimeStats {
            submitted: jobs.len() as u64,
            done: count(JobState::Done),
            failed: count(JobState::Failed),
            cancelled: count(JobState::Cancelled),
            deadline_exceeded: count(JobState::DeadlineExceeded),
            crashed: count(JobState::Crashed),
            respawns: self.shared.respawns.load(Ordering::Relaxed),
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            trace_loads: self.shared.resident.loads(),
            trace_hits: self.shared.resident.hits(),
            resident_bytes: self.shared.resident.bytes(),
        }
    }

    /// The chaos-harness invariant checker. Call after [`JobRuntime::drain`];
    /// returns human-readable violations (empty = healthy):
    ///
    /// 1. every job reached a terminal state (nothing wedged),
    /// 2. the quarantine ledger matches the crashed jobs exactly (no leak,
    ///    no loss),
    /// 3. the worker pool is back at full strength,
    /// 4. every terminal state carries its contractual payload (`done` ⇒
    ///    output, started `cancelled`/`deadline-exceeded` ⇒ partial
    ///    output, `failed`/`crashed` ⇒ error),
    /// 5. the resident traces fit their byte budget, and no decode turn
    ///    outlived its job.
    pub fn invariant_violations(&self) -> Vec<String> {
        self.supervise();
        let mut v = Vec::new();
        let jobs = lock(&self.shared.jobs);
        for (raw, rec) in jobs.iter() {
            let id = JobId(*raw);
            if !rec.state.is_terminal() {
                v.push(format!("{id} wedged in state {}", rec.state));
            }
            match rec.state {
                JobState::Done if rec.output.is_none() => {
                    v.push(format!("{id} done without output"));
                }
                JobState::Cancelled | JobState::DeadlineExceeded
                    if rec.started && rec.output.is_none() =>
                {
                    v.push(format!(
                        "{id} cut short after starting but has no partial output"
                    ));
                }
                JobState::Failed | JobState::Crashed if rec.error.is_none() => {
                    v.push(format!("{id} {} without an error message", rec.state));
                }
                _ => {}
            }
        }
        let crashed: Vec<u64> = jobs
            .iter()
            .filter(|(_, r)| r.state == JobState::Crashed)
            .map(|(id, _)| *id)
            .collect();
        drop(jobs);
        let quarantine = lock(&self.shared.quarantine);
        if quarantine.len() != crashed.len() {
            v.push(format!(
                "quarantine leak: {} entries for {} crashed job(s)",
                quarantine.len(),
                crashed.len()
            ));
        }
        for id in &crashed {
            if !quarantine.iter().any(|(q, _)| q.0 == *id) {
                v.push(format!(
                    "{} crashed but is missing from quarantine",
                    JobId(*id)
                ));
            }
        }
        drop(quarantine);
        let live = self.live_workers();
        if live != self.target_workers {
            v.push(format!(
                "worker pool degraded: {live}/{} alive",
                self.target_workers
            ));
        }
        let (resident, budget) = (self.shared.resident.bytes(), self.shared.resident.budget());
        if resident > budget {
            v.push(format!(
                "resident traces over budget: {resident} > {budget} bytes"
            ));
        }
        let turns = self.shared.resident.decoding();
        if turns > 0 {
            v.push(format!("{turns} trace decode turn(s) still held"));
        }
        v
    }
}

fn spawn_worker(shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::spawn(move || worker_loop(shared))
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let id = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .work_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        if run_one(&shared, id) == WorkerVerdict::Die {
            return;
        }
    }
}

/// After a job, does the worker keep serving or retire?
#[derive(PartialEq)]
enum WorkerVerdict {
    Continue,
    /// The worker caught a job panic: its thread state is conservatively
    /// poisoned, so it retires and the supervisor respawns a clean one.
    Die,
}

/// Executes one job under `catch_unwind`; a panic quarantines the job and
/// kills this worker (poisoned-state conservatism — the supervisor
/// respawns a fresh one).
fn run_one(shared: &Arc<Shared>, id: JobId) -> WorkerVerdict {
    let (spec, token) = {
        let mut jobs = lock(&shared.jobs);
        let Some(rec) = jobs.get_mut(&id.0) else {
            return WorkerVerdict::Continue;
        };
        if rec.state != JobState::Queued {
            return WorkerVerdict::Continue; // cancelled while queued
        }
        // Deadline may have passed while queued.
        if let Some(reason) = rec.token.fired() {
            rec.state = reason.into();
            drop(jobs);
            shared.done_cv.notify_all();
            return WorkerVerdict::Continue;
        }
        rec.state = JobState::Running;
        rec.started = true;
        (rec.spec.clone(), rec.token.clone())
    };
    let chaos = shared.chaos.op_for(id.0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        execute_with_retries(shared, id, &spec, &token, chaos.as_ref())
    }));
    match result {
        Ok(outcome) => {
            let mut jobs = lock(&shared.jobs);
            if let Some(rec) = jobs.get_mut(&id.0) {
                rec.state = outcome.state;
                rec.output = outcome.output;
                rec.error = outcome.error;
                rec.attempts = outcome.attempts;
            }
            drop(jobs);
            shared.done_cv.notify_all();
            WorkerVerdict::Continue
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            lock(&shared.quarantine).push((id, msg.clone()));
            let mut jobs = lock(&shared.jobs);
            if let Some(rec) = jobs.get_mut(&id.0) {
                rec.state = JobState::Crashed;
                rec.error = Some(msg);
            }
            drop(jobs);
            shared.done_cv.notify_all();
            WorkerVerdict::Die
        }
    }
}

struct Outcome {
    state: JobState,
    output: Option<String>,
    error: Option<String>,
    attempts: u32,
}

impl Outcome {
    /// A job that ended in `state` with `output` (its attempt count is
    /// filled in by the retry loop).
    fn with_output(state: JobState, output: String) -> Self {
        Outcome {
            state,
            output: Some(output),
            error: None,
            attempts: 0,
        }
    }
}

struct RunFailure {
    transient: bool,
    msg: String,
}

fn execute_with_retries(
    shared: &Shared,
    id: JobId,
    spec: &JobSpec,
    token: &CancelToken,
    chaos: Option<&ChaosOp>,
) -> Outcome {
    if let Some(ChaosOp::Delay(d)) = chaos {
        std::thread::sleep(*d);
    }
    let mut attempts = 0;
    loop {
        attempts += 1;
        // A token fired during queueing, chaos delay, or backoff: stop
        // before burning another attempt.
        if let Some(reason) = token.fired() {
            return Outcome {
                state: reason.into(),
                output: Some(String::new()),
                error: None,
                attempts,
            };
        }
        match run_once(shared, id, spec, token, chaos, attempts) {
            Ok(mut outcome) => {
                outcome.attempts = attempts;
                return outcome;
            }
            Err(f) if f.transient && attempts < shared.retry.attempts => {
                std::thread::sleep(shared.retry.backoff(id.0, attempts));
            }
            Err(f) => {
                return Outcome {
                    state: JobState::Failed,
                    output: None,
                    error: Some(f.msg),
                    attempts,
                };
            }
        }
    }
}

fn run_once(
    shared: &Shared,
    id: JobId,
    spec: &JobSpec,
    token: &CancelToken,
    chaos: Option<&ChaosOp>,
    attempt: u32,
) -> Result<Outcome, RunFailure> {
    match chaos {
        Some(ChaosOp::PanicOnOpen) => panic!("chaos: injected panic on open ({id})"),
        Some(ChaosOp::IoError { failures }) if attempt <= *failures => {
            return Err(RunFailure {
                transient: true,
                msg: format!("chaos: injected transient I/O error (attempt {attempt})"),
            });
        }
        Some(ChaosOp::CorruptArtifact) => {
            if let Some(store) = &shared.cache {
                corrupt_cache(store.root());
            }
        }
        _ => {}
    }
    match &spec.kind {
        JobKind::Replay {
            dir,
            os_mean,
            latency,
            per_byte,
            seed,
        } => run_replay(
            shared,
            token,
            chaos,
            dir,
            (*os_mean, *latency, *per_byte, *seed),
        ),
        JobKind::Lint { dir } => run_lint(shared, token, dir),
        JobKind::Explore { dir, budget, seed } => run_explore(shared, token, dir, *budget, *seed),
    }
}

/// `key` is the directory's [`trace_key`], taken by this job: what makes a
/// resident copy current.
fn open_trace(
    shared: &Shared,
    dir: &Path,
    key: Option<String>,
) -> Result<Arc<MemTrace>, RunFailure> {
    shared
        .resident
        .open(dir, key)
        .map_err(|e: TraceError| RunFailure {
            // I/O-level failures (vanished file, EIO) are the transient class
            // the retry loop exists for; structural damage is permanent.
            transient: matches!(e, TraceError::Io(_)),
            msg: e.to_string(),
        })
}

/// What a job body produced: the rendered bytes, the exit code its CLI
/// twin returns with them, and whether a token cut the run short.
struct Rendered {
    stdout: String,
    exit_code: u8,
    cancelled: Option<CancelReason>,
}

/// The report tier of every job kind, the path `mpgtool`'s cached verbs
/// take too. With a store and a fingerprinted trace, a report hit answers
/// without opening the trace and counts in `cache_hits`. Otherwise `body`
/// runs on the (resident) trace, handed the store's arena and clock
/// artifacts, and a run no token cut short is published under the key.
/// Any cache anomaly is a silent miss.
fn run_cached(
    shared: &Shared,
    dir: &Path,
    report_key: impl FnOnce(&str) -> String,
    body: impl FnOnce(&MemTrace, Option<(&CacheStore, &str)>) -> Result<Rendered, RunFailure>,
) -> Result<Outcome, RunFailure> {
    let key = trace_key(dir);
    let tier = match (&shared.cache, &key) {
        (Some(store), Some(key)) => match ReportTier::open(store, key.clone(), report_key) {
            ControlFlow::Break(hit) => {
                shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Outcome::with_output(JobState::Done, hit.stdout));
            }
            ControlFlow::Continue(tier) => Some(tier),
        },
        _ => None,
    };
    let trace = open_trace(shared, dir, key)?;
    let run = body(&trace, tier.as_ref().map(ReportTier::artifacts))?;
    let state = match run.cancelled {
        Some(reason) => reason.into(),
        None => {
            if let Some(tier) = &tier {
                tier.publish(run.exit_code, &run.stdout);
            }
            JobState::Done
        }
    };
    Ok(Outcome::with_output(state, run.stdout))
}

fn run_replay(
    shared: &Shared,
    token: &CancelToken,
    chaos: Option<&ChaosOp>,
    dir: &Path,
    knobs: (f64, f64, f64, u64),
) -> Result<Outcome, RunFailure> {
    let (os_mean, latency, per_byte, seed) = knobs;
    let cfg = render::replay_config(os_mean, latency, per_byte, seed);
    let report_key = |trace_key: &str| tier::replay_report_key(trace_key, knobs, 1, false, &cfg);
    run_cached(shared, dir, report_key, |trace, _| {
        if let Some(ChaosOp::PanicAtCheck(k)) = chaos {
            token.fire_after_checks(*k);
        }
        let report = Replayer::new(cfg.clone().cancel_token(token.clone()))
            .run(trace)
            .map_err(|e: ReplayError| RunFailure {
                transient: false,
                msg: format!("replay failed: {e}"),
            })?;
        if report.cancelled.is_some() && matches!(chaos, Some(ChaosOp::PanicAtCheck(_))) {
            panic!(
                "chaos: injected panic after {} cancellation check(s)",
                token.checks()
            );
        }
        Ok(Rendered {
            stdout: render::render_replay_report(&report),
            exit_code: 0,
            cancelled: report.cancelled,
        })
    })
}

/// Keyed as `mpgtool lint DIR`: no `--json`, `--all` or `--deny`.
fn run_lint(shared: &Shared, token: &CancelToken, dir: &Path) -> Result<Outcome, RunFailure> {
    let report_key = |trace_key: &str| tier::lint_report_key(trace_key, false, false, &[]);
    run_cached(shared, dir, report_key, |trace, artifacts| {
        let out = mpg_lint::lint_full_with(trace, artifacts, Some(token));
        let (events, ranks) = (trace.total_events(), trace.num_ranks());
        Ok(Rendered {
            stdout: render::render_lint_report(&out.diags, false, events, ranks),
            exit_code: render::lint_exit_code(&out.diags),
            cancelled: out.cancelled,
        })
    })
}

/// Keyed as `mpgtool explore DIR --budget B --seed S`.
fn run_explore(
    shared: &Shared,
    token: &CancelToken,
    dir: &Path,
    budget: u64,
    seed: u64,
) -> Result<Outcome, RunFailure> {
    let opts = mpg_lint::ExploreOptions {
        seed,
        cancel: Some(token.clone()),
        ..mpg_lint::ExploreOptions::cli_default().budget(budget)
    };
    let report_key =
        |trace_key: &str| tier::explore_report_key(trace_key, false, false, &[], &opts);
    run_cached(shared, dir, report_key, |trace, artifacts| {
        let out = mpg_lint::lint_explore(trace, &opts, artifacts);
        let (events, ranks) = (trace.total_events(), trace.num_ranks());
        Ok(Rendered {
            stdout: render::render_explore_report(&out.diags, &out.stats, false, events, ranks),
            exit_code: render::lint_exit_code(&out.diags),
            cancelled: out.cancelled,
        })
    })
}

/// Chaos `corrupt-artifact`: flip a byte in every published artifact so
/// the CRC check fails. The cache contract turns this into silent misses.
fn corrupt_cache(root: &Path) {
    let Ok(dir) = std::fs::read_dir(root) else {
        return;
    };
    for e in dir.flatten() {
        let path = e.path();
        if path.extension().is_some_and(|x| x == "mpgc") {
            if let Ok(mut bytes) = std::fs::read(&path) {
                if let Some(last) = bytes.last_mut() {
                    *last ^= 0xFF;
                    let _ = std::fs::write(&path, bytes);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_apps::{MasterWorker, Workload};
    use mpg_noise::PlatformSignature;
    use mpg_sim::Simulation;

    /// A lint or explore job that a token cuts short in its recording
    /// replay — at the first poll, at the second (one check interval in)
    /// or by a deadline already past — publishes no report, no arena and
    /// no clocks. The next job runs cold, prints the solo run's bytes and
    /// publishes all three.
    #[test]
    fn cut_short_lint_and_explore_jobs_publish_nothing() {
        let tag = format!("mpg-serve-cut-{}", std::process::id());
        let dir = std::env::temp_dir().join(format!("{tag}-trace"));
        let store_dir = std::env::temp_dir().join(format!("{tag}-store"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&store_dir);
        let mw = MasterWorker {
            tasks: 600,
            task_work: 400,
            task_bytes: 64,
            result_bytes: 32,
        };
        let trace = Simulation::new(4, PlatformSignature::quiet("svc"))
            .seed(3)
            .run(|ctx| mw.run(ctx))
            .unwrap()
            .trace;
        assert!(trace.total_events() as u64 > 2 * mpg_core::CHECK_INTERVAL);
        trace.save(&dir).unwrap();
        let store = CacheStore::open(&store_dir).unwrap();
        let rt = JobRuntime::start(RuntimeConfig {
            workers: 1,
            cache: Some(store.clone()),
            ..RuntimeConfig::default()
        });
        let cut_tokens = || {
            let first = CancelToken::new();
            first.fire_after_checks(0);
            let second = CancelToken::new();
            second.fire_after_checks(2);
            [first, second, CancelToken::with_deadline(Duration::ZERO)]
        };
        let kinds = [
            JobKind::Lint { dir: dir.clone() },
            JobKind::Explore {
                dir: dir.clone(),
                budget: 8,
                seed: 2,
            },
        ];
        for kind in &kinds {
            for token in cut_tokens() {
                let out = match kind {
                    JobKind::Lint { dir } => run_lint(&rt.shared, &token, dir),
                    JobKind::Explore { dir, budget, seed } => {
                        run_explore(&rt.shared, &token, dir, *budget, *seed)
                    }
                    JobKind::Replay { .. } => unreachable!(),
                }
                .unwrap_or_else(|f| panic!("{}", f.msg));
                assert!(
                    matches!(out.state, JobState::Cancelled | JobState::DeadlineExceeded),
                    "{kind:?}: {}",
                    out.state
                );
                assert!(out.output.is_some_and(|o| o.contains("lint:")));
                let left: Vec<String> = store.ls().into_iter().map(|e| e.key).collect();
                assert!(left.is_empty(), "{kind:?} cut short published {left:?}");
            }
        }

        let mut diags = mpg_lint::lint_full(&trace);
        mpg_trace::sort_diagnostics(&mut diags);
        let (events, ranks) = (trace.total_events(), trace.num_ranks());
        let solo_lint = render::render_lint_report(&diags, false, events, ranks);
        let opts = mpg_lint::ExploreOptions {
            seed: 2,
            ..mpg_lint::ExploreOptions::cli_default().budget(8)
        };
        let explored = mpg_lint::lint_explore(&trace, &opts, None);
        let solo_explore =
            render::render_explore_report(&explored.diags, &explored.stats, false, events, ranks);
        // The lint job publishes its report, the arena and the clocks; the
        // explore job reads the latter two and adds its report.
        let published = [
            &["arena", "hb", "report"][..],
            &["arena", "hb", "report", "report"],
        ];
        for ((kind, solo), published) in kinds
            .into_iter()
            .zip([solo_lint, solo_explore])
            .zip(published)
        {
            let id = rt.submit(JobSpec::new(kind)).unwrap();
            let st = rt.wait(id, Duration::from_secs(60)).unwrap();
            assert_eq!(st.state, JobState::Done, "{id}: {:?}", st.error);
            assert_eq!(st.output.unwrap(), solo, "{id}");
            let mut kinds: Vec<String> = store
                .ls()
                .into_iter()
                .map(|e| e.key.split('-').next().unwrap().to_string())
                .collect();
            kinds.sort();
            assert_eq!(kinds, published, "{id}");
        }
        assert_eq!(rt.stats().cache_hits, 0, "both jobs ran cold");
        assert!(rt.invariant_violations().is_empty());
        rt.shutdown(Duration::from_secs(10));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&store_dir).unwrap();
    }
}
