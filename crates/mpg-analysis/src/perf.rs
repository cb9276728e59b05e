//! `mpgtool bench`: the measurements behind `BENCH_replay.json` and the
//! one table of [`Row`]s `bench --check` holds them to.
//!
//! The paper's §4.2 claim is relative — replaying a trace is a cheap
//! streaming pass compared with analysing it — so every gate here is a
//! ratio of two walls taken seconds apart on one host, or a count, never
//! one number against a snapshot recorded on another day's host:
//!
//! - the lane-batched sweep against one scalar traversal per config, both
//!   on one thread;
//! - a strict frame-cursor drain of the pinned 10⁷-event trace against a
//!   bare decode of the same frame payloads;
//! - the out-of-core replay of that trace at 1 shard against several, and
//!   its peak-RSS growth against the trace size;
//! - a warm cached analyze of that trace against a cold one;
//! - the peak-RSS growth of a full lint of a 512-rank stencil against that
//!   of recording and analysing the same trace, and the bytes per edge of
//!   the graph it records;
//! - the peak-RSS growth of generating a long 16-rank stencil against the
//!   bytes it writes;
//! - seven pairs of child `mpgtool` verbs on one trace (`LEGS`), each
//!   timed over alternating rounds and gated on its median ratio.
//!
//! [`rows`] turns a [`PerfSnapshot`] into the table, and one loop in
//! `mpgtool bench` prints and checks every row.
//! [`PerfSnapshot::to_json`] records the 10⁷-event figures that the
//! process-level `benchmark/` runs cannot afford. Nothing reads it back.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mpg_apps::{Stencil, TokenRing, Workload};
use mpg_core::{
    cached_recorded_graph, plan_lanes, replay_batch, ArtifactKind, CacheStore, CachedReport,
    LaneBatch, PerturbationModel, ReplayConfig, Replayer,
};
use mpg_noise::{Dist, PlatformSignature};
use mpg_sim::{Simulation, StreamedRun};
use mpg_trace::codec::{get_varint, Decoder};
use mpg_trace::{FileTraceSet, MemTrace, OocTraceSet, TraceError};

/// Lane-batched over scalar configs/sec on the pinned sweep. Both sides run
/// every traversal on the calling thread, so the ratio is traversal sharing
/// alone and does not move with the CPU count. Measured 3.04× pinned to
/// 1 CPU and 3.05–3.13× on 2 CPUs. A lane
/// plan that gives every config its own batch, so each config pays its own
/// graph traversal again, reads 1.00×.
pub const SWEEP_LANES_FLOOR: f64 = 2.0;

/// Out-of-core peak-RSS growth may reach half the on-disk trace or this
/// many MiB, whichever is larger; the constant absorbs allocator noise on
/// small traces. Measured +2.6 to +5.7 MiB over the pinned 93 MiB trace. A
/// windowed replay that buffers its input grows by the trace size or more
/// (the decoded trace is ~800 MiB).
pub const OOC_RSS_CAP_MIN_MIB: f64 = 48.0;

/// Sharded over 1-shard out-of-core replay of the pinned trace, checked
/// only with [`SHARD_MIN_CPUS`] CPUs or more. Measured on 2 CPUs: 1.72–1.98×
/// at the pinned 4 shards here, and `mpgtool replay`, which streams the
/// same cursors, reads 1.79× at `--shards 2` and 1.75× at 4. Shards that serialise on one another read
/// ≤ 1×, as every run on a 1-CPU host does (0.87× recorded there).
pub const SHARD_SPEEDUP_FLOOR: f64 = 1.2;

/// CPUs from which [`SHARD_SPEEDUP_FLOOR`] is checked.
pub const SHARD_MIN_CPUS: u32 = 2;

/// Cold over warm analyze of the pinned trace. Measured 3 753–4 370× on 2
/// CPUs (19.4–23.7 s cold, ~5 ms warm): a warm run is a fingerprint and a
/// memoised-report read. The floor asks only that the cache is wired in —
/// [`measure_cache`] already fails when the warm run misses the report,
/// and a hit that still costs a third of the cold analyze is no cache.
pub const WARM_SPEEDUP_FLOOR: f64 = 3.0;

/// Strict cursor drain over bare decode of the pinned trace's frames: the
/// price of every check the cursor makes (frame CRC, whole-file CRC,
/// sequence contiguity, footer counts) on top of decoding. Measured 1.7–2.1×
/// with the slicing-by-8 kernel run once per payload byte and the whole-file
/// CRC combined from the frame CRCs; a bytewise kernel run twice per byte
/// reads 2.85–3.8×. Either restored alone reads 2.2–2.5× (bytewise, once) or
/// 1.9–2.2× (slicing-by-8, twice): inside the ratio's run-to-run movement,
/// so the ceiling does not separate them from the one fast pass.
pub const INGEST_OVER_DECODE_CEILING: f64 = 2.5;

/// Peak-RSS growth of `lint_full` over that of a recording replay plus
/// `analyze_graph` of the same 512-rank stencil ([`pinned_lint`]), both
/// in one process. A lint records the same graph and runs the same
/// analysis (pass 6), so the ratio is what lint holds beyond `analyze`:
/// the progress simulation, the happens-before index and the other
/// passes. Measured 1.25–1.30× (+75 MiB against +58–60 MiB) with the index
/// storing each rank's two neighbour columns and full clocks only on the
/// build's frontier, and the recorded graph's lean edge columns, which
/// shrink both sides (1.17–1.23×, +100–110 MiB against +86–89 MiB, with
/// the dense ones); 3.87–3.95× (+338–349 MiB) when every epoch keeps a
/// 512-wide clock pair to the end of the build.
pub const LINT_OVER_ANALYZE_RSS_CEILING: f64 = 1.5;

/// Peak-RSS growth of generating [`pinned_gen`]'s trace over the size of
/// the trace it writes. The simulator streams each rank's records into
/// its 64 KiB frame buffer and writes full frames, so it holds the rank
/// threads, the coordinator's state and one buffer per rank, however long
/// the run. Measured 1.38–1.45× (+2.6–2.7 MiB for 1.9 MiB on disk).
/// Collecting the whole trace in memory and saving it afterwards reads
/// 11.3–11.8× (+21.4–22.2 MiB).
pub const GEN_OVER_TRACE_RSS_CEILING: f64 = 4.0;

/// Heap bytes per edge of the graph [`measure_lint`] records from
/// [`pinned_lint`]'s trace, read from the arena's own accounting
/// (`GraphArena::edge_column_bytes`), so the row is a count, not a timing,
/// and reads the same on any host. A quiet recording keeps endpoints, base
/// weight and a tag byte per edge, a payload only on the edges whose class
/// has one and no sampled column: 18.75 bytes per edge measured (983 376
/// edges). The dense columns (a 16-byte class, a sampled delta and a
/// message flag per edge) held 41.
pub const GRAPH_BYTES_PER_EDGE_CEILING: f64 = 22.0;

/// The perturbation model of every out-of-core replay measurement.
fn perf_model() -> PerturbationModel {
    let mut m = PerturbationModel::quiet("perf");
    m.os_local = Dist::Exponential { mean: 500.0 }.into();
    m.latency = Dist::Exponential { mean: 700.0 }.into();
    m.per_byte = 0.05;
    m
}

/// The trace the pinned sweep replays: a blocked-heavy 16-rank token ring
/// (sendrecv chains), 76 832 events.
fn pinned_ring() -> MemTrace {
    let ring = TokenRing {
        traversals: 60,
        particles_per_rank: 2,
        work_per_pair: 1,
    };
    Simulation::new(16, PlatformSignature::quiet("perf"))
        .ideal_clocks()
        .seed(1)
        .run(|ctx| ring.run(ctx))
        .expect("pinned perf workload runs")
        .trace
}

/// The lane-path sweep measurement: K configs over one pinned trace,
/// replayed as the lane plan's batches and as one scalar traversal per
/// config, each side on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPerf {
    /// Pinned workload the sweep replays.
    pub workload: String,
    /// Config count (K).
    pub configs: u32,
    /// Lane batches the plan produced.
    pub lane_batches: u32,
    /// Graph traversals the lane plan avoided (`configs − batches`).
    pub traversals_saved: u64,
    /// Best-of-reps lane-batched throughput.
    pub configs_per_sec: f64,
    /// Best-of-reps throughput at one scalar traversal per config.
    pub scalar_configs_per_sec: f64,
}

impl SweepPerf {
    /// Lane-batched throughput over the scalar baseline.
    pub fn speedup_vs_scalar(&self) -> f64 {
        if self.scalar_configs_per_sec > 0.0 {
            self.configs_per_sec / self.scalar_configs_per_sec
        } else {
            0.0
        }
    }
}

/// Parameters of an out-of-core measurement: a synthesized stencil trace
/// replayed through the mmap-backed frame cursors, once single-threaded
/// and once partition-parallel.
#[derive(Debug, Clone, Copy)]
pub struct OocSpec {
    /// Snapshot name prefix.
    pub name: &'static str,
    /// Workload kind synthesized into the cached trace. Part of the
    /// trace-cache directory name: two specs differing only in workload
    /// must not silently reuse each other's files.
    pub workload: &'static str,
    /// Rank count.
    pub ranks: u32,
    /// Stencil iteration multiplier (`iters = 20 × scale`); event volume is
    /// roughly `ranks × 140 × scale`.
    pub scale: u64,
    /// Simulation RNG seed. Also part of the trace-cache directory name —
    /// a reused dir generated under a different seed would silently bench
    /// the wrong trace.
    pub seed: u64,
    /// Shard count of the partition-parallel run.
    pub shards: usize,
}

/// The pinned out-of-core workload: a 1024-rank stencil of ~10⁷ events
/// (~93 MiB of MPG2 frames on disk), replayed at 1 and
/// [`shards`](OocSpec::shards) shards.
pub fn pinned_ooc() -> OocSpec {
    OocSpec {
        name: "ooc-stencil-1024",
        workload: "stencil",
        ranks: 1024,
        scale: 70,
        seed: 1,
        shards: 4,
    }
}

/// One out-of-core measurement (the `"ooc"` section of
/// `BENCH_replay.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct OocPerf {
    /// Workload name ([`OocSpec::name`]).
    pub name: String,
    /// Rank count.
    pub ranks: u32,
    /// Events replayed per run.
    pub events: u64,
    /// On-disk trace size (MiB) — what a non-out-of-core replay would have
    /// to buffer, before decode expansion.
    pub trace_mib: f64,
    /// Shard count of the parallel run.
    pub shards: usize,
    /// CPUs available to this process when measured; the shard speedup is
    /// only checked from [`SHARD_MIN_CPUS`].
    pub host_cpus: u32,
    /// Best-of-reps single-shard (windowed, single-threaded) throughput.
    pub events_per_sec_1shard: f64,
    /// Best-of-reps sharded throughput.
    pub events_per_sec_sharded: f64,
    /// Resident set when the out-of-core section began (MiB).
    pub baseline_rss_mib: f64,
    /// Peak resident growth across all out-of-core replays (MiB). The flat
    /// peak-RSS claim: this must stay far below both `trace_mib` and the
    /// decoded trace size, however large the trace is.
    pub peak_rss_growth_mib: f64,
}

impl OocPerf {
    /// Sharded over single-shard wall-clock speedup.
    pub fn shard_speedup(&self) -> f64 {
        if self.events_per_sec_1shard > 0.0 {
            self.events_per_sec_sharded / self.events_per_sec_1shard
        } else {
            0.0
        }
    }
}

/// Current resident set of this process in MiB (`/proc/self/statm`);
/// `None` where procfs is unavailable (the RSS gate then passes trivially).
fn resident_mib() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096.0 / (1024.0 * 1024.0))
}

/// Runs `f` while a sampler thread tracks the process's resident set,
/// returning `(result, baseline_mib, peak_mib)`. Sampling (every ~2 ms)
/// rather than `VmHWM` is deliberate: the high-water mark is the whole
/// process's and cannot be reset per section, so it reports the largest
/// earlier section instead of the one measured — a cold cache's
/// generation of the pinned 10⁷-event trace peaks at 126–149 MiB (888 MiB
/// when the simulator collected the trace before saving it), far above
/// the few MiB the out-of-core replay adds.
fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let baseline = resident_mib().unwrap_or(0.0);
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak: f64 = 0.0;
            while !stop.load(Ordering::Relaxed) {
                if let Some(r) = resident_mib() {
                    peak = peak.max(r);
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            peak
        })
    };
    let result = f();
    stop.store(true, Ordering::Relaxed);
    let peak = sampler.join().unwrap_or(0.0).max(baseline);
    (result, baseline, peak)
}

/// The cached on-disk home of a synthesized bench trace. Generating the
/// pinned 10⁷-event trace takes 10.3–13.6 s on 2 CPUs (a thread per rank,
/// each running up to 63 posted calls ahead of the sequencer, each rank's
/// records streamed into its file a frame at a time; 13.8–15.7 s beside
/// it when the whole trace was collected in memory first), 4.4–5.8× a
/// replay of it (2.36 s), so repeated bench/gate runs reuse the files; the
/// version tag guards against stale caches across format or workload
/// changes.
fn ooc_trace_dir(spec: &OocSpec) -> PathBuf {
    // Every generation input is part of the name: two specs differing in
    // workload, size, or seed must land in different directories, or the
    // reuse check below would hand one spec the other's trace whenever the
    // rank counts happen to match.
    std::env::temp_dir().join(format!(
        "mpg-bench-ooc-v2-{}-{}x{}-s{}",
        spec.workload, spec.ranks, spec.scale, spec.seed
    ))
}

/// `spec`'s cached trace directory, if it holds a scannable trace with the
/// right rank count; it never generates one. [`measure`] generates each
/// missing pinned trace first, in a child `mpgtool gen`
/// ([`generate_cold_traces`]); the unit tests generate their miniature
/// specs in-process before calling a section.
fn cached_trace(spec: &OocSpec) -> Result<PathBuf, String> {
    let dir = ooc_trace_dir(spec);
    let set = OocTraceSet::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if set.num_ranks() != spec.ranks as usize || set.total_records() == 0 {
        return Err(format!("{}: not {}'s trace", dir.display(), spec.name));
    }
    Ok(dir)
}

/// Generates the cached traces [`measure`] reads that are missing, the
/// pinned ones and every leg's, each in a child `mpgtool gen` (for a
/// stencil, the records [`generate`] writes), so the
/// measuring process's heap never holds their simulations. Run in-process,
/// the 1024- and 512-rank simulations moved the `lint:` row of a cold
/// cache to 1.50–1.68×; from children it reads 1.14×, warm 1.17×.
fn generate_cold_traces(mpgtool: &Path) -> Result<(), String> {
    let legs = LEGS.iter().map(|leg| leg.trace);
    for spec in [pinned_ooc(), pinned_lint()].into_iter().chain(legs) {
        if cached_trace(&spec).is_ok() {
            continue;
        }
        let dir = ooc_trace_dir(&spec);
        let _ = std::fs::remove_dir_all(&dir);
        run_timed(gen_command(mpgtool, &spec, &dir, false))?;
    }
    Ok(())
}

/// `mpgtool gen` of `spec`'s trace into `dir`, spawned under `taskset -c
/// 0` when `pin` is set and `taskset` is on `PATH`. The simulator runs a
/// thread per rank, and a blocking call (a ring hop ends in one) that
/// another rank answers hands the CPU to that rank's thread once, which
/// costs less on one CPU than across two: ring 16 x 40 takes 200-290 ms
/// pinned, 510-575 ms not.
fn gen_command(mpgtool: &Path, spec: &OocSpec, dir: &Path, pin: bool) -> Command {
    let taskset = pin
        && std::env::var_os("PATH")
            .is_some_and(|p| std::env::split_paths(&p).any(|d| d.join("taskset").is_file()));
    let mut cmd = if taskset {
        let mut c = Command::new("taskset");
        c.args(["-c", "0"]).arg(mpgtool);
        c
    } else {
        Command::new(mpgtool)
    };
    cmd.args(["gen", "--workload", spec.workload])
        .args(["--ranks", &spec.ranks.to_string()])
        .args(["--scale", &spec.scale.to_string()])
        .args(["--seed", &spec.seed.to_string()])
        .arg(dir);
    cmd
}

/// Runs `cmd` with its stdout discarded and returns its wall in seconds;
/// an error unless it exits 0.
fn run_timed(mut cmd: Command) -> Result<f64, String> {
    cmd.stdout(Stdio::null());
    let t = Instant::now();
    let status = cmd.status().map_err(|e| format!("running {cmd:?}: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("{cmd:?} failed ({status})"));
    }
    Ok(secs)
}

/// Simulates `spec`'s workload, streaming its trace into `dir`.
fn generate(spec: &OocSpec, dir: &Path) -> Result<StreamedRun, String> {
    if spec.workload != "stencil" {
        return Err(format!(
            "unknown bench workload '{}' (only 'stencil' is synthesizable)",
            spec.workload
        ));
    }
    let stencil = Stencil {
        iters: (20 * spec.scale).min(u64::from(u32::MAX)) as u32,
        cells_per_rank: 2_000,
        work_per_cell: 40,
        halo_bytes: 1_024,
    };
    Simulation::new(spec.ranks, PlatformSignature::quiet("perf-ooc"))
        .seed(spec.seed)
        .run_streamed(dir, |ctx| stencil.run(ctx))
        .map_err(|e| format!("bench simulation failed: {e}"))
}

/// The workload of the generation-memory measurement: a 16-rank stencil
/// of ~2.2·10⁵ events (1.9 MiB on disk), long enough that every rank
/// writes several frames. Few ranks keep it from moving the later
/// sections' numbers: a 512-rank simulation (streamed or collected) run
/// first leaves the allocator in a state where [`measure_lint`]'s analyze
/// side grows 62–70 MiB instead of 85–88 MiB.
pub fn pinned_gen() -> OocSpec {
    OocSpec {
        name: "gen-stencil-16",
        workload: "stencil",
        ranks: 16,
        scale: 100,
        seed: 1,
        shards: 1,
    }
}

/// Trace generation's memory (the `"gen"` section of
/// `BENCH_replay.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct GenPerf {
    /// Workload name ([`OocSpec::name`]).
    pub name: String,
    /// Rank count.
    pub ranks: u32,
    /// Events written.
    pub events: u64,
    /// On-disk trace size (MiB).
    pub trace_mib: f64,
    /// Wall-clock seconds of the generation.
    pub secs: f64,
    /// Peak resident growth across the generation (MiB).
    pub rss_growth_mib: f64,
}

impl GenPerf {
    /// Peak-RSS growth over the on-disk trace size.
    pub fn growth_over_trace(&self) -> f64 {
        if self.trace_mib > 0.0 {
            self.rss_growth_mib / self.trace_mib
        } else {
            0.0
        }
    }
}

/// Generates `spec`'s trace into a fresh directory under the system temp
/// dir with the resident-set sampler running, measures the directory, and
/// removes it. [`measure`] runs this first, before any other section has
/// grown the heap: memory an earlier section freed would serve the
/// generation's allocations without growing the resident set.
pub fn measure_gen(spec: &OocSpec) -> Result<GenPerf, String> {
    let dir = std::env::temp_dir().join(format!(
        "mpg-bench-gen-{}-{}",
        spec.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let (run, base, peak) = with_peak_rss(|| generate(spec, &dir));
    let secs = start.elapsed().as_secs_f64();
    let run = run?;
    let bytes = OocTraceSet::open(&dir)
        .map_err(|e| format!("opening generated trace: {e}"))?
        .total_bytes();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing generated trace: {e}"))?;
    Ok(GenPerf {
        name: spec.name.to_string(),
        ranks: spec.ranks,
        events: run.stats.events,
        trace_mib: bytes as f64 / (1024.0 * 1024.0),
        secs,
        rss_growth_mib: (peak - base).max(0.0),
    })
}

/// Measures the out-of-core replay path: `reps` rounds of one timed replay
/// at 1 shard then one at [`OocSpec::shards`] shards over the mmap-backed
/// cursors, best of each kept, with the resident-set sampler running across
/// the whole section. Alternating the two keeps each pair of walls seconds
/// apart.
///
/// Precondition: `spec`'s trace is cached ([`measure`] caches it first).
pub fn measure_ooc(spec: &OocSpec, reps: u32) -> Result<OocPerf, String> {
    let dir = cached_trace(spec)?;
    let set = OocTraceSet::open(&dir).map_err(|e| format!("opening ooc bench trace: {e}"))?;
    let trace_mib = set.total_bytes() as f64 / (1024.0 * 1024.0);
    let replayer = Replayer::new(ReplayConfig::new(perf_model()).seed(42));
    let timed = |shards: usize| -> Result<(u64, f64), String> {
        let streams: Vec<_> = (0..set.num_ranks()).map(|r| set.cursor(r)).collect();
        let t = Instant::now();
        let rep = replayer
            .run_streams_parallel(streams, shards)
            .map_err(|e| format!("ooc bench replay failed: {e}"))?;
        Ok((rep.stats.events, t.elapsed().as_secs_f64()))
    };
    let (runs, baseline, peak) = with_peak_rss(|| {
        let (mut events, mut best_1, mut best_n) = (0, f64::INFINITY, f64::INFINITY);
        for _ in 0..reps.max(1) {
            let (n, secs) = timed(1)?;
            events = n;
            best_1 = best_1.min(secs);
            best_n = best_n.min(timed(spec.shards)?.1);
        }
        Ok::<_, String>((events, best_1, best_n))
    });
    let (events, best_1, best_n) = runs?;
    Ok(OocPerf {
        name: spec.name.to_string(),
        ranks: spec.ranks,
        events,
        trace_mib,
        shards: spec.shards,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
        events_per_sec_1shard: events as f64 / best_1,
        events_per_sec_sharded: events as f64 / best_n,
        baseline_rss_mib: baseline,
        peak_rss_growth_mib: (peak - baseline).max(0.0),
    })
}

/// Strict-ingest measurement (the `"ingest"` section of
/// `BENCH_replay.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct IngestPerf {
    /// Workload name ([`OocSpec::name`]).
    pub name: String,
    /// Records decoded per pass.
    pub events: u64,
    /// On-disk trace size (MiB).
    pub trace_mib: f64,
    /// Wall of draining every rank's strict `FrameCursor` (sum over ranks
    /// of the best rep).
    pub cursor_secs: f64,
    /// Wall of a bare `Decoder` pass over the same frame payloads, summed
    /// likewise: no CRC, no sequence or footer check.
    pub decode_secs: f64,
    /// Resident growth across `OocTraceSet::open` (MiB), ungated. The
    /// frame scan touches every page header, and fault-around maps the
    /// pages around each one, so on small rank files this is close to the
    /// whole trace — resident before any cursor runs, and so already
    /// inside the baseline the out-of-core RSS gate measures from.
    pub open_rss_growth_mib: f64,
}

impl IngestPerf {
    /// Cursor drain over bare decode.
    pub fn cursor_over_decode(&self) -> f64 {
        if self.decode_secs > 0.0 {
            self.cursor_secs / self.decode_secs
        } else {
            0.0
        }
    }
}

/// Measures strict ingest of the pinned trace: each rank file drained
/// through its [`FrameCursor`](mpg_trace::FrameCursor) and decoded bare,
/// `reps` times each, on the calling thread. The two sides alternate rank
/// by rank, which side goes first alternating too, so both see the same
/// host speed and the same cache state; each side's wall is the sum over
/// ranks of its best rep. Fails if the sides disagree on a record count.
///
/// Precondition: `spec`'s trace is cached ([`measure`] caches it first).
pub fn measure_ingest(spec: &OocSpec, reps: u32) -> Result<IngestPerf, String> {
    let dir = cached_trace(spec)?;
    let before = resident_mib();
    let set = OocTraceSet::open(&dir).map_err(|e| format!("opening ingest bench trace: {e}"))?;
    let open_rss_growth_mib = match (before, resident_mib()) {
        (Some(b), Some(a)) => (a - b).max(0.0),
        _ => 0.0,
    };
    let drain = |r: usize| -> Result<u64, TraceError> {
        let mut events = 0;
        for rec in set.cursor(r) {
            std::hint::black_box(rec?);
            events += 1;
        }
        Ok(events)
    };
    let decode = |r: usize| -> Result<u64, TraceError> {
        let bytes = set.rank_bytes(r);
        let mut decoder = Decoder::new(r as u32);
        let mut events = 0;
        for f in set.frame_index(r).frames() {
            let mut body = &bytes[f.payload_off..f.payload_off + f.payload_len];
            decoder.reset_frame(get_varint(&mut body)?);
            while let Some(rec) = decoder.decode(&mut body)? {
                std::hint::black_box(rec);
                events += 1;
            }
        }
        Ok(events)
    };
    let (mut events, mut cursor_secs, mut decode_secs) = (0, 0.0, 0.0);
    for r in 0..set.num_ranks() {
        let mut best = [f64::INFINITY; 2];
        let mut counts = [0; 2];
        for rep in 0..reps.max(1) as usize {
            for side in [(r + rep) % 2, (r + rep + 1) % 2] {
                let t = Instant::now();
                let n = if side == 0 { drain(r) } else { decode(r) }
                    .map_err(|e| format!("rank {r}: {e}"))?;
                best[side] = best[side].min(t.elapsed().as_secs_f64());
                counts[side] = n;
            }
        }
        if counts[0] != counts[1] {
            return Err(format!(
                "rank {r}: cursor drained {} records, bare decode {}",
                counts[0], counts[1]
            ));
        }
        events += counts[0];
        cursor_secs += best[0];
        decode_secs += best[1];
    }
    Ok(IngestPerf {
        name: spec.name.to_string(),
        events,
        trace_mib: set.total_bytes() as f64 / (1024.0 * 1024.0),
        cursor_secs,
        decode_secs,
        open_rss_growth_mib,
    })
}

/// Cold-vs-warm artifact-cache measurement (the `"cache"` section of
/// `BENCH_replay.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct CachePerf {
    /// Workload name ([`OocSpec::name`]).
    pub name: String,
    /// Rank count.
    pub ranks: u32,
    /// Events in the analyzed trace.
    pub events: u64,
    /// Wall time of the cold analyze (fingerprint → load → recording
    /// replay → wait-state analysis → render + publish).
    pub cold_secs: f64,
    /// Wall time of the warm analyze (fingerprint → memoized-report hit).
    pub warm_secs: f64,
}

impl CachePerf {
    /// Cold over warm wall-clock speedup.
    pub fn warm_speedup(&self) -> f64 {
        if self.warm_secs > 0.0 {
            self.cold_secs / self.warm_secs
        } else {
            0.0
        }
    }
}

/// Measures the artifact cache's warm path on the pinned out-of-core
/// trace: one cold analyze through the caching pipeline (content
/// fingerprint → full load → recording replay → wait-state analysis →
/// published MPGA arena + rendered report), then one warm analyze that
/// must hit the memoized report. One rep each — the cold leg alone is a
/// full 10⁷-event analyze, and warm-vs-cold is a ratio of wildly different
/// magnitudes, not a best-of-N contest.
///
/// Runs against a dedicated cache root (emptied first, removed after), so
/// "cold" is honest and nothing leaks into a user's cache. The warm output
/// is asserted byte-identical to the cold output before any number is
/// reported: a speedup that changes the answer is a bug, not a result.
///
/// Precondition: `spec`'s trace is cached ([`measure`] caches it first).
pub fn measure_cache(spec: &OocSpec) -> Result<CachePerf, String> {
    let dir = cached_trace(spec)?;
    let events = OocTraceSet::open(&dir)
        .map_err(|e| format!("opening cache bench trace: {e}"))?
        .total_records();
    let root = std::env::temp_dir().join(format!("mpg-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = CacheStore::open(&root).map_err(|e| format!("opening bench cache: {e}"))?;
    let analyze = |store: &CacheStore| -> Result<(String, bool), String> {
        let key = mpg_trace::trace_fingerprint(&dir)
            .map_err(|e| format!("fingerprinting cache bench trace: {e}"))?
            .key();
        let cfg = ReplayConfig::new(PerturbationModel::quiet("bench-cache"))
            .seed(0)
            .record_graph(true);
        let report_key = CacheStore::artifact_key(
            &key,
            ArtifactKind::Report,
            &format!("bench=cache-analyze;{}", cfg.fingerprint()),
        );
        if let Some(rep) = store.get_report(&report_key) {
            return Ok((rep.stdout, true));
        }
        let trace = FileTraceSet::open(&dir)
            .and_then(|s| s.load())
            .map_err(|e| format!("loading cache bench trace: {e}"))?;
        let (graph, _, _) = cached_recorded_graph(store, &key, &trace, cfg)
            .map_err(|e| format!("cache bench replay failed: {e}"))?;
        let report = mpg_lint::analyze_graph(&trace, &graph);
        let out = report.to_json();
        let _ = store.put_report(
            &report_key,
            &CachedReport {
                exit_code: 0,
                stdout: out.clone(),
            },
        );
        Ok((out, false))
    };
    let t = Instant::now();
    let cold = analyze(&store);
    let cold_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = analyze(&store);
    let warm_secs = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&root);
    let (cold_out, cold_hit) = cold?;
    let (warm_out, warm_hit) = warm?;
    if cold_hit || !warm_hit {
        return Err("cache bench: cold run hit or warm run missed the dedicated cache".into());
    }
    if cold_out != warm_out {
        return Err("cache bench: warm output diverged from cold output".into());
    }
    Ok(CachePerf {
        name: spec.name.to_string(),
        ranks: spec.ranks,
        events,
        cold_secs,
        warm_secs,
    })
}

/// The workload of the lint-memory measurement: a 512-rank stencil of
/// ~4·10⁵ events, cached in the system temp dir like the out-of-core
/// trace. Wide enough that clock rows as wide as the rank count dominate
/// a lint's memory; small enough to lint in about a second.
pub fn pinned_lint() -> OocSpec {
    OocSpec {
        name: "lint-stencil-512",
        workload: "stencil",
        ranks: 512,
        scale: 6,
        seed: 1,
        shards: 1,
    }
}

/// Lint against analyze memory (the `"lint"` section of
/// `BENCH_replay.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct LintPerf {
    /// Workload name ([`OocSpec::name`]).
    pub name: String,
    /// Rank count.
    pub ranks: u32,
    /// Events in the linted trace.
    pub events: u64,
    /// Peak resident growth of one recording replay plus `analyze_graph`
    /// (MiB).
    pub analyze_rss_growth_mib: f64,
    /// Peak resident growth of one `lint_full` (MiB).
    pub lint_rss_growth_mib: f64,
    /// Edges of the recorded graph.
    pub graph_edges: u64,
    /// Heap bytes its edge columns hold.
    pub graph_edge_bytes: u64,
}

impl LintPerf {
    /// Lint over analyze peak-RSS growth.
    pub fn lint_over_analyze(&self) -> f64 {
        if self.analyze_rss_growth_mib > 0.0 {
            self.lint_rss_growth_mib / self.analyze_rss_growth_mib
        } else {
            0.0
        }
    }

    /// Heap bytes per edge of the recorded graph.
    pub fn graph_bytes_per_edge(&self) -> f64 {
        if self.graph_edges > 0 {
            self.graph_edge_bytes as f64 / self.graph_edges as f64
        } else {
            0.0
        }
    }
}

/// Measures the peak-RSS growth of a full lint and of a recording replay
/// plus `analyze_graph` over one loaded trace, in one process, each under
/// its own `with_peak_rss` sampler. The trace is loaded once, before
/// either sampler starts.
///
/// Where it runs matters to the allocator, not to the work. Heap a stage
/// frees stays resident and serves the next stage's allocations, and glibc
/// raises its mmap threshold when a large block is freed, after which
/// multi-MiB buffers come from that heap and are not handed back. So the
/// analyze side goes after the lint (it can only read smaller, and the
/// ratio larger, for it), and [`measure`] runs this section after the
/// out-of-core ones, whose RSS growth it would otherwise hide in its
/// freed heap, and before the cold analyze, after which a lint reads
/// 1.87× instead of 1.17×. The recorded graph's edge columns are counted
/// too ([`GRAPH_BYTES_PER_EDGE_CEILING`]).
///
/// Precondition: `spec`'s trace is cached ([`measure`] caches it first).
pub fn measure_lint(spec: &OocSpec) -> Result<LintPerf, String> {
    let dir = cached_trace(spec)?;
    let trace = FileTraceSet::open(&dir)
        .and_then(|s| s.load())
        .map_err(|e| format!("loading lint bench trace: {e}"))?;
    let (diags, lint_base, lint_peak) = with_peak_rss(|| mpg_lint::lint_full(&trace));
    drop(diags);
    let cfg = ReplayConfig::new(PerturbationModel::quiet("bench-lint"))
        .seed(0)
        .ack_arm(false)
        .record_graph(true);
    let (analyzed, analyze_base, analyze_peak) = with_peak_rss(|| {
        let graph = Replayer::new(cfg)
            .run(&trace)
            .map_err(|e| format!("lint bench replay failed: {e}"))?
            .graph
            .ok_or("lint bench replay recorded no graph")?;
        let arena = graph.arena();
        let columns = (arena.num_edges(), arena.edge_column_bytes());
        mpg_lint::analyze_graph(&trace, &graph);
        Ok::<_, String>(columns)
    });
    let (graph_edges, graph_edge_bytes) = analyzed?;
    Ok(LintPerf {
        name: spec.name.to_string(),
        ranks: spec.ranks,
        events: trace.total_events() as u64,
        analyze_rss_growth_mib: (analyze_peak - analyze_base).max(0.0),
        lint_rss_growth_mib: (lint_peak - lint_base).max(0.0),
        graph_edges: graph_edges as u64,
        graph_edge_bytes: graph_edge_bytes as u64,
    })
}

/// A full measurement snapshot (what `BENCH_replay.json` holds).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSnapshot {
    /// The multi-config sweep measurement (lane-batched vs scalar).
    pub sweep: SweepPerf,
    /// The strict-ingest measurement (cursor drain vs bare decode of the
    /// pinned 10⁷-event trace).
    pub ingest: IngestPerf,
    /// The out-of-core replay measurement (mmap-backed windowed +
    /// partition-parallel path over the pinned 10⁷-event trace).
    pub ooc: OocPerf,
    /// The artifact-cache measurement (cold vs warm analyze over the same
    /// pinned trace).
    pub cache: CachePerf,
    /// The lint-memory measurement (lint vs analyze peak-RSS growth on
    /// the 512-rank stencil).
    pub lint: LintPerf,
    /// The generation-memory measurement (peak-RSS growth of generating
    /// the 16-rank stencil against its size on disk).
    pub gen: GenPerf,
    /// One row per verb leg (`LEGS`), in order. Not part of the JSON
    /// document.
    pub legs: Vec<Row>,
}

/// Config count of the pinned sweep measurement: two full lane batches'
/// worth, so the plan exercises the batch split and the acceptance target
/// (≥ 2× vs scalar at K ≥ 8) is measured past the single-batch case.
pub const SWEEP_CONFIGS: u32 = 16;

/// The pinned sweep's config set: the §6.1 headline shape — K constant
/// per-message noise levels in 100-cycle increments (E6 runs eight of
/// these) — each config its own lane. Per-lane work here is pure max-plus
/// drift arithmetic, the regime the lane bank exists to amortize;
/// sampling-heavy sweeps are timed by `benchmark/`'s `sweep_wall_s`.
pub fn sweep_configs(k: u32) -> Vec<ReplayConfig> {
    (0..k)
        .map(|i| {
            let m = PerturbationModel::per_message_constant(
                &format!("sweep-{i}"),
                f64::from(i) * 100.0,
            );
            ReplayConfig::new(m).seed(100 + u64::from(i)).ack_arm(false)
        })
        .collect()
}

/// Measures the pinned K-config sweep two ways: the lane plan's batches,
/// and one scalar traversal per config. Both sides replay every batch in
/// turn on the calling thread — `sweep_replays` would spread the plan's
/// few batches over fewer workers than the K singletons, and the ratio
/// would then move with the CPU count. One warmup each, then `reps` rounds
/// of one pass per side, keeping the best of each (noise on shared machines
/// only ever slows a run down).
pub fn measure_sweep(reps: u32) -> SweepPerf {
    let trace = pinned_ring();
    let configs = sweep_configs(SWEEP_CONFIGS);
    let plans = [
        plan_lanes(&configs),
        (0..configs.len())
            .map(|i| LaneBatch { members: vec![i] })
            .collect(),
    ];
    let pass = |plan: &[LaneBatch]| {
        let t = Instant::now();
        for batch in plan {
            std::hint::black_box(replay_batch(&trace, &configs, batch));
        }
        t.elapsed().as_secs_f64()
    };
    for plan in &plans {
        pass(plan);
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps.max(1) {
        for (slot, plan) in plans.iter().enumerate() {
            best[slot] = best[slot].min(pass(plan));
        }
    }
    SweepPerf {
        workload: "token-ring-16".to_string(),
        configs: SWEEP_CONFIGS,
        lane_batches: plans[0].len() as u32,
        traversals_saved: (configs.len() - plans[0].len()) as u64,
        configs_per_sec: f64::from(SWEEP_CONFIGS) / best[0],
        scalar_configs_per_sec: f64::from(SWEEP_CONFIGS) / best[1],
    }
}

/// Takes every section of the snapshot: first the generation of the
/// 16-rank stencil, while no section has grown the heap yet
/// ([`measure_gen`] says why; `mpgtool` generates the missing cached
/// traces beforehand, in children), then the sweep at `reps` rounds, the
/// ingest and out-of-core replay of the pinned 10⁷-event trace at `reps`
/// capped to 3 (each rep reads ~10⁷ events twice, so the gate stays
/// minutes-scale), one lint and one analyze of the 512-rank stencil
/// ([`measure_lint`] says why here), one cold and one warm analyze of
/// the pinned trace, and last the verb legs at `reps` rounds each, in
/// child processes.
pub fn measure(reps: u32, mpgtool: &Path) -> Result<PerfSnapshot, String> {
    generate_cold_traces(mpgtool)?;
    let gen = measure_gen(&pinned_gen()).map_err(|e| format!("gen bench: {e}"))?;
    let sweep = measure_sweep(reps);
    let spec = pinned_ooc();
    let ingest = measure_ingest(&spec, reps.min(3)).map_err(|e| format!("ingest bench: {e}"))?;
    let ooc = measure_ooc(&spec, reps.min(3)).map_err(|e| format!("ooc bench: {e}"))?;
    let lint = measure_lint(&pinned_lint()).map_err(|e| format!("lint bench: {e}"))?;
    let cache = measure_cache(&spec).map_err(|e| format!("cache bench: {e}"))?;
    let legs = LEGS
        .iter()
        .map(|leg| measure_leg(leg, mpgtool, reps).map_err(|e| format!("{}: {e}", leg.name)))
        .collect::<Result<_, _>>()?;
    Ok(PerfSnapshot {
        sweep,
        ingest,
        ooc,
        cache,
        lint,
        gen,
        legs,
    })
}

/// One `"name": { "key": value, … }` object of the snapshot document;
/// string values arrive already quoted.
fn json_block(name: &str, fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    format!("  \"{name}\": {{\n{}\n  }}", body.join(",\n"))
}

/// `x` with `prec` decimals.
fn num(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

impl PerfSnapshot {
    /// Renders the snapshot as the `BENCH_replay.json` document: one block
    /// per section.
    pub fn to_json(&self) -> String {
        let (s, i, o, c, l, g) = (
            &self.sweep,
            &self.ingest,
            &self.ooc,
            &self.cache,
            &self.lint,
            &self.gen,
        );
        let blocks = [
            json_block(
                "sweep",
                &[
                    ("workload", format!("\"{}\"", s.workload)),
                    ("configs", s.configs.to_string()),
                    ("lane_batches", s.lane_batches.to_string()),
                    ("traversals_saved", s.traversals_saved.to_string()),
                    ("configs_per_sec", num(s.configs_per_sec, 1)),
                    ("scalar_configs_per_sec", num(s.scalar_configs_per_sec, 1)),
                    ("speedup_vs_scalar", num(s.speedup_vs_scalar(), 2)),
                ],
            ),
            json_block(
                "ingest",
                &[
                    ("name", format!("\"{}\"", i.name)),
                    ("events", i.events.to_string()),
                    ("trace_mib", num(i.trace_mib, 1)),
                    ("cursor_secs", num(i.cursor_secs, 3)),
                    ("decode_secs", num(i.decode_secs, 3)),
                    ("cursor_over_decode", num(i.cursor_over_decode(), 2)),
                    ("open_rss_growth_mib", num(i.open_rss_growth_mib, 1)),
                ],
            ),
            json_block(
                "ooc",
                &[
                    ("name", format!("\"{}\"", o.name)),
                    ("ranks", o.ranks.to_string()),
                    ("events", o.events.to_string()),
                    ("trace_mib", num(o.trace_mib, 1)),
                    ("shards", o.shards.to_string()),
                    ("host_cpus", o.host_cpus.to_string()),
                    ("events_per_sec_1shard", num(o.events_per_sec_1shard, 0)),
                    ("events_per_sec_sharded", num(o.events_per_sec_sharded, 0)),
                    ("shard_speedup", num(o.shard_speedup(), 2)),
                    ("baseline_rss_mib", num(o.baseline_rss_mib, 1)),
                    ("peak_rss_growth_mib", num(o.peak_rss_growth_mib, 1)),
                ],
            ),
            json_block(
                "cache",
                &[
                    ("name", format!("\"{}\"", c.name)),
                    ("ranks", c.ranks.to_string()),
                    ("events", c.events.to_string()),
                    ("cold_secs", num(c.cold_secs, 3)),
                    ("warm_secs", num(c.warm_secs, 4)),
                    ("warm_speedup", num(c.warm_speedup(), 1)),
                ],
            ),
            json_block(
                "lint",
                &[
                    ("name", format!("\"{}\"", l.name)),
                    ("ranks", l.ranks.to_string()),
                    ("events", l.events.to_string()),
                    ("analyze_rss_growth_mib", num(l.analyze_rss_growth_mib, 1)),
                    ("lint_rss_growth_mib", num(l.lint_rss_growth_mib, 1)),
                    ("lint_over_analyze", num(l.lint_over_analyze(), 2)),
                    ("graph_edges", l.graph_edges.to_string()),
                    ("graph_bytes_per_edge", num(l.graph_bytes_per_edge(), 2)),
                ],
            ),
            json_block(
                "gen",
                &[
                    ("name", format!("\"{}\"", g.name)),
                    ("ranks", g.ranks.to_string()),
                    ("events", g.events.to_string()),
                    ("trace_mib", num(g.trace_mib, 1)),
                    ("secs", num(g.secs, 3)),
                    ("rss_growth_mib", num(g.rss_growth_mib, 1)),
                    ("growth_over_trace", num(g.growth_over_trace(), 2)),
                ],
            ),
        ];
        format!("{{\n{}\n}}\n", blocks.join(",\n"))
    }
}

/// Which side of its bound a [`Row`]'s value must stay on. Both are
/// inclusive: a value at the bound holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A floor: the value must be at least this.
    AtLeast(f64),
    /// A ceiling: the value must be at most this.
    AtMost(f64),
}

/// One row of the `bench --check` table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What the row measures.
    pub name: String,
    /// The measured value: a ratio, a MiB growth or a count; the median
    /// per-round ratio for a timed row.
    pub value: f64,
    /// The bound the value must stay within.
    pub bound: Bound,
    /// Whether this host can show what the row gates; an unarmed row is
    /// printed and never fails.
    pub armed: bool,
    /// The least and greatest per-round ratio of a timed row.
    pub spread: Option<(f64, f64)>,
}

impl Row {
    fn new(name: impl Into<String>, value: f64, bound: Bound) -> Self {
        Row {
            name: name.into(),
            value,
            bound,
            armed: true,
            spread: None,
        }
    }

    /// False when the row is armed and its value is past its bound (or
    /// not a number).
    pub fn holds(&self) -> bool {
        !self.armed
            || match self.bound {
                Bound::AtLeast(b) => self.value >= b,
                Bound::AtMost(b) => self.value <= b,
            }
    }

    /// The row's line of `bench` output: verdict, name, value, bound and,
    /// for a timed row, the min–max over its rounds.
    pub fn line(&self) -> String {
        let verdict = match (self.armed, self.holds()) {
            (false, _) => "off ",
            (true, true) => "ok  ",
            (true, false) => "FAIL",
        };
        let (op, bound) = match self.bound {
            Bound::AtLeast(b) => (">=", b),
            Bound::AtMost(b) => ("<=", b),
        };
        let mut line = format!(
            "{verdict} {:<52} {:>8.2} {op} {bound:.2}",
            self.name, self.value
        );
        if let Some((lo, hi)) = self.spread {
            line.push_str(&format!("  median, rounds {lo:.2}-{hi:.2}"));
        }
        line
    }
}

/// The table `bench --check` holds `snap` to: one row per in-process
/// measurement, in the order [`measure`] takes them, then one per leg.
pub fn rows(snap: &PerfSnapshot) -> Vec<Row> {
    let (s, i, o, c, l, g) = (
        &snap.sweep,
        &snap.ingest,
        &snap.ooc,
        &snap.cache,
        &snap.lint,
        &snap.gen,
    );
    let shards = Row {
        armed: o.host_cpus >= SHARD_MIN_CPUS && o.shards >= 2,
        ..Row::new(
            format!("ooc: {} shards / 1, on {} cpu(s)", o.shards, o.host_cpus),
            o.shard_speedup(),
            Bound::AtLeast(SHARD_SPEEDUP_FLOOR),
        )
    };
    let mut rows = vec![
        Row::new(
            format!("sweep: lanes / scalar configs/sec, {}", s.workload),
            s.speedup_vs_scalar(),
            Bound::AtLeast(SWEEP_LANES_FLOOR),
        ),
        Row::new(
            "ingest: strict cursor drain / bare decode",
            i.cursor_over_decode(),
            Bound::AtMost(INGEST_OVER_DECODE_CEILING),
        ),
        Row::new(
            format!("ooc: peak RSS growth MiB, {:.0} MiB trace", o.trace_mib),
            o.peak_rss_growth_mib,
            Bound::AtMost((0.5 * o.trace_mib).max(OOC_RSS_CAP_MIN_MIB)),
        ),
        shards,
        Row::new(
            "cache: cold / warm analyze",
            c.warm_speedup(),
            Bound::AtLeast(WARM_SPEEDUP_FLOOR),
        ),
        Row::new(
            format!("lint: peak RSS growth / analyze's, {}", l.name),
            l.lint_over_analyze(),
            Bound::AtMost(LINT_OVER_ANALYZE_RSS_CEILING),
        ),
        Row::new(
            format!("graph: bytes per recorded edge, {}", l.name),
            l.graph_bytes_per_edge(),
            Bound::AtMost(GRAPH_BYTES_PER_EDGE_CEILING),
        ),
        Row::new(
            format!("gen: peak RSS growth / trace size, {}", g.name),
            g.growth_over_trace(),
            Bound::AtMost(GEN_OVER_TRACE_RSS_CEILING),
        ),
    ];
    rows.extend(snap.legs.iter().cloned());
    rows
}

/// One side of a [`Leg`]: a child `mpgtool` run.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// `mpgtool VERB TRACE FLAGS…` on the leg's cached trace.
    Verb(&'static str, &'static [&'static str]),
    /// `mpgtool gen` of the leg's trace into a fresh directory, pinned
    /// to one CPU ([`gen_command`] says why).
    Gen,
}

/// A same-host ratio of two child `mpgtool` runs on one trace: `num`'s
/// wall over `den`'s may be at most `bound`.
#[derive(Debug, Clone, Copy)]
struct Leg {
    /// Row name.
    name: &'static str,
    /// The trace both sides read, cached like [`pinned_ooc`]'s; a
    /// [`Side::Gen`] writes a copy of it.
    trace: OocSpec,
    /// The numerator run.
    num: Side,
    /// The denominator run.
    den: Side,
    /// The ceiling on the median ratio.
    bound: f64,
}

/// A [`Leg`]'s trace: `workload` on `ranks` ranks at `scale`, `gen`'s
/// default seed.
const fn leg_trace(name: &'static str, workload: &'static str, ranks: u32, scale: u64) -> OocSpec {
    OocSpec {
        name,
        workload,
        ranks,
        scale,
        seed: 1,
        shards: 1,
    }
}

const STENCIL_256: OocSpec = leg_trace("stencil-256x4", "stencil", 256, 4);
const RING_16: OocSpec = leg_trace("ring-16x40", "ring", 16, 40);
const STENCIL_128: OocSpec = leg_trace("stencil-128x3", "stencil", 128, 3);
const MASTER_WORKER_8: OocSpec = leg_trace("master-worker-8x24", "master-worker", 8, 24);

const REPLAY: Side = Side::Verb("replay", &[]);
const ANALYZE: Side = Side::Verb("analyze", &["--json"]);
const LINT: Side = Side::Verb("lint", &["--all"]);

/// The verb legs, each timed by [`measure_leg`].
const LEGS: [Leg; 7] = [
    // ROADMAP aim 1's target as a check: a cold `analyze` may cost at most
    // 10x the replay of the same trace, which streams it out of core.
    // Measured 4.3-4.7x; a CSR build per rank or a hash per node touch on
    // the analyze path puts it at 20x.
    Leg {
        name: "analyze --json / replay, stencil 256x4",
        trace: STENCIL_256,
        num: ANALYZE,
        den: REPLAY,
        bound: 10.0,
    },
    // The simulator against the replay of what it writes: pinned `gen` of
    // that stencil may cost at most 9.5x `replay` of the trace it writes,
    // the two timed in alternation. Measured 3.5-5.8x (127-194 ms over
    // 29-45 ms): a rank posts every call whose result it already knows,
    // and every call of this workload is one, so the only blocking calls
    // left are the run-ahead cap's; the tracer encodes each record into
    // its rank's frame buffer as it is released and writes full frames.
    // With a channel round trip per call it read 26-37x. The bound was 12x
    // while `gen` collected the whole trace in memory and saved it
    // afterwards (4.9-8.3x beside the streamed runs); streaming made `gen`
    // 0.79x as long in median over 11 alternating pairs, and 12 x 0.79 =
    // 9.5.
    Leg {
        name: "gen (pinned) / replay, stencil 256x4",
        trace: STENCIL_256,
        num: Side::Gen,
        den: REPLAY,
        bound: 9.5,
    },
    // The same for a ring, where every hop ends in a blocking `wait`:
    // pinned `gen` of ring 16 x 40 may cost at most 7.5x `replay` of the
    // trace it writes, timed in alternation. Measured 5.3-6.9x (206-290 ms
    // over 31-48 ms): the rank whose call leaves no rank running takes the
    // coordinator's decisions itself, so a blocking call costs at most one
    // thread switch. With a coordinator thread, each one cost a switch
    // there and one back: 13-16x (555-679 ms) over the same replay. The
    // bound was 9x while `gen` collected the whole trace and saved it
    // afterwards (5.8-9.05x beside the streamed runs, 268-366 ms);
    // streaming made `gen` 0.81x as long in median over 11 alternating
    // pairs, and 9 x 0.81 = 7.3, rounded up to 7.5.
    Leg {
        name: "gen (pinned) / replay, ring 16x40",
        trace: RING_16,
        num: Side::Gen,
        den: REPLAY,
        bound: 7.5,
    },
    // The lint passes on a long ring (16 ranks, 256 032 events, 3 200
    // eager messages per receiver): `lint --all` may cost at most 1.75x
    // the `analyze --json` of the same trace — both build the same
    // recorded graph, so the ratio is what the passes add. Measured
    // 1.0-1.2x; a pass that asks happens-before once per (receive, send)
    // pair of a receiver puts it at 2.3-2.6x here, and further with every
    // doubling of the trace, because that cost is quadratic.
    Leg {
        name: "lint --all / analyze --json, ring 16x40",
        trace: RING_16,
        num: LINT,
        den: ANALYZE,
        bound: 1.75,
    },
    // The rank-proportional path: the benchmark's 128-rank stencil (53 776
    // events, few per rank), where per-event happens-before work grows
    // with the rank count. `lint --all` may cost at most 2.5x `analyze
    // --json`. Measured 1.16-1.38x, and 1.54-1.61x at 512 ranks x6. A
    // clock per node instead of per epoch (DESIGN.md 12.1) spent 205 ms
    // building the happens-before index of this trace against a ~40 ms
    // analyze, about 6x.
    Leg {
        name: "lint --all / analyze --json, stencil 128x3",
        trace: STENCIL_128,
        num: LINT,
        den: ANALYZE,
        bound: 2.5,
    },
    // Pass 4 itself, where its cost would show: the same generator at
    // scale 24 (7 710 events, 1 536 wildcard receives, 9 216 race
    // candidates). `lint --all` may cost at most 10x the `analyze --json`
    // of the trace. Measured 3.0-3.2x (24-25 ms over 8 ms): a candidate
    // costs the couple of dozen simulation steps between the point where
    // its plan first matters and the point where both swapped receives
    // have matched. Run to the last event and carrying the logs, a
    // candidate costs in proportion to the trace and the pass grows with
    // its square: 137x here (1 094 ms), 9x at scale 6.
    Leg {
        name: "lint --all / analyze --json, master-worker 8x24",
        trace: MASTER_WORKER_8,
        num: LINT,
        den: ANALYZE,
        bound: 10.0,
    },
    // The pass-8 walk on the same trace: `explore` is the full lint plus
    // the explorer, so `explore --budget 32` may cost at most 4x `lint
    // --all`. Measured 2.8-3.4x (98-125 ms over 30-43 ms): 32 forced
    // replays, 33 makespan passes, a candidate sweep per replay and
    // 302 610 extensions, of which only the first 32 scheduled are
    // stored; the rest are 20-byte records counted once when the walk
    // stops (DESIGN.md 16.1). A frontier that stored, sorted and probed
    // every extension read 4.8-5.9x here (167-208 ms). Timed as three
    // explores and then three lints, the same two binaries read 2.8-4.3x
    // and 4.2-7.7x: the blocks can land on different host speed levels.
    // As the best of three alternating rounds of each verb it still read
    // 4.6-4.7x in about one run in eight: each best wall can come from
    // another round, and a millisecond of the ~25 ms lint moves the ratio
    // by 0.2. On the scale-6 trace (1 950 events, 8 ms of lint) one
    // millisecond tick moves the ratio by 0.4, and the two frontiers read
    // 3.7-4.2x and 2.3-2.9x there.
    Leg {
        name: "explore --budget 32 / lint --all, master-worker 8x24",
        trace: MASTER_WORKER_8,
        num: Side::Verb("explore", &["--budget", "32"]),
        den: LINT,
        bound: 4.0,
    },
];

/// Times `leg` over `reps` rounds of its two runs, the side that goes
/// first alternating from round to round, and returns its row: the median
/// per-round ratio against the bound, with the least and greatest. The
/// host has two speed levels about 30 % apart that last seconds to
/// minutes, so a round's two walls are taken back to back and the ratio
/// of each round, not the best wall of each side, is what counts: a best
/// wall can come from a round on the other level, and one such round sets
/// a best-of ratio, where the median needs half the rounds.
///
/// Precondition: the leg's trace is cached ([`measure`] caches it first).
fn measure_leg(leg: &Leg, mpgtool: &Path, reps: u32) -> Result<Row, String> {
    let trace = cached_trace(&leg.trace)?;
    let out = std::env::temp_dir().join(format!("mpg-bench-leg-{}", std::process::id()));
    let run = |side: Side| match side {
        Side::Verb(verb, flags) => {
            let mut cmd = Command::new(mpgtool);
            cmd.arg(verb).arg(&trace).args(flags);
            run_timed(cmd)
        }
        Side::Gen => {
            let _ = std::fs::remove_dir_all(&out);
            run_timed(gen_command(mpgtool, &leg.trace, &out, true))
        }
    };
    let ratios = (0..reps.max(1))
        .map(|round| {
            let (num, den) = if round % 2 == 0 {
                let num = run(leg.num)?;
                (num, run(leg.den)?)
            } else {
                let den = run(leg.den)?;
                (run(leg.num)?, den)
            };
            Ok(num / den)
        })
        .collect::<Result<_, String>>();
    let _ = std::fs::remove_dir_all(&out);
    Ok(leg_row(leg, ratios?))
}

/// `leg`'s row over its per-round ratios: the median against the bound.
fn leg_row(leg: &Leg, mut ratios: Vec<f64>) -> Row {
    ratios.sort_by(f64::total_cmp);
    Row {
        spread: Some((ratios[0], ratios[ratios.len() - 1])),
        ..Row::new(leg.name, ratios[ratios.len() / 2], Bound::AtMost(leg.bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot inside the measured ranges the bounds' comments quote.
    /// Every ratio's denominator is 1, so a row reads exactly the value a
    /// test writes into its numerator.
    fn measured() -> PerfSnapshot {
        PerfSnapshot {
            sweep: SweepPerf {
                workload: "token-ring-16".into(),
                configs: 16,
                lane_batches: 2,
                traversals_saved: 14,
                configs_per_sec: 3.04,
                scalar_configs_per_sec: 1.0,
            },
            ingest: IngestPerf {
                name: "ingest-test".into(),
                events: 10_000_000,
                trace_mib: 93.4,
                cursor_secs: 1.9,
                decode_secs: 1.0,
                open_rss_growth_mib: 95.0,
            },
            ooc: OocPerf {
                name: "ooc-test".into(),
                ranks: 1024,
                events: 10_000_000,
                trace_mib: 93.4,
                shards: 4,
                host_cpus: 2,
                events_per_sec_1shard: 1.0,
                events_per_sec_sharded: 1.72,
                baseline_rss_mib: 800.0,
                peak_rss_growth_mib: 5.7,
            },
            cache: CachePerf {
                name: "cache-test".into(),
                ranks: 1024,
                events: 10_000_000,
                cold_secs: 3753.0,
                warm_secs: 1.0,
            },
            lint: LintPerf {
                name: "lint-test".into(),
                ranks: 512,
                events: 430_000,
                analyze_rss_growth_mib: 1.0,
                lint_rss_growth_mib: 1.28,
                graph_edges: 1_000,
                graph_edge_bytes: 18_750,
            },
            gen: GenPerf {
                name: "gen-test".into(),
                ranks: 16,
                events: 216_032,
                trace_mib: 1.0,
                secs: 0.3,
                rss_growth_mib: 1.45,
            },
            // One ratio per leg, inside the range its comment quotes.
            legs: LEGS
                .iter()
                .zip([4.5, 4.6, 6.1, 1.1, 1.3, 3.1, 3.3])
                .map(|(leg, x)| leg_row(leg, vec![x; 9]))
                .collect(),
        }
    }

    /// Row `i` of the table over the measured snapshot changed by `set`.
    fn row(i: usize, set: impl FnOnce(&mut PerfSnapshot)) -> Row {
        let mut snap = measured();
        set(&mut snap);
        rows(&snap).swap_remove(i)
    }

    /// Row `i` of the table when the quantity it reads is `x`; nine rounds
    /// of `x` for a leg.
    fn row_at(i: usize, x: f64) -> Row {
        row(i, |s| match i {
            0 => s.sweep.configs_per_sec = x,
            1 => s.ingest.cursor_secs = x,
            2 => s.ooc.peak_rss_growth_mib = x,
            3 => s.ooc.events_per_sec_sharded = x,
            4 => s.cache.cold_secs = x,
            5 => s.lint.lint_rss_growth_mib = x,
            6 => s.lint.graph_edge_bytes = (x * 1_000.0).round() as u64,
            7 => s.gen.rss_growth_mib = x,
            _ => s.legs[i - 8] = leg_row(&LEGS[i - 8], vec![x; 9]),
        })
    }

    #[test]
    fn every_row_passes_at_its_bound_and_fails_just_past_it() {
        use Bound::{AtLeast, AtMost};
        let table = rows(&measured());
        let bounds: Vec<Bound> = table.iter().map(|row| row.bound).collect();
        let expected = [
            AtLeast(2.0),
            AtMost(2.5),
            AtMost(48.0),
            AtLeast(1.2),
            AtLeast(3.0),
            AtMost(1.5),
            AtMost(22.0),
            AtMost(4.0),
            AtMost(10.0),
            AtMost(9.5),
            AtMost(7.5),
            AtMost(1.75),
            AtMost(2.5),
            AtMost(10.0),
            AtMost(4.0),
        ];
        assert_eq!(bounds, expected);
        for (i, row) in table.iter().enumerate() {
            let (limit, past) = match row.bound {
                AtLeast(b) => (b, b * 0.999),
                AtMost(b) => (b, b * 1.001),
            };
            let at = row_at(i, limit);
            assert_eq!((at.value, &at.name), (limit, &row.name));
            assert!(at.holds(), "{}", at.line());
            let past = row_at(i, past);
            assert!(past.line().starts_with("FAIL "), "{}", past.line());
        }
        // The shard row on one CPU is unarmed: no speedup fails it.
        let one_cpu = row(3, |s| {
            (s.ooc.host_cpus, s.ooc.events_per_sec_sharded) = (1, 0.0)
        });
        assert!(one_cpu.line().starts_with("off "), "{}", one_cpu.line());
        // A leg gates the median round and prints the least and greatest.
        let rounds = |past: usize| {
            let mut r = vec![3.3; 9 - past];
            r.extend(vec![6.75; past]);
            leg_row(&LEGS[6], r)
        };
        let line = rounds(4).line();
        assert!(
            line.starts_with("ok ") && line.ends_with("median, rounds 3.30-6.75"),
            "{line}"
        );
        assert!(!rounds(5).holds());
    }

    #[test]
    fn ooc_rss_cap_is_half_the_trace_or_48_mib() {
        let rss = |trace_mib, growth| {
            row(2, |s| {
                (s.ooc.trace_mib, s.ooc.peak_rss_growth_mib) = (trace_mib, growth)
            })
            .holds()
        };
        // Measured: up to +5.7 MiB over the pinned 93 MiB trace.
        assert!(rss(93.4, 5.7));
        // Half a 200 MiB trace is the cap.
        assert!(rss(200.0, 99.9));
        assert!(!rss(200.0, 100.1));
        // On a small trace the 48 MiB constant is.
        assert!(rss(10.0, 47.9));
        assert!(!rss(10.0, 48.1));
    }

    #[test]
    fn shard_floor_is_armed_from_2_cpus() {
        let shards = |speedup, cpus| {
            row(3, |s| {
                (s.ooc.events_per_sec_sharded, s.ooc.host_cpus) = (speedup, cpus)
            })
        };
        assert!(shards(1.72, 2).holds());
        assert!(!shards(1.19, 2).holds());
        // One CPU serialises the shards: the 0.87x it recorded is no finding.
        let one = shards(0.87, 1);
        assert!(!one.armed && one.holds());
    }

    #[test]
    fn warm_floor_is_3x_on_any_host() {
        let warm = row(4, |s| (s.ooc.host_cpus, s.cache.cold_secs) = (1, 2.99));
        assert!(warm.armed && !warm.holds(), "{}", warm.line());
    }

    #[test]
    fn check_holds_every_section() {
        let table = rows(&measured());
        assert_eq!(table.len(), 8 + LEGS.len());
        assert!(table.iter().all(Row::holds));
    }

    #[test]
    fn measure_smoke() {
        // One rep of the pinned sweep: sane, internally consistent numbers.
        let sweep = measure_sweep(1);
        assert_eq!(sweep.configs, SWEEP_CONFIGS);
        assert_eq!(
            u64::from(sweep.configs),
            u64::from(sweep.lane_batches) + sweep.traversals_saved
        );
        assert!(sweep.configs_per_sec > 0.0 && sweep.scalar_configs_per_sec > 0.0);
    }

    /// Meets the sections' precondition for a miniature spec that
    /// [`measure`] never generates: `spec`'s trace in its cached directory.
    /// A missing one is generated in-process (a unit test cannot reach the
    /// `mpgtool` binary; at 4–8 ranks × scale 1 the simulation leaves no
    /// heap worth keeping out of the process) into a per-process sibling,
    /// then renamed into place, so two test processes sharing one temp dir
    /// never read a half-written trace. A rename that loses to a finished
    /// trace keeps that one and removes its own.
    fn ensure_cached_trace(spec: &OocSpec) {
        if cached_trace(spec).is_ok() {
            return;
        }
        let dir = ooc_trace_dir(spec);
        let mut tmp = dir.clone().into_os_string();
        tmp.push(format!(".tmp-{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let _ = std::fs::remove_dir_all(&tmp);
        generate(spec, &tmp).expect("generating the miniature trace");
        for _ in 0..2 {
            if std::fs::rename(&tmp, &dir).is_ok() {
                return;
            }
            if cached_trace(spec).is_ok() {
                std::fs::remove_dir_all(&tmp).expect("removing the losing trace");
                return;
            }
            // A stale directory that is not a finished trace: clear it
            // and retry the rename once.
            let _ = std::fs::remove_dir_all(&dir);
        }
        panic!("cannot move {} to {}", tmp.display(), dir.display());
    }

    #[test]
    fn measure_cache_smoke() {
        // A miniature spec: cold populates the dedicated cache, warm hits
        // it, outputs match (measure_cache errors otherwise).
        let spec = OocSpec {
            name: "cache-smoke",
            workload: "stencil",
            ranks: 4,
            scale: 1,
            seed: 3,
            shards: 1,
        };
        ensure_cached_trace(&spec);
        let perf = measure_cache(&spec).expect("cache measurement");
        assert_eq!(perf.ranks, 4);
        assert!(perf.events > 0);
        assert!(perf.cold_secs > 0.0 && perf.warm_secs > 0.0);
    }

    #[test]
    fn measure_lint_smoke() {
        let spec = OocSpec {
            name: "lint-smoke",
            workload: "stencil",
            ranks: 4,
            scale: 1,
            seed: 5,
            shards: 1,
        };
        ensure_cached_trace(&spec);
        let perf = measure_lint(&spec).expect("lint measurement");
        assert_eq!(perf.ranks, 4);
        assert!(perf.events > 0);
        assert!(perf.lint_rss_growth_mib >= 0.0 && perf.analyze_rss_growth_mib >= 0.0);
        assert!(perf.graph_edges > 0);
        assert!(
            perf.graph_bytes_per_edge() <= GRAPH_BYTES_PER_EDGE_CEILING,
            "{perf:?}"
        );
    }

    #[test]
    fn measure_gen_smoke() {
        let spec = OocSpec {
            name: "gen-smoke",
            workload: "stencil",
            ranks: 4,
            scale: 1,
            seed: 6,
            shards: 1,
        };
        let perf = measure_gen(&spec).expect("gen measurement");
        assert_eq!(perf.ranks, 4);
        assert!(perf.events > 0 && perf.trace_mib > 0.0 && perf.secs > 0.0);
        assert!(perf.rss_growth_mib >= 0.0);
    }

    #[test]
    fn measure_ingest_smoke() {
        let spec = OocSpec {
            name: "ingest-smoke",
            workload: "stencil",
            ranks: 4,
            scale: 1,
            seed: 4,
            shards: 1,
        };
        ensure_cached_trace(&spec);
        let perf = measure_ingest(&spec, 1).expect("ingest measurement");
        assert!(perf.events > 0);
        assert!(perf.cursor_secs > 0.0 && perf.decode_secs > 0.0);
        assert!(perf.open_rss_growth_mib >= 0.0);
    }

    #[test]
    fn measure_ooc_smoke() {
        // A miniature spec (distinct cache dir from the pinned one): the
        // full mmap → windowed replay → sharded replay → RSS-sample path.
        let spec = OocSpec {
            name: "ooc-smoke",
            workload: "stencil",
            ranks: 8,
            scale: 1,
            seed: 1,
            shards: 2,
        };
        ensure_cached_trace(&spec);
        let perf = measure_ooc(&spec, 1).expect("ooc measurement");
        assert_eq!(perf.ranks, 8);
        assert!(perf.events > 0);
        assert!(perf.trace_mib > 0.0);
        assert!(perf.events_per_sec_1shard > 0.0 && perf.events_per_sec_sharded > 0.0);
        assert!(perf.peak_rss_growth_mib >= 0.0);
        // Cached trace reuse: a second measurement opens the same files.
        let again = measure_ooc(&spec, 1).expect("cached ooc measurement");
        assert_eq!(again.events, perf.events);
    }
}
