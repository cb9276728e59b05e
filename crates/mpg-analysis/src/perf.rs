//! `mpgtool bench`: the measurements behind `BENCH_replay.json` and the
//! floors `bench --check` holds them to.
//!
//! The paper's §4.2 claim is relative — replaying a trace is a cheap
//! streaming pass compared with analysing it — so every gate here is a
//! ratio of two walls taken seconds apart in one process, never one
//! number against a snapshot recorded on another day's host:
//!
//! - the lane-batched sweep against one scalar traversal per config, both
//!   on one thread;
//! - a strict frame-cursor drain of the pinned 10⁷-event trace against a
//!   bare decode of the same frame payloads;
//! - the out-of-core replay of that trace at 1 shard against several, and
//!   its peak-RSS growth against the trace size;
//! - a warm cached analyze of that trace against a cold one.
//!
//! [`PerfSnapshot::to_json`] records the 10⁷-event figures that the
//! process-level `benchmark/` runs cannot afford. Nothing reads it back.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mpg_apps::{Stencil, TokenRing, Workload};
use mpg_core::{
    cached_recorded_graph, plan_lanes, replay_batch, ArtifactKind, CacheStore, CachedReport,
    LaneBatch, PerturbationModel, ReplayConfig, Replayer,
};
use mpg_noise::{Dist, PlatformSignature};
use mpg_sim::Simulation;
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
/// at the pinned 4 shards here, and `mpgtool replay --ooc` reads 1.79× at
/// 2 shards and 1.75× at 4. Shards that serialise on one another read
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
/// rather than `VmHWM` is deliberate: the high-water mark remembers the
/// trace *generation* phase, which would mask any growth the replay adds.
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
/// pinned 10⁷-event trace takes 10.5–11 s on 2 CPUs (a thread per rank,
/// each running up to 63 posted calls ahead of the sequencer), 4.5× a
/// replay of it (2.2–2.4 s), so repeated bench/gate runs reuse the files;
/// the version tag guards against stale caches across format or workload
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

/// Generates (or reuses) the pinned out-of-core trace, returning its
/// directory. Reuse requires a scannable trace with the right rank count;
/// anything else is regenerated from scratch.
fn ensure_ooc_trace(spec: &OocSpec) -> Result<PathBuf, String> {
    let dir = ooc_trace_dir(spec);
    if let Ok(set) = OocTraceSet::open(&dir) {
        if set.num_ranks() == spec.ranks as usize && set.total_records() > 0 {
            return Ok(dir);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if spec.workload != "stencil" {
        return Err(format!(
            "unknown ooc bench workload '{}' (only 'stencil' is synthesizable)",
            spec.workload
        ));
    }
    let stencil = Stencil {
        iters: (20 * spec.scale).min(u64::from(u32::MAX)) as u32,
        cells_per_rank: 2_000,
        work_per_cell: 40,
        halo_bytes: 1_024,
    };
    let trace = Simulation::new(spec.ranks, PlatformSignature::quiet("perf-ooc"))
        .seed(spec.seed)
        .run(|ctx| stencil.run(ctx))
        .map_err(|e| format!("ooc bench simulation failed: {e}"))?
        .trace;
    trace
        .save(&dir)
        .map_err(|e| format!("writing ooc bench trace: {e}"))?;
    Ok(dir)
}

/// Measures the out-of-core replay path: `reps` rounds of one timed replay
/// at 1 shard then one at [`OocSpec::shards`] shards over the mmap-backed
/// cursors, best of each kept, with the resident-set sampler running across
/// the whole section. Alternating the two keeps each pair of walls seconds
/// apart. The trace is generated once and cached in the system temp dir.
pub fn measure_ooc(spec: &OocSpec, reps: u32) -> Result<OocPerf, String> {
    let dir = ensure_ooc_trace(spec)?;
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
pub fn measure_ingest(spec: &OocSpec, reps: u32) -> Result<IngestPerf, String> {
    let dir = ensure_ooc_trace(spec)?;
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
pub fn measure_cache(spec: &OocSpec) -> Result<CachePerf, String> {
    let dir = ensure_ooc_trace(spec)?;
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

/// Takes every section of the snapshot: the sweep at `reps` rounds, the
/// ingest and out-of-core replay of the pinned 10⁷-event trace at `reps`
/// capped to 3 (each rep reads ~10⁷ events twice, so the gate stays
/// minutes-scale), and one cold and one warm analyze of that trace.
pub fn measure(reps: u32) -> Result<PerfSnapshot, String> {
    let sweep = measure_sweep(reps);
    let spec = pinned_ooc();
    let ingest = measure_ingest(&spec, reps.min(3)).map_err(|e| format!("ingest bench: {e}"))?;
    let ooc = measure_ooc(&spec, reps.min(3)).map_err(|e| format!("ooc bench: {e}"))?;
    let cache = measure_cache(&spec).map_err(|e| format!("cache bench: {e}"))?;
    Ok(PerfSnapshot {
        sweep,
        ingest,
        ooc,
        cache,
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

impl PerfSnapshot {
    /// Renders the snapshot as the `BENCH_replay.json` document: one block
    /// per section.
    pub fn to_json(&self) -> String {
        let (s, i, o, c) = (&self.sweep, &self.ingest, &self.ooc, &self.cache);
        let blocks = [
            json_block(
                "sweep",
                &[
                    ("workload", format!("\"{}\"", s.workload)),
                    ("configs", s.configs.to_string()),
                    ("lane_batches", s.lane_batches.to_string()),
                    ("traversals_saved", s.traversals_saved.to_string()),
                    ("configs_per_sec", format!("{:.1}", s.configs_per_sec)),
                    (
                        "scalar_configs_per_sec",
                        format!("{:.1}", s.scalar_configs_per_sec),
                    ),
                    ("speedup_vs_scalar", format!("{:.2}", s.speedup_vs_scalar())),
                ],
            ),
            json_block(
                "ingest",
                &[
                    ("name", format!("\"{}\"", i.name)),
                    ("events", i.events.to_string()),
                    ("trace_mib", format!("{:.1}", i.trace_mib)),
                    ("cursor_secs", format!("{:.3}", i.cursor_secs)),
                    ("decode_secs", format!("{:.3}", i.decode_secs)),
                    (
                        "cursor_over_decode",
                        format!("{:.2}", i.cursor_over_decode()),
                    ),
                    (
                        "open_rss_growth_mib",
                        format!("{:.1}", i.open_rss_growth_mib),
                    ),
                ],
            ),
            json_block(
                "ooc",
                &[
                    ("name", format!("\"{}\"", o.name)),
                    ("ranks", o.ranks.to_string()),
                    ("events", o.events.to_string()),
                    ("trace_mib", format!("{:.1}", o.trace_mib)),
                    ("shards", o.shards.to_string()),
                    ("host_cpus", o.host_cpus.to_string()),
                    (
                        "events_per_sec_1shard",
                        format!("{:.0}", o.events_per_sec_1shard),
                    ),
                    (
                        "events_per_sec_sharded",
                        format!("{:.0}", o.events_per_sec_sharded),
                    ),
                    ("shard_speedup", format!("{:.2}", o.shard_speedup())),
                    ("baseline_rss_mib", format!("{:.1}", o.baseline_rss_mib)),
                    (
                        "peak_rss_growth_mib",
                        format!("{:.1}", o.peak_rss_growth_mib),
                    ),
                ],
            ),
            json_block(
                "cache",
                &[
                    ("name", format!("\"{}\"", c.name)),
                    ("ranks", c.ranks.to_string()),
                    ("events", c.events.to_string()),
                    ("cold_secs", format!("{:.3}", c.cold_secs)),
                    ("warm_secs", format!("{:.4}", c.warm_secs)),
                    ("warm_speedup", format!("{:.1}", c.warm_speedup())),
                ],
            ),
        ];
        format!("{{\n{}\n}}\n", blocks.join(",\n"))
    }
}

/// [`SWEEP_LANES_FLOOR`]: `Some(message)` when the lanes fall below it.
fn check_sweep(s: &SweepPerf) -> Option<String> {
    (s.speedup_vs_scalar() < SWEEP_LANES_FLOOR).then(|| {
        format!(
            "sweep({}): lanes run {:.2}x the scalar configs/sec (floor \
             {SWEEP_LANES_FLOOR}x) — lane batches are not sharing graph traversals",
            s.workload,
            s.speedup_vs_scalar()
        )
    })
}

/// [`INGEST_OVER_DECODE_CEILING`]: `Some(message)` when the strict cursor
/// costs more than that many bare decodes.
fn check_ingest(i: &IngestPerf) -> Option<String> {
    (i.cursor_over_decode() > INGEST_OVER_DECODE_CEILING).then(|| {
        format!(
            "ingest({}): the strict cursor drain runs {:.2}x a bare decode of the \
             same frames (ceiling {INGEST_OVER_DECODE_CEILING}x) — checksumming costs \
             more than one fast pass over the bytes",
            i.name,
            i.cursor_over_decode()
        )
    })
}

/// [`OOC_RSS_CAP_MIN_MIB`]: `Some(message)` when the out-of-core replay's
/// peak-RSS growth passes max(48 MiB, trace/2).
fn check_ooc_rss(o: &OocPerf) -> Option<String> {
    let rss_cap = (0.5 * o.trace_mib).max(OOC_RSS_CAP_MIN_MIB);
    (o.peak_rss_growth_mib > rss_cap).then(|| {
        format!(
            "ooc({}): peak RSS grew {:.1} MiB over a {:.1} MiB trace \
             (flat-RSS cap {:.1} MiB) — the windowed replay is buffering",
            o.name, o.peak_rss_growth_mib, o.trace_mib, rss_cap
        )
    })
}

/// [`SHARD_SPEEDUP_FLOOR`], armed from [`SHARD_MIN_CPUS`] CPUs and 2 shards:
/// `Some(message)` when the sharded replay falls below it.
fn check_shards(o: &OocPerf) -> Option<String> {
    let armed = o.host_cpus >= SHARD_MIN_CPUS && o.shards >= 2;
    (armed && o.shard_speedup() < SHARD_SPEEDUP_FLOOR).then(|| {
        format!(
            "ooc({}): {} shards on {} CPUs run {:.2}x 1 shard (floor \
             {SHARD_SPEEDUP_FLOOR}x) — partition-parallel replay is not scaling",
            o.name,
            o.shards,
            o.host_cpus,
            o.shard_speedup()
        )
    })
}

/// [`WARM_SPEEDUP_FLOOR`]: `Some(message)` when a warm analyze falls below it.
fn check_cache(c: &CachePerf) -> Option<String> {
    (c.warm_speedup() < WARM_SPEEDUP_FLOOR).then(|| {
        format!(
            "cache({}): warm analyze is only {:.1}x faster than cold (floor \
             {WARM_SPEEDUP_FLOOR}x) — the artifact cache is not paying for itself",
            c.name,
            c.warm_speedup()
        )
    })
}

/// Holds every section of `snap` to its fixed floor. Returns one message
/// per ratio below its floor; empty means the gate passes.
pub fn check(snap: &PerfSnapshot) -> Vec<String> {
    [
        check_sweep(&snap.sweep),
        check_ingest(&snap.ingest),
        check_ooc_rss(&snap.ooc),
        check_shards(&snap.ooc),
        check_cache(&snap.cache),
    ]
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(speedup: f64) -> SweepPerf {
        SweepPerf {
            workload: "token-ring-16".into(),
            configs: 16,
            lane_batches: 2,
            traversals_saved: 14,
            configs_per_sec: 100.0 * speedup,
            scalar_configs_per_sec: 100.0,
        }
    }

    fn ingest(ratio: f64) -> IngestPerf {
        IngestPerf {
            name: "ingest-test".into(),
            events: 10_000_000,
            trace_mib: 93.4,
            cursor_secs: 0.4 * ratio,
            decode_secs: 0.4,
            open_rss_growth_mib: 95.0,
        }
    }

    fn ooc(trace_mib: f64, rss_growth: f64, speedup: f64, cpus: u32) -> OocPerf {
        OocPerf {
            name: "ooc-test".into(),
            ranks: 1024,
            events: 10_000_000,
            trace_mib,
            shards: 4,
            host_cpus: cpus,
            events_per_sec_1shard: 1.0e6,
            events_per_sec_sharded: 1.0e6 * speedup,
            baseline_rss_mib: 800.0,
            peak_rss_growth_mib: rss_growth,
        }
    }

    fn cache(warm_speedup: f64) -> CachePerf {
        CachePerf {
            name: "cache-test".into(),
            ranks: 1024,
            events: 10_000_000,
            cold_secs: 10.0,
            warm_secs: 10.0 / warm_speedup,
        }
    }

    #[test]
    fn sweep_floor_fires_below_2x() {
        assert_eq!(check_sweep(&sweep(3.04)), None);
        let msg = check_sweep(&sweep(1.99)).expect("below the floor");
        assert!(msg.starts_with("sweep(token-ring-16):"), "{msg}");
    }

    #[test]
    fn ingest_ceiling_fires_above_2_5x() {
        assert_eq!(check_ingest(&ingest(2.2)), None);
        let msg = check_ingest(&ingest(2.9)).expect("above the ceiling");
        assert!(msg.starts_with("ingest(ingest-test):"), "{msg}");
    }

    #[test]
    fn ooc_rss_cap_is_half_the_trace_or_48_mib() {
        // Measured: up to +5.7 MiB over the pinned 93 MiB trace.
        assert_eq!(check_ooc_rss(&ooc(93.4, 5.7, 1.72, 2)), None);
        // Half a 200 MiB trace is the cap.
        assert_eq!(check_ooc_rss(&ooc(200.0, 99.9, 1.72, 2)), None);
        let msg = check_ooc_rss(&ooc(200.0, 100.1, 1.72, 2)).expect("past the cap");
        assert!(msg.contains("flat-RSS"), "{msg}");
        // On a small trace the 48 MiB constant is.
        assert_eq!(check_ooc_rss(&ooc(10.0, 47.9, 1.72, 2)), None);
        assert!(check_ooc_rss(&ooc(10.0, 48.1, 1.72, 2)).is_some());
    }

    #[test]
    fn shard_floor_is_armed_from_2_cpus() {
        assert_eq!(check_shards(&ooc(93.4, 5.7, 1.72, 2)), None);
        let msg = check_shards(&ooc(93.4, 5.7, 1.19, 2)).expect("below the floor");
        assert!(msg.contains("not scaling"), "{msg}");
        // One CPU serialises the shards: the 0.87x it recorded is no finding.
        assert_eq!(check_shards(&ooc(93.4, 5.7, 0.87, 1)), None);
    }

    #[test]
    fn warm_floor_is_3x_on_any_host() {
        assert_eq!(check_cache(&cache(3753.0)), None);
        let msg = check_cache(&cache(2.99)).expect("below the floor");
        assert!(msg.starts_with("cache(cache-test):"), "{msg}");
    }

    #[test]
    fn check_holds_every_section() {
        let passing = PerfSnapshot {
            sweep: sweep(3.04),
            ingest: ingest(2.0),
            ooc: ooc(93.4, 5.7, 1.72, 2),
            cache: cache(3753.0),
        };
        assert!(check(&passing).is_empty());
        let failing = PerfSnapshot {
            sweep: sweep(1.0),
            ingest: ingest(3.0),
            ooc: ooc(93.4, 60.0, 1.0, 2),
            cache: cache(1.0),
        };
        assert_eq!(check(&failing).len(), 5);
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
        let perf = measure_cache(&spec).expect("cache measurement");
        assert_eq!(perf.ranks, 4);
        assert!(perf.events > 0);
        assert!(perf.cold_secs > 0.0 && perf.warm_secs > 0.0);
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
