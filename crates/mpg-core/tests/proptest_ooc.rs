//! Out-of-core and partition-parallel replay equivalence: the windowed
//! file-backed path ([`OocTraceSet`] cursors) and the sharded path, both
//! through [`Replayer::run_streams_parallel`], are **bit-identical** to the
//! plain in-memory replay — same per-rank drifts, projected finishes,
//! warnings and statistics, except what [`mpg_testkit::computed`] leaves
//! out — and so is the §4.3 leak warning. Streams declare no event counts,
//! so a graph recording asked of them is refused. Random programs come
//! from `mpg-testkit`; this is the random-program row of the streamed and
//! sharded cell of `mpg-analysis`'s `tests/cross_paths.rs`, whose
//! `demo_traces_take_every_in_process_path` runs the same paths on the
//! seven demo traces.

use mpg_core::{PerturbationModel, ReplayConfig, Replayer};
use mpg_noise::PlatformSignature;
use mpg_testkit::{computed, noisy_model, round_strategy, scratch_dir, simulate, Round, SPMD};
use mpg_trace::{EventRecord, MemTrace, OocTraceSet, TraceError};
use proptest::prelude::*;

fn mem_streams(
    trace: &MemTrace,
) -> Vec<impl Iterator<Item = Result<EventRecord, TraceError>> + Send + '_> {
    (0..trace.num_ranks())
        .map(|r| {
            trace
                .iter_rank(r)
                .map(Ok as fn(EventRecord) -> Result<EventRecord, TraceError>)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Sharded replay of random SPMD programs under a noisy model is
    /// bit-identical to the single-threaded engine at every shard count.
    #[test]
    fn sharded_replay_is_bit_identical(
        p in 2u32..10,
        sim_seed in 0u64..1_000,
        replay_seed in 0u64..1_000,
        shards in 2usize..9,
        rounds in prop::collection::vec(round_strategy(SPMD), 1..8),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let config = ReplayConfig::new(noisy_model(sim_seed)).seed(replay_seed);
        let base = Replayer::new(config.clone())
            .run(&trace)
            .expect("in-memory replay succeeds");
        let sharded = Replayer::new(config)
            .run_streams_parallel(mem_streams(&trace), shards)
            .expect("sharded replay succeeds");
        prop_assert_eq!(computed(&sharded), computed(&base), "{} shards", shards);
    }

    /// The windowed out-of-core path (mmap-backed frame cursors) is
    /// bit-identical to the in-memory replay, on one engine and sharded,
    /// and refuses a graph recording.
    #[test]
    fn windowed_ooc_replay_is_bit_identical(
        p in 2u32..10,
        sim_seed in 0u64..1_000,
        replay_seed in 0u64..1_000,
        shards in 2usize..9,
        rounds in prop::collection::vec(round_strategy(SPMD), 1..8),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let dir = scratch_dir(&format!("oocprop-{p}-{sim_seed}-{replay_seed}"));
        trace.save(&dir).expect("trace saves");
        let ooc = OocTraceSet::open(&dir).expect("ooc set opens");
        let cursors = || (0..ooc.num_ranks()).map(|r| ooc.cursor(r)).collect();

        let config = ReplayConfig::new(noisy_model(sim_seed)).seed(replay_seed);
        let base = Replayer::new(config.clone())
            .run(&trace)
            .expect("in-memory replay succeeds");
        for shards in [1, shards] {
            let windowed = Replayer::new(config.clone())
                .run_streams_parallel(cursors(), shards)
                .expect("windowed replay succeeds");
            prop_assert_eq!(computed(&windowed), computed(&base), "windowed {} shard(s)", shards);
        }
        prop_assert!(matches!(
            Replayer::new(config.record_graph(true)).run_streams_parallel(cursors(), 1),
            Err(mpg_core::ReplayError::NoLayout)
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deterministic golden pass: a mixed blocking/nonblocking/collective
/// program replayed at shard counts bracketing the rank count, plus the
/// asynchronous-leak warning path.
#[test]
fn golden_shard_counts_and_leak_warning() {
    let p = 8;
    let rounds = [
        Round::Compute(5_000),
        Round::Ring { tag: 0, bytes: 512 },
        Round::Barrier,
        Round::Shift {
            shift: 3,
            tag: 1,
            bytes: 1_024,
        },
        Round::Allreduce { bytes: 256 },
        Round::Pair { tag: 2, bytes: 64 },
        Round::Bcast {
            root: 5,
            bytes: 128,
        },
        Round::Ring {
            tag: 3,
            bytes: 2_048,
        },
        Round::Compute(1_000),
    ];
    let trace = simulate(p, 42, &rounds);
    let config = ReplayConfig::new(noisy_model(7)).seed(9);
    let base = Replayer::new(config.clone())
        .run(&trace)
        .expect("in-memory replay succeeds");
    assert!(
        base.stats.messages_matched > 0 && base.stats.collectives > 0,
        "golden program must exercise p2p and collectives"
    );
    for shards in [2, 3, 4, 7, 8, 16] {
        let got = Replayer::new(config.clone())
            .run_streams_parallel(mem_streams(&trace), shards)
            .expect("sharded replay succeeds");
        assert_eq!(computed(&got), computed(&base), "golden {shards} shards");
    }
    assert!(matches!(
        Replayer::new(config.record_graph(true)).run_streams_parallel(mem_streams(&trace), 1),
        Err(mpg_core::ReplayError::NoLayout)
    ));

    // A trace with unmatched asynchronous traffic must produce the same
    // §4.3 warning string from the merged sharded report.
    let leaky = mpg_sim::Simulation::new(4, PlatformSignature::quiet("leak"))
        .ideal_clocks()
        .run(|ctx| {
            let me = ctx.rank();
            if me == 0 {
                // Post a send nobody receives: leaks one open request and
                // one unmatched queued send.
                ctx.isend(1, 9, 64);
            }
            ctx.compute(100);
            ctx.barrier();
        })
        .expect("leaky program simulates")
        .trace;
    let cfg = ReplayConfig::new(PerturbationModel::quiet("leak-id"));
    let base = Replayer::new(cfg.clone())
        .run(&leaky)
        .expect("leaky replay succeeds");
    assert_eq!(base.warnings.len(), 1, "single-engine leak warning present");
    let sharded = Replayer::new(cfg)
        .run_streams_parallel(mem_streams(&leaky), 2)
        .expect("sharded leaky replay succeeds");
    assert_eq!(
        base.warnings, sharded.warnings,
        "leak warning bit-identical"
    );
}
