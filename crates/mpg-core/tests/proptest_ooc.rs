//! Out-of-core & partition-parallel replay equivalence.
//!
//! The windowed file-backed path ([`OocTraceSet`] cursors) and the sharded
//! path, both through [`Replayer::run_streams_parallel`], must be
//! **bit-identical** to the plain in-memory replay: same per-rank drifts,
//! same projected finishes, same warnings, and the same statistics — except
//! the three scheduler-order diagnostics (`scheduler_wakeups`,
//! `polls_avoided`, `window_high_water`), which describe *how* the
//! traversal was scheduled, not *what* it computed.
//!
//! Exercised two ways: random deadlock-free SPMD programs under a noisy
//! model (proptest), and a golden pass over deterministic demo programs at
//! several shard counts.

use mpg_core::{PerturbationModel, ReplayConfig, ReplayReport, Replayer};
use mpg_noise::{Dist, PlatformSignature};
use mpg_sim::RankCtx;
use mpg_trace::{EventRecord, MemTrace, OocTraceSet, TraceError};
use proptest::prelude::*;

/// One deadlock-free communication round; every rank executes the same
/// sequence, so blocking calls always have a matching partner.
#[derive(Debug, Clone)]
enum Round {
    Compute(u64),
    /// Nonblocking ring: irecv from the left, isend to the right, waitall.
    Ring {
        tag: u32,
        bytes: u64,
    },
    /// Blocking sendrecv shifted by `shift` ranks.
    Shift {
        shift: u32,
        tag: u32,
        bytes: u64,
    },
    /// Even/odd paired blocking exchange (odd rank out sits idle).
    Pair {
        tag: u32,
        bytes: u64,
    },
    Barrier,
    Allreduce {
        bytes: u64,
    },
    Bcast {
        root: u32,
        bytes: u64,
    },
}

fn run_round(ctx: &mut RankCtx, round: &Round) {
    let p = ctx.size();
    let me = ctx.rank();
    match *round {
        Round::Compute(work) => ctx.compute(work),
        Round::Ring { tag, bytes } => {
            let r = ctx.irecv((me + p - 1) % p, tag);
            let s = ctx.isend((me + 1) % p, tag, bytes);
            ctx.waitall(&[r, s]);
        }
        Round::Shift { shift, tag, bytes } => {
            let shift = 1 + shift % (p - 1).max(1);
            ctx.sendrecv((me + shift) % p, tag, bytes, (me + p - shift) % p, tag);
        }
        Round::Pair { tag, bytes } => {
            if me.is_multiple_of(2) {
                if me + 1 < p {
                    ctx.send(me + 1, tag, bytes);
                    ctx.recv(me + 1, tag);
                }
            } else {
                ctx.recv(me - 1, tag);
                ctx.send(me - 1, tag, bytes);
            }
        }
        Round::Barrier => ctx.barrier(),
        Round::Allreduce { bytes } => ctx.allreduce(bytes),
        Round::Bcast { root, bytes } => ctx.bcast(root % p, bytes),
    }
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (1u64..20_000).prop_map(Round::Compute),
        (0u32..4, 1u64..4_096).prop_map(|(tag, bytes)| Round::Ring { tag, bytes }),
        (0u32..8, 0u32..4, 1u64..4_096).prop_map(|(shift, tag, bytes)| Round::Shift {
            shift,
            tag,
            bytes
        }),
        (0u32..4, 1u64..4_096).prop_map(|(tag, bytes)| Round::Pair { tag, bytes }),
        Just(Round::Barrier),
        (1u64..2_048).prop_map(|bytes| Round::Allreduce { bytes }),
        (0u32..8, 1u64..2_048).prop_map(|(root, bytes)| Round::Bcast { root, bytes }),
    ]
}

/// A noisy model exercising every delta class, including the per-byte term.
fn noisy_model(seed_hint: u64) -> PerturbationModel {
    let mut m = PerturbationModel::quiet("ooc-prop");
    m.os_local = Dist::Exponential {
        mean: 40.0 + (seed_hint % 7) as f64,
    }
    .into();
    m.os_remote = Dist::Uniform { lo: 0.0, hi: 25.0 }.into();
    m.latency = Dist::Exponential { mean: 120.0 }.into();
    m.per_byte = 0.05;
    m.transfer_jitter = Dist::Uniform { lo: 0.0, hi: 10.0 }.into();
    m
}

fn simulate(p: u32, sim_seed: u64, rounds: &[Round]) -> MemTrace {
    mpg_sim::Simulation::new(p, PlatformSignature::quiet("ooc"))
        .ideal_clocks()
        .seed(sim_seed)
        .run(|ctx| {
            for round in rounds {
                run_round(ctx, round);
            }
        })
        .expect("generated program simulates")
        .trace
}

/// The equivalence contract: everything except the scheduler-order
/// diagnostics must match bit-for-bit.
fn assert_bit_identical(base: &ReplayReport, got: &ReplayReport, what: &str) {
    assert_eq!(base.final_drift, got.final_drift, "{what}: final_drift");
    assert_eq!(
        base.projected_finish_local, got.projected_finish_local,
        "{what}: projected_finish_local"
    );
    assert_eq!(base.warnings, got.warnings, "{what}: warnings");
    assert_eq!(base.model_name, got.model_name, "{what}: model_name");
    let (a, b) = (&base.stats, &got.stats);
    assert_eq!(a.events, b.events, "{what}: stats.events");
    assert_eq!(
        a.messages_matched, b.messages_matched,
        "{what}: stats.messages_matched"
    );
    assert_eq!(a.collectives, b.collectives, "{what}: stats.collectives");
    assert_eq!(
        a.injected_total, b.injected_total,
        "{what}: stats.injected_total"
    );
    assert_eq!(a.arm_wins, b.arm_wins, "{what}: stats.arm_wins");
    assert_eq!(
        a.absorbed_message_drift, b.absorbed_message_drift,
        "{what}: stats.absorbed_message_drift"
    );
    assert_eq!(
        a.propagated_message_drift, b.propagated_message_drift,
        "{what}: stats.propagated_message_drift"
    );
    assert_eq!(a.lanes, b.lanes, "{what}: stats.lanes");
}

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

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mpg-oocprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
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
        shards in 2usize..6,
        rounds in prop::collection::vec(round_strategy(), 1..8),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let config = ReplayConfig::new(noisy_model(sim_seed)).seed(replay_seed);
        let base = Replayer::new(config.clone())
            .run(&trace)
            .expect("in-memory replay succeeds");
        let sharded = Replayer::new(config)
            .run_streams_parallel(mem_streams(&trace), shards)
            .expect("sharded replay succeeds");
        assert_bit_identical(&base, &sharded, &format!("{shards} shards"));
    }

    /// The windowed out-of-core path (mmap-backed frame cursors) is
    /// bit-identical to the in-memory replay, on one engine and sharded.
    /// Streams declare no event counts, so a graph recording asked of them
    /// is refused.
    #[test]
    fn windowed_ooc_replay_is_bit_identical(
        p in 2u32..8,
        sim_seed in 0u64..1_000,
        replay_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..6),
    ) {
        let trace = simulate(p, sim_seed, &rounds);
        let dir = fresh_dir(&format!("{p}-{sim_seed}-{replay_seed}"));
        trace.save(&dir).expect("trace saves");
        let ooc = OocTraceSet::open(&dir).expect("ooc set opens");
        let cursors = || (0..ooc.num_ranks()).map(|r| ooc.cursor(r)).collect();

        let config = ReplayConfig::new(noisy_model(sim_seed)).seed(replay_seed);
        let base = Replayer::new(config.clone())
            .run(&trace)
            .expect("in-memory replay succeeds");
        for shards in [1, 4] {
            let windowed = Replayer::new(config.clone())
                .run_streams_parallel(cursors(), shards)
                .expect("windowed replay succeeds");
            assert_bit_identical(&base, &windowed, &format!("windowed {shards} shard(s)"));
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
        assert_bit_identical(&base, &got, &format!("golden {shards} shards"));
    }

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
