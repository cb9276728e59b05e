//! Property test: K-lane batched replay is bit-identical to K sequential
//! scalar replays.
//!
//! Random deadlock-free SPMD programs (the same round shapes the scheduler
//! proptest uses) are simulated and replayed twice — once per config through
//! the scalar `Replayer`, once as a batch through `lane_replays` — and every
//! observable of every report must match exactly: final drifts, projected
//! finishes, arm wins, match/injection/absorption counters and warnings.
//! Config batches randomize models and seeds freely, *and* the structural
//! knobs (`ack_arm`, `arrival_bound`) that force the planner to split
//! batches — lanes must never change traversal order, whatever mix they
//! arrive in.

use mpg_core::{lane_replays, PerturbationModel, ReplayConfig, ReplayReport, Replayer};
use mpg_noise::{Dist, PlatformSignature};
use mpg_sim::RankCtx;
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
    /// Ring via individually waited requests, reversed completion order.
    RingWaitRev {
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
        Round::RingWaitRev { tag, bytes } => {
            let r = ctx.irecv((me + p - 1) % p, tag);
            let s = ctx.isend((me + 1) % p, tag, bytes);
            ctx.wait(s);
            ctx.wait(r);
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
        (0u32..4, 1u64..4_096).prop_map(|(tag, bytes)| Round::RingWaitRev { tag, bytes }),
        Just(Round::Barrier),
        (1u64..2_048).prop_map(|bytes| Round::Allreduce { bytes }),
        (0u32..8, 1u64..2_048).prop_map(|(root, bytes)| Round::Bcast { root, bytes }),
    ]
}

/// Per-config spec drawn by proptest: perturbation shape + per-lane knobs
/// + the structural knobs that partition batches.
#[derive(Debug, Clone)]
struct CfgSpec {
    os_mean: f64,
    lat_mean: f64,
    per_byte_centi: u8,
    negate_os: bool,
    seed: u64,
    ack_arm: bool,
    arrival_bound: bool,
}

fn cfg_strategy() -> impl Strategy<Value = CfgSpec> {
    (
        (1u64..3_000, 0u64..3_000, 0u8..20, any::<bool>()),
        (0u64..1_000, any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((os_mean, lat_mean, per_byte_centi, negate_os), (seed, ack_arm, arrival_bound))| {
                CfgSpec {
                    os_mean: os_mean as f64,
                    lat_mean: lat_mean as f64,
                    per_byte_centi,
                    negate_os,
                    seed,
                    ack_arm,
                    arrival_bound,
                }
            },
        )
}

fn build_config(i: usize, spec: &CfgSpec) -> ReplayConfig {
    let mut m = PerturbationModel::quiet(&format!("lane-{i}"));
    let os = Dist::Exponential { mean: spec.os_mean };
    m.os_local = if spec.negate_os {
        mpg_core::SignedDist::negative(os)
    } else {
        os.into()
    };
    if spec.lat_mean > 0.0 {
        m.latency = Dist::Exponential {
            mean: spec.lat_mean,
        }
        .into();
    }
    m.per_byte = f64::from(spec.per_byte_centi) / 100.0;
    ReplayConfig::new(m)
        .seed(spec.seed)
        .ack_arm(spec.ack_arm)
        .arrival_bound(spec.arrival_bound)
}

/// Zeroes the batch-shape stats that legitimately differ between the lane
/// and scalar paths; everything else must match bit-for-bit.
fn normalized(mut r: ReplayReport) -> ReplayReport {
    r.stats.lanes = 0;
    r.stats.traversals_saved = 0;
    r
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lane_batches_bit_identical_to_scalar_replays(
        p in 2u32..9,
        sim_seed in 0u64..1_000,
        rounds in prop::collection::vec(round_strategy(), 1..10),
        specs in prop::collection::vec(cfg_strategy(), 1..12),
    ) {
        let trace = mpg_sim::Simulation::new(p, PlatformSignature::quiet("prop"))
            .ideal_clocks()
            .seed(sim_seed)
            .run(|ctx| {
                for round in &rounds {
                    run_round(ctx, round);
                }
            })
            .expect("generated program simulates")
            .trace;
        let configs: Vec<ReplayConfig> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| build_config(i, s))
            .collect();

        let batched = lane_replays(&trace, &configs);
        prop_assert_eq!(batched.len(), configs.len());
        for (i, (cfg, got)) in configs.iter().zip(batched).enumerate() {
            let got = normalized(got.expect("valid trace replays"));
            let scalar = normalized(
                Replayer::new(cfg.clone()).run(&trace).expect("scalar replays"),
            );
            prop_assert_eq!(&got.final_drift, &scalar.final_drift, "config {}", i);
            prop_assert_eq!(
                &got.projected_finish_local,
                &scalar.projected_finish_local,
                "config {}",
                i
            );
            prop_assert_eq!(&got.stats, &scalar.stats, "config {}", i);
            prop_assert_eq!(&got.warnings, &scalar.warnings, "config {}", i);
            prop_assert_eq!(&got.model_name, &scalar.model_name, "config {}", i);
        }
    }
}
