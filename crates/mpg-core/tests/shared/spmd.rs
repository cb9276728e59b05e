//! Random deadlock-free SPMD programs and a noisy recording of them: the
//! inputs of the MPGA properties, in `proptest_mpga.rs` (round trips and
//! the cache fallback) and in the workspace's `tests/forged_mpga.rs`
//! (forged artifacts run through the analyzer). Both include this file
//! with `#[path]`.

use mpg_core::{EventGraph, PerturbationModel, ReplayConfig, Replayer};
use mpg_noise::{Dist, PlatformSignature};
use mpg_sim::RankCtx;
use mpg_trace::MemTrace;
use proptest::prelude::*;

/// One deadlock-free SPMD round (every rank runs the same sequence).
#[derive(Debug, Clone)]
pub enum Round {
    Compute(u64),
    Ring { tag: u32, bytes: u64 },
    Barrier,
    Allreduce { bytes: u64 },
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
        Round::Barrier => ctx.barrier(),
        Round::Allreduce { bytes } => ctx.allreduce(bytes),
    }
}

pub fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (1u64..10_000).prop_map(Round::Compute),
        (0u32..4, 1u64..2_048).prop_map(|(tag, bytes)| Round::Ring { tag, bytes }),
        Just(Round::Barrier),
        (1u64..1_024).prop_map(|bytes| Round::Allreduce { bytes }),
    ]
}

pub fn simulate(p: u32, sim_seed: u64, rounds: &[Round]) -> MemTrace {
    mpg_sim::Simulation::new(p, PlatformSignature::quiet("mpga-prop"))
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

/// A mildly noisy model so recorded labels carry nonzero perturbations.
pub fn model(seed_hint: u64) -> PerturbationModel {
    let mut m = PerturbationModel::quiet("mpga-prop");
    m.os_local = Dist::Exponential {
        mean: 30.0 + (seed_hint % 5) as f64,
    }
    .into();
    m.latency = Dist::Exponential { mean: 90.0 }.into();
    m.per_byte = 0.02;
    m
}

pub fn record(trace: &MemTrace, cfg: &ReplayConfig) -> EventGraph {
    Replayer::new(cfg.clone())
        .run(trace)
        .expect("recording replay succeeds")
        .graph
        .expect("graph recorded")
}
