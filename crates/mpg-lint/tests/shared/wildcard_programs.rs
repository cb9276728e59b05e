//! Random SPMD programs heavy on wildcard receives (gathers, wildcard ring
//! sinks), shared by `proptest_races.rs` and the candidate-window oracle in
//! `src/hb_races.rs` (each includes this file with `#[path]`).

use mpg_noise::PlatformSignature;
use mpg_sim::RankCtx;
use mpg_trace::{MemTrace, ANY_SOURCE};
use proptest::prelude::*;

#[derive(Debug, Clone)]
pub enum Round {
    Compute(u64),
    /// Everyone sends to the root; the root drains `p − 1` wildcards.
    GatherAny {
        root: u32,
        tag: u32,
        bytes: u64,
    },
    /// Ring where every receive is a wildcard (still deterministic when
    /// tags differ, racy when they collide across rounds).
    RingAny {
        tag: u32,
        bytes: u64,
    },
    /// Blocking sendrecv shifted by `shift` ranks (specific sources).
    Shift {
        shift: u32,
        tag: u32,
        bytes: u64,
    },
    Barrier,
}

fn run_round(ctx: &mut RankCtx, round: &Round) {
    let p = ctx.size();
    let me = ctx.rank();
    match *round {
        Round::Compute(work) => ctx.compute(work),
        Round::GatherAny { root, tag, bytes } => {
            let root = root % p;
            if me == root {
                for _ in 1..p {
                    ctx.recv(ANY_SOURCE, tag);
                }
            } else {
                ctx.send(root, tag, bytes);
            }
        }
        Round::RingAny { tag, bytes } => {
            let r = ctx.irecv(ANY_SOURCE, tag);
            let s = ctx.isend((me + 1) % p, tag, bytes);
            ctx.waitall(&[r, s]);
        }
        Round::Shift { shift, tag, bytes } => {
            let shift = 1 + shift % (p - 1).max(1);
            ctx.sendrecv((me + shift) % p, tag, bytes, (me + p - shift) % p, tag);
        }
        Round::Barrier => ctx.barrier(),
    }
}

pub fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (1u64..10_000).prop_map(Round::Compute),
        (0u32..8, 0u32..3, 1u64..2_048).prop_map(|(root, tag, bytes)| Round::GatherAny {
            root,
            tag,
            bytes
        }),
        (0u32..3, 1u64..2_048).prop_map(|(tag, bytes)| Round::RingAny { tag, bytes }),
        (0u32..8, 0u32..3, 1u64..2_048).prop_map(|(shift, tag, bytes)| Round::Shift {
            shift,
            tag,
            bytes
        }),
        Just(Round::Barrier),
    ]
}

pub fn simulate(p: u32, sim_seed: u64, rounds: &[Round]) -> MemTrace {
    mpg_sim::Simulation::new(p, PlatformSignature::quiet("prop-race"))
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
