//! Random SPMD programs heavy on wildcard receives (gathers — blocking,
//! synchronous-send and `irecv` + `waitall` —, request–reply turns,
//! wildcard ring sinks, a wildcard beside a pinned consumer), shared by
//! `proptest_races.rs`, `proptest_explore.rs` and the oracles in
//! `src/hb_races.rs` and `src/explore.rs` (each includes this file with
//! `#[path]`, or reaches the copy `hb_races.rs` included).

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
    /// The root drains one wildcard and then one *specific* receive —
    /// the pinned-consumer shape where may-deadlocks hide.
    GatherPinned {
        root: u32,
        tag: u32,
        bytes: u64,
    },
    /// Blocking sendrecv shifted by `shift` ranks (specific sources).
    Shift {
        shift: u32,
        tag: u32,
        bytes: u64,
    },
    /// [`Round::GatherAny`] with synchronous sends: a worker whose message
    /// a swap hands to a later receive stays blocked until then.
    GatherSync {
        root: u32,
        tag: u32,
        bytes: u64,
    },
    /// The root posts `p − 1` wildcard `irecv`s and waits for all of them:
    /// receives that are posted, and can match, far ahead of the rank.
    GatherIrecv {
        root: u32,
        tag: u32,
        bytes: u64,
    },
    /// `turns` times: every worker sends a request, computes, and blocks
    /// for the answer; the root takes requests through a wildcard and
    /// answers whoever it got — what it sends depends on what it matched.
    RequestReply {
        root: u32,
        tag: u32,
        bytes: u64,
        turns: u32,
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
        Round::GatherPinned { root, tag, bytes } => {
            let root = root % p;
            let pinned = (root + 1) % p;
            if me == root {
                ctx.recv(ANY_SOURCE, tag);
                ctx.recv(pinned, tag);
            } else if me == pinned {
                ctx.send(root, tag, bytes);
                ctx.send(root, tag, bytes);
            }
        }
        Round::Shift { shift, tag, bytes } => {
            let shift = 1 + shift % (p - 1).max(1);
            ctx.sendrecv((me + shift) % p, tag, bytes, (me + p - shift) % p, tag);
        }
        Round::GatherSync { root, tag, bytes } => {
            let root = root % p;
            if me == root {
                for _ in 1..p {
                    ctx.recv(ANY_SOURCE, tag);
                }
            } else {
                ctx.ssend(root, tag, bytes);
            }
        }
        Round::GatherIrecv { root, tag, bytes } => {
            let root = root % p;
            if me == root {
                let reqs: Vec<_> = (1..p).map(|_| ctx.irecv(ANY_SOURCE, tag)).collect();
                ctx.waitall(&reqs);
            } else {
                ctx.send(root, tag, bytes);
            }
        }
        Round::RequestReply {
            root,
            tag,
            bytes,
            turns,
        } => {
            let root = root % p;
            // Answers travel under a tag no request carries.
            let answer = tag + 3;
            for _ in 0..turns {
                if me == root {
                    for _ in 1..p {
                        let asked = ctx.recv(ANY_SOURCE, tag);
                        ctx.send(asked.src, answer, bytes);
                    }
                } else {
                    ctx.send(root, tag, bytes);
                    ctx.compute(bytes);
                    ctx.recv(root, answer);
                }
            }
        }
        Round::Barrier => ctx.barrier(),
    }
}

/// With `pinned`, [`Round::GatherPinned`] takes the place of
/// [`Round::Shift`]. The two do not mix: the ranks a pinned gather leaves
/// out run ahead, its wildcard can take the message one of them sent for a
/// later shift, and the shift's specific receive then deadlocks the
/// *generating* simulation, before there is a trace to analyze.
pub fn round_strategy(pinned: bool) -> impl Strategy<Value = Round> {
    let specific = (0u32..8, 0u32..3, 1u64..2_048).prop_map(move |(peer, tag, bytes)| {
        if pinned {
            Round::GatherPinned {
                root: peer,
                tag,
                bytes,
            }
        } else {
            Round::Shift {
                shift: peer,
                tag,
                bytes,
            }
        }
    });
    prop_oneof![
        (1u64..10_000).prop_map(Round::Compute),
        (0u32..8, 0u32..3, 1u64..2_048).prop_map(|(root, tag, bytes)| Round::GatherAny {
            root,
            tag,
            bytes
        }),
        (0u32..3, 1u64..2_048).prop_map(|(tag, bytes)| Round::RingAny { tag, bytes }),
        specific,
        Just(Round::Barrier),
    ]
}

/// Every round there is, the gathers of all three kinds and the
/// request–reply turns beside both specific-source shapes. Colliding tags
/// let a wildcard of one round take a message meant for another, which can
/// starve a specific receive while the program is traced: use
/// [`try_simulate`]. (Not every test that includes this file draws from
/// it.)
#[allow(dead_code)]
pub fn any_round_strategy() -> impl Strategy<Value = Round> {
    let gather = (0u32..8, 0u32..3, 1u64..2_048);
    prop_oneof![
        round_strategy(false),
        round_strategy(true),
        gather
            .clone()
            .prop_map(|(root, tag, bytes)| Round::GatherSync { root, tag, bytes }),
        gather
            .clone()
            .prop_map(|(root, tag, bytes)| Round::GatherIrecv { root, tag, bytes }),
        (gather, 1u32..4).prop_map(|((root, tag, bytes), turns)| Round::RequestReply {
            root,
            tag,
            bytes,
            turns
        }),
    ]
}

/// (Not every test that includes this file calls it.)
#[allow(dead_code)]
pub fn simulate(p: u32, sim_seed: u64, rounds: &[Round]) -> MemTrace {
    try_simulate(p, sim_seed, rounds).expect("generated program simulates")
}

/// `None` when the generated program deadlocks while it is being traced
/// (wildcards that collide across rounds can starve a later receive).
pub fn try_simulate(p: u32, sim_seed: u64, rounds: &[Round]) -> Option<MemTrace> {
    mpg_sim::Simulation::new(p, PlatformSignature::quiet("prop-race"))
        .ideal_clocks()
        .seed(sim_seed)
        .run(|ctx| {
            for round in rounds {
                run_round(ctx, round);
            }
        })
        .ok()
        .map(|outcome| outcome.trace)
}
