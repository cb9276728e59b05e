//! Random SPMD programs: one alphabet of rounds, every rank running the
//! same sequence of them. A test picks the shapes it draws from
//! ([`round_strategy`]); the shared subsets are the constants below.
//!
//! Most rounds run in the simulator ([`simulate`]). The shapes from
//! [`Shape::Exchange`] on are written event by event instead ([`build`]):
//! a receive posted as an `ANY_TAG` pattern, with the matching send
//! carrying that tag too, is something no simulated program records (a
//! real trace records the matched tag), and bursts of eager sends ahead
//! of their receives need no platform model to stay deadlock-free.

use mpg_noise::PlatformSignature;
use mpg_sim::RankCtx;
use mpg_trace::{
    EventKind, EventRecord, MemTrace, Rank, ReqId, SendProtocol, Tag, ANY_SOURCE, ANY_TAG,
};
use proptest::prelude::*;
use proptest::{boxed, Union};

/// One round of an SPMD program.
#[derive(Debug, Clone)]
pub enum Round {
    Compute(u64),
    /// Rank-dependent work, so ranks reach the next round at different
    /// times and a sweep has waits to chain through.
    Skewed(u64),
    /// Nonblocking ring: irecv from the left, isend to the right, waitall.
    Ring {
        tag: Tag,
        bytes: u64,
    },
    /// [`Round::Ring`] with each request waited on its own, the send's
    /// first.
    RingWaitRev {
        tag: Tag,
        bytes: u64,
    },
    /// [`Round::Ring`] whose receive is a wildcard: deterministic while
    /// tags differ, racy when they collide across rounds.
    RingAny {
        tag: Tag,
        bytes: u64,
    },
    /// Blocking sendrecv shifted by `shift` ranks.
    Shift {
        shift: u32,
        tag: Tag,
        bytes: u64,
    },
    /// Even/odd paired blocking exchange (an odd rank out sits idle).
    Pair {
        tag: Tag,
        bytes: u64,
    },
    /// One message between two ranks while everyone else computes: the
    /// sparse shape where most events inherit their predecessor's
    /// happens-before epoch. `sync` makes it a rendezvous send.
    Handoff {
        from: u32,
        hop: u32,
        tag: Tag,
        bytes: u64,
        sync: bool,
    },
    /// Everyone sends to the root; the root drains `p − 1` wildcards.
    GatherAny {
        root: u32,
        tag: Tag,
        bytes: u64,
    },
    /// The root drains one wildcard and then one *specific* receive: the
    /// pinned-consumer shape where may-deadlocks hide.
    GatherPinned {
        root: u32,
        tag: Tag,
        bytes: u64,
    },
    /// [`Round::GatherAny`] with synchronous sends: a worker whose message
    /// a swap hands to a later receive stays blocked until then.
    GatherSync {
        root: u32,
        tag: Tag,
        bytes: u64,
    },
    /// The root posts `p − 1` wildcard irecvs and waits for all of them:
    /// receives that are posted, and can match, far ahead of the rank.
    GatherIrecv {
        root: u32,
        tag: Tag,
        bytes: u64,
    },
    /// `turns` times: every worker sends a request, computes, and blocks
    /// for the answer; the root takes requests through a wildcard and
    /// answers whoever it got, so what it sends depends on what it
    /// matched.
    RequestReply {
        root: u32,
        tag: Tag,
        bytes: u64,
        turns: u32,
    },
    Barrier,
    Allreduce {
        bytes: u64,
    },
    Bcast {
        root: u32,
        bytes: u64,
    },
    /// Written by hand: irecv from `shift` ranks to the left, one send to
    /// the right, wait. With `any_tag` the receive's pattern is `ANY_TAG`
    /// and so is the send's tag: the recording replay pairs tags by
    /// equality, while the sync pass reads the receive's as a pattern
    /// that admits every send on the channel.
    Exchange {
        shift: u32,
        tag: Tag,
        /// The send is a rendezvous (`MPI_Ssend`).
        sync: bool,
        any_source: bool,
        any_tag: bool,
    },
    /// Written by hand: even ranks send to their odd neighbour, which
    /// posts a blocking receive (an odd rank out sits idle); `reverse`
    /// makes the odd ranks send. With `sync` the receive's *start* is what
    /// releases the sender.
    Oneway {
        tag: Tag,
        sync: bool,
        reverse: bool,
    },
    /// Written by hand: `count` eager sends to the right before the first
    /// of `count` receives from the left, so messages pile up at the
    /// receiver.
    Burst {
        shift: u32,
        count: u32,
        tag: Tag,
        any_source: bool,
    },
    /// Written by hand: one eager message to oneself.
    SelfSend {
        tag: Tag,
    },
    /// Written by hand: `k` irecvs from the left, `k` isends to the right,
    /// then the receives waited in reverse post order, or everything in
    /// one `waitall`.
    Window {
        shift: u32,
        k: u32,
        distinct_tags: bool,
        waitall: bool,
    },
    /// Written by hand: every rank rendezvous-sends to rank 0 and receives
    /// its rendezvous reply, which orders everything before it ahead of
    /// everything after it on every pair of ranks: a barrier made of
    /// messages.
    Rendezvous {
        tag: Tag,
    },
}

/// A [`Round`] variant, for naming the shapes a strategy draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Compute,
    Skewed,
    Ring,
    RingWaitRev,
    RingAny,
    Shift,
    Pair,
    Handoff,
    GatherAny,
    GatherPinned,
    GatherSync,
    GatherIrecv,
    RequestReply,
    Barrier,
    Allreduce,
    Bcast,
    Exchange,
    Oneway,
    Burst,
    SelfSend,
    Window,
    Rendezvous,
}

/// Wildcard-free simulated programs of blocking, nonblocking and
/// collective rounds: every path of the replay engine must agree on them.
pub const SPMD: &[Shape] = &[
    Shape::Compute,
    Shape::Ring,
    Shape::RingWaitRev,
    Shape::Shift,
    Shape::Pair,
    Shape::Barrier,
    Shape::Allreduce,
    Shape::Bcast,
];

/// Wildcard gathers and rings beside specific-source shifts; never
/// deadlocks while it is traced.
pub const WILDCARD: &[Shape] = &[
    Shape::Compute,
    Shape::GatherAny,
    Shape::RingAny,
    Shape::Shift,
    Shape::Barrier,
];

/// [`WILDCARD`] with [`Shape::GatherPinned`] in place of
/// [`Shape::Shift`]. The two do not mix: the ranks a pinned gather leaves
/// out run ahead, its wildcard can take the message one of them sent for
/// a later shift, and the shift's specific receive then deadlocks the
/// *generating* simulation, before there is a trace to analyze.
pub const PINNED: &[Shape] = &[
    Shape::Compute,
    Shape::GatherAny,
    Shape::RingAny,
    Shape::GatherPinned,
    Shape::Barrier,
];

/// Every simulated wildcard shape, the gathers of all kinds and the
/// request–reply turns beside both specific-source shapes. Colliding tags
/// let a wildcard of one round take a message meant for another, which
/// can starve a specific receive while the program is traced: use
/// [`try_simulate`].
pub const ANY_WILDCARD: &[Shape] = &[
    Shape::Compute,
    Shape::GatherAny,
    Shape::RingAny,
    Shape::Shift,
    Shape::GatherPinned,
    Shape::Barrier,
    Shape::GatherSync,
    Shape::GatherIrecv,
    Shape::RequestReply,
];

/// Rounds drawn uniformly from `shapes`; a shape named twice is drawn
/// twice as often. Wildcard and request–reply rounds draw tags from `0..3`
/// (an answer travels under `tag + 3`), so they collide now and then; the
/// specific-source rings, shifts, pairs and handoffs draw from `0..4`.
pub fn round_strategy(shapes: &[Shape]) -> impl Strategy<Value = Round> {
    Union::new(shapes.iter().map(|&shape| arm(shape)).collect())
}

fn arm(shape: Shape) -> Box<dyn Strategy<Value = Round>> {
    let work = || 1u64..20_000;
    let tag = || 0u32..3;
    let wide_tag = || 0u32..4;
    let bytes = || 1u64..4_096;
    let peer = || 0u32..8;
    let flag = any::<bool>;
    match shape {
        Shape::Compute => boxed(work().prop_map(Round::Compute)),
        Shape::Skewed => boxed(work().prop_map(Round::Skewed)),
        Shape::Ring => {
            boxed((wide_tag(), bytes()).prop_map(|(tag, bytes)| Round::Ring { tag, bytes }))
        }
        Shape::RingWaitRev => {
            boxed((wide_tag(), bytes()).prop_map(|(tag, bytes)| Round::RingWaitRev { tag, bytes }))
        }
        Shape::RingAny => {
            boxed((tag(), bytes()).prop_map(|(tag, bytes)| Round::RingAny { tag, bytes }))
        }
        Shape::Shift => boxed(
            (peer(), wide_tag(), bytes()).prop_map(|(shift, tag, bytes)| Round::Shift {
                shift,
                tag,
                bytes,
            }),
        ),
        Shape::Pair => {
            boxed((wide_tag(), bytes()).prop_map(|(tag, bytes)| Round::Pair { tag, bytes }))
        }
        Shape::Handoff => boxed((0u32..24, 0u32..24, wide_tag(), bytes(), flag()).prop_map(
            |(from, hop, tag, bytes, sync)| Round::Handoff {
                from,
                hop,
                tag,
                bytes,
                sync,
            },
        )),
        Shape::GatherAny => boxed(
            (peer(), tag(), bytes()).prop_map(|(root, tag, bytes)| Round::GatherAny {
                root,
                tag,
                bytes,
            }),
        ),
        Shape::GatherPinned => boxed(
            (peer(), tag(), bytes()).prop_map(|(root, tag, bytes)| Round::GatherPinned {
                root,
                tag,
                bytes,
            }),
        ),
        Shape::GatherSync => boxed(
            (peer(), tag(), bytes()).prop_map(|(root, tag, bytes)| Round::GatherSync {
                root,
                tag,
                bytes,
            }),
        ),
        Shape::GatherIrecv => boxed(
            (peer(), tag(), bytes()).prop_map(|(root, tag, bytes)| Round::GatherIrecv {
                root,
                tag,
                bytes,
            }),
        ),
        Shape::RequestReply => boxed((peer(), tag(), bytes(), 1u32..4).prop_map(
            |(root, tag, bytes, turns)| Round::RequestReply {
                root,
                tag,
                bytes,
                turns,
            },
        )),
        Shape::Barrier => boxed(Just(Round::Barrier)),
        Shape::Allreduce => boxed((1u64..2_048).prop_map(|bytes| Round::Allreduce { bytes })),
        Shape::Bcast => {
            boxed((peer(), 1u64..2_048).prop_map(|(root, bytes)| Round::Bcast { root, bytes }))
        }
        Shape::Exchange => boxed((peer(), tag(), flag(), flag(), flag()).prop_map(
            |(shift, tag, sync, any_source, any_tag)| Round::Exchange {
                shift,
                tag,
                sync,
                any_source,
                any_tag,
            },
        )),
        Shape::Oneway => boxed(
            (tag(), flag(), flag()).prop_map(|(tag, sync, reverse)| Round::Oneway {
                tag,
                sync,
                reverse,
            }),
        ),
        Shape::Burst => boxed((peer(), 1u32..5, tag(), flag()).prop_map(
            |(shift, count, tag, any_source)| Round::Burst {
                shift,
                count,
                tag,
                any_source,
            },
        )),
        Shape::SelfSend => boxed(tag().prop_map(|tag| Round::SelfSend { tag })),
        Shape::Window => boxed((peer(), 1u32..4, flag(), flag()).prop_map(
            |(shift, k, distinct_tags, waitall)| Round::Window {
                shift,
                k,
                distinct_tags,
                waitall,
            },
        )),
        Shape::Rendezvous => boxed(tag().prop_map(|tag| Round::Rendezvous { tag })),
    }
}

/// Runs one simulated round on this rank.
///
/// # Panics
/// On a round written by hand ([`build`] writes those).
pub fn run_round(ctx: &mut RankCtx, round: &Round) {
    let p = ctx.size();
    let me = ctx.rank();
    let (left, right) = ((me + p - 1) % p, (me + 1) % p);
    match *round {
        Round::Compute(work) => ctx.compute(work),
        Round::Skewed(work) => ctx.compute(work * u64::from(1 + me % 3)),
        Round::Ring { tag, bytes } => {
            let r = ctx.irecv(left, tag);
            let s = ctx.isend(right, tag, bytes);
            ctx.waitall(&[r, s]);
        }
        Round::RingWaitRev { tag, bytes } => {
            let r = ctx.irecv(left, tag);
            let s = ctx.isend(right, tag, bytes);
            ctx.wait(s);
            ctx.wait(r);
        }
        Round::RingAny { tag, bytes } => {
            let r = ctx.irecv(ANY_SOURCE, tag);
            let s = ctx.isend(right, tag, bytes);
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
        Round::Handoff {
            from,
            hop,
            tag,
            bytes,
            sync,
        } => {
            let from = from % p;
            let to = (from + 1 + hop % (p - 1)) % p;
            if me == from && sync {
                ctx.ssend(to, tag, bytes);
            } else if me == from {
                ctx.send(to, tag, bytes);
            } else if me == to {
                ctx.recv(from, tag);
            } else {
                ctx.compute(bytes);
            }
        }
        Round::GatherAny { root, tag, bytes } | Round::GatherSync { root, tag, bytes } => {
            let root = root % p;
            if me == root {
                for _ in 1..p {
                    ctx.recv(ANY_SOURCE, tag);
                }
            } else if matches!(round, Round::GatherSync { .. }) {
                ctx.ssend(root, tag, bytes);
            } else {
                ctx.send(root, tag, bytes);
            }
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
        Round::Allreduce { bytes } => ctx.allreduce(bytes),
        Round::Bcast { root, bytes } => ctx.bcast(root % p, bytes),
        _ => panic!("{round:?} is written by hand: use `build`"),
    }
}

/// The trace of `rounds` simulated on `p` ranks (ideal clocks, a quiet
/// platform).
///
/// # Panics
/// When the program deadlocks while it is traced ([`try_simulate`] says
/// so instead).
pub fn simulate(p: u32, sim_seed: u64, rounds: &[Round]) -> MemTrace {
    try_simulate(p, sim_seed, rounds).expect("generated program simulates")
}

/// `None` when the generated program deadlocks while it is traced
/// (wildcards that collide across rounds can starve a later receive).
pub fn try_simulate(p: u32, sim_seed: u64, rounds: &[Round]) -> Option<MemTrace> {
    mpg_sim::Simulation::new(p, PlatformSignature::quiet("prop"))
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

/// The trace of `rounds` written by hand on `p` ranks: Init, every
/// round's events, Finalize, dense sequence numbers and one 10-cycle
/// event after another.
///
/// # Panics
/// On a round that only the simulator runs (everything but
/// [`Round::Compute`], [`Round::Barrier`] and the shapes from
/// [`Round::Exchange`] on).
pub fn build(p: u32, rounds: &[Round]) -> MemTrace {
    let mut trace = MemTrace::new(p as usize);
    for me in 0..p {
        let mut kinds = vec![EventKind::Init];
        let mut req = 0;
        for round in rounds {
            emit(round, me, p, &mut req, &mut kinds);
        }
        kinds.push(EventKind::Finalize);
        for (i, kind) in kinds.into_iter().enumerate() {
            let t = i as u64 * 10;
            trace.push(EventRecord {
                rank: me,
                seq: i as u64,
                t_start: t,
                t_end: t + 10,
                kind,
            });
        }
    }
    trace
}

fn send(peer: Rank, tag: Tag, protocol: SendProtocol) -> EventKind {
    EventKind::Send {
        peer,
        tag,
        bytes: 8,
        protocol,
    }
}

fn recv(peer: Rank, tag: Tag, posted_any: bool) -> EventKind {
    EventKind::Recv {
        peer,
        tag,
        bytes: 8,
        posted_any,
    }
}

/// Rank `me`'s events for one hand-written round. `req` hands out
/// request ids unique to the rank.
fn emit(round: &Round, me: Rank, p: u32, req: &mut ReqId, out: &mut Vec<EventKind>) {
    let mut fresh = || {
        *req += 1;
        *req
    };
    let neighbours = |shift: u32| {
        let shift = 1 + shift % (p - 1);
        ((me + p - shift) % p, (me + shift) % p)
    };
    let protocol = |sync| match sync {
        true => SendProtocol::Synchronous,
        false => SendProtocol::Standard,
    };
    match *round {
        Round::Compute(work) => out.push(EventKind::Compute { work }),
        Round::Barrier => out.push(EventKind::Barrier { comm_size: p }),
        Round::Exchange {
            shift,
            tag,
            sync,
            any_source,
            any_tag,
        } => {
            let (left, right) = neighbours(shift);
            let tag = if any_tag { ANY_TAG } else { tag };
            let r = fresh();
            out.push(EventKind::Irecv {
                peer: left,
                tag,
                bytes: 8,
                req: r,
                posted_any: any_source,
            });
            out.push(send(right, tag, protocol(sync)));
            out.push(EventKind::Wait { req: r });
        }
        Round::Oneway { tag, sync, reverse } => {
            let partner = me ^ 1;
            if partner >= p {
                out.push(EventKind::Compute { work: 100 });
            } else if me.is_multiple_of(2) != reverse {
                out.push(send(partner, tag, protocol(sync)));
            } else {
                out.push(recv(partner, tag, false));
            }
        }
        Round::Burst {
            shift,
            count,
            tag,
            any_source,
        } => {
            let (left, right) = neighbours(shift);
            out.extend((0..count).map(|_| send(right, tag, SendProtocol::Standard)));
            out.extend((0..count).map(|_| recv(left, tag, any_source)));
        }
        Round::SelfSend { tag } => {
            out.push(send(me, tag, SendProtocol::Standard));
            out.push(recv(me, tag, false));
        }
        Round::Window {
            shift,
            k,
            distinct_tags,
            waitall,
        } => {
            let (left, right) = neighbours(shift);
            let tag_of = |i: u32| if distinct_tags { 10 + i } else { 10 };
            let recvs: Vec<ReqId> = (0..k).map(|_| fresh()).collect();
            let sends: Vec<ReqId> = (0..k).map(|_| fresh()).collect();
            for (i, &r) in recvs.iter().enumerate() {
                out.push(EventKind::Irecv {
                    peer: left,
                    tag: tag_of(i as u32),
                    bytes: 8,
                    req: r,
                    posted_any: false,
                });
            }
            for (i, &s) in sends.iter().enumerate() {
                out.push(EventKind::Isend {
                    peer: right,
                    tag: tag_of(i as u32),
                    bytes: 8,
                    req: s,
                });
            }
            if waitall {
                let reqs = recvs.iter().chain(&sends).copied().collect();
                out.push(EventKind::WaitAll { reqs });
            } else {
                out.extend(recvs.iter().rev().map(|&req| EventKind::Wait { req }));
                out.push(EventKind::WaitAll { reqs: sends });
            }
        }
        Round::Rendezvous { tag } => {
            if me == 0 {
                out.extend((1..p).map(|r| recv(r, tag, false)));
                out.extend((1..p).map(|r| send(r, tag, SendProtocol::Synchronous)));
            } else {
                out.push(send(0, tag, SendProtocol::Synchronous));
                out.push(recv(0, tag, false));
            }
        }
        _ => panic!("{round:?} runs in the simulator: use `simulate`"),
    }
}
