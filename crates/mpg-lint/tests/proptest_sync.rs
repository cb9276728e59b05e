//! Property test: pass 7 read off happens-before thresholds equals pass 7
//! asked pair by pair.
//!
//! `lint_sync` decides `MPG-REDUNDANT-SYNC` from one forbidden-match
//! threshold per send and `MPG-BUFFER-WATERMARK` from residency intervals
//! (DESIGN.md §19). The reference is the pass it replaced, kept verbatim in
//! `shared/sync_reference.rs`: every envelope-compatible `(receive, send)`
//! pair materialised and re-asked under each bypassed index, every message
//! of a receiver asked at every receive-completion point. Both run on the
//! same context and must render the same diagnostics — barrier verdicts,
//! peak, the point of the peak, involved ranks, order.
//!
//! No demo or `gen` workload contains a barrier, so the programs here are
//! built event by event: barriers (some already implied by rendezvous
//! round-trips, some not), eager and synchronous sends, `ANY_SOURCE` and
//! `ANY_TAG` receives, self-sends, bursts of eager sends ahead of their
//! receives, irecvs waited out of post order and `waitall`s.

use mpg_lint::{lint_sync, LintContext, SyncOptions};
use mpg_trace::{EventKind, EventRecord, MemTrace, Rank, ReqId, Rule, SendProtocol, Tag, ANY_TAG};
use proptest::prelude::*;

#[path = "shared/sync_reference.rs"]
mod reference;

#[path = "shared/full_index.rs"]
mod full_index;

/// One SPMD round; every rank appends its share, so blocking calls always
/// have a partner and the program cannot deadlock.
#[derive(Debug, Clone)]
enum Round {
    Compute,
    Barrier,
    /// Irecv from `shift` ranks to the left, one send to the right, wait.
    Exchange {
        shift: u32,
        tag: Tag,
        /// The send is a rendezvous (`MPI_Ssend`).
        sync: bool,
        any_source: bool,
        /// The receive's tag pattern is `ANY_TAG`, and so is the send's tag:
        /// the recording replay pairs tags by equality (real traces record
        /// the matched tag), while pass 7 reads the receive's as a pattern
        /// that admits every send on the channel.
        any_tag: bool,
    },
    /// Even ranks send to their odd neighbour, which posts a blocking
    /// receive (an odd rank out sits idle). With `sync` the receive's
    /// *start* is what releases the sender.
    Pair {
        tag: Tag,
        sync: bool,
        /// Odd ranks send instead.
        reverse: bool,
    },
    /// `count` eager sends to the right before the first of `count`
    /// receives from the left: messages pile up at the receiver.
    Burst {
        shift: u32,
        count: u32,
        tag: Tag,
        any_source: bool,
    },
    /// One eager message to oneself.
    SelfSend {
        tag: Tag,
    },
    /// `k` irecvs from the left, `k` isends to the right, then the receives
    /// waited in reverse post order, or everything in one `waitall`.
    Window {
        shift: u32,
        k: u32,
        distinct_tags: bool,
        waitall: bool,
    },
    /// Every rank rendezvous-sends to rank 0 and receives its rendezvous
    /// reply: orders everything before it ahead of everything after it, on
    /// every pair of ranks — a barrier made of messages.
    Rendezvous {
        tag: Tag,
    },
}

fn round_strategy() -> impl Strategy<Value = Round> {
    let flag = any::<bool>;
    prop_oneof![
        Just(Round::Compute),
        Just(Round::Barrier),
        Just(Round::Barrier),
        (0u32..4, 0u32..3, flag(), flag(), flag()).prop_map(
            |(shift, tag, sync, any_source, any_tag)| Round::Exchange {
                shift,
                tag,
                sync,
                any_source,
                any_tag,
            }
        ),
        (0u32..3, flag(), flag()).prop_map(|(tag, sync, reverse)| Round::Pair {
            tag,
            sync,
            reverse
        }),
        (0u32..4, 1u32..5, 0u32..3, flag()).prop_map(|(shift, count, tag, any_source)| {
            Round::Burst {
                shift,
                count,
                tag,
                any_source,
            }
        }),
        (0u32..3).prop_map(|tag| Round::SelfSend { tag }),
        (0u32..4, 1u32..4, flag(), flag()).prop_map(|(shift, k, distinct_tags, waitall)| {
            Round::Window {
                shift,
                k,
                distinct_tags,
                waitall,
            }
        }),
        (0u32..3).prop_map(|tag| Round::Rendezvous { tag }),
    ]
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

/// Rank `me`'s events for one round. `req` hands out request ids unique
/// to the rank.
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
        Round::Compute => out.push(EventKind::Compute { work: 100 }),
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
        Round::Pair { tag, sync, reverse } => {
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
    }
}

/// The trace of `rounds` on `p` ranks: Init, every round's events,
/// Finalize, dense sequence numbers and monotone clocks.
fn build(p: u32, rounds: &[Round]) -> MemTrace {
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

/// Both implementations over one context, at watermarks low enough that
/// every receiver's peak is rendered. Returns the diagnostics at the
/// lowest.
fn check(trace: &MemTrace) -> Result<Vec<mpg_trace::Diagnostic>, String> {
    let ctx = LintContext::build(trace);
    if !ctx.progress.matching.completed {
        return Err("generated program does not run to completion".into());
    }
    let (Some(graph), Some(hb)) = (ctx.graph.as_ref(), ctx.hb.as_ref()) else {
        return Err(format!("no graph recorded: {:?}", ctx.graph_error));
    };
    let matching = &ctx.progress.matching;
    let mut lowest = Vec::new();
    for watermark in [8, 2, 0] {
        let opts = SyncOptions { watermark };
        lowest = lint_sync(trace, graph, hb, matching, &opts);
        let expected = reference::lint_sync(trace, graph, hb, matching, &opts);
        if lowest != expected {
            return Err(format!(
                "watermark {watermark}: thresholds give {lowest:#?}, pairwise scans give {expected:#?}"
            ));
        }
    }
    Ok(lowest)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn thresholds_equal_pairwise_scans(
        p in 2u32..6,
        rounds in prop::collection::vec(round_strategy(), 1..9),
    ) {
        let checked = check(&build(p, &rounds));
        prop_assert!(checked.is_ok(), "{} on {p} ranks: {rounds:?}", checked.unwrap_err());
    }

    /// Every pass and the explorer read the same off the lint context's
    /// column-restricted index as off the all-columns one
    /// (`shared/full_index.rs`).
    #[test]
    fn projected_index_lints_like_the_full_one(
        p in 2u32..6,
        rounds in prop::collection::vec(round_strategy(), 1..9),
    ) {
        let checked = full_index::projected_lints_like_full(&build(p, &rounds));
        prop_assert!(checked.is_ok(), "{} on {p} ranks: {rounds:?}", checked.unwrap_err());
    }
}

fn flagged_barriers(p: u32, rounds: &[Round]) -> usize {
    check(&build(p, rounds))
        .expect("both implementations agree")
        .iter()
        .filter(|d| d.rule == Rule::RedundantSync)
        .count()
}

/// The generator reaches both verdicts: a barrier right after a rendezvous
/// round-trip orders nothing new, one between two eager exchanges on the
/// same channel does. So does one that forbids a receive completing
/// exactly at the send's bypassed horizon — the case a `<=` for the `<` in
/// the per-barrier check would flag.
#[test]
fn implied_barrier_is_flagged_and_load_bearing_ones_are_not() {
    let exchange = |sync| Round::Exchange {
        shift: 0,
        tag: 0,
        sync,
        any_source: false,
        any_tag: false,
    };
    let implied = [
        exchange(false),
        Round::Rendezvous { tag: 1 },
        Round::Barrier,
        exchange(false),
    ];
    assert_eq!(flagged_barriers(3, &implied), 1);
    let load_bearing = [exchange(false), Round::Barrier, exchange(false)];
    assert_eq!(flagged_barriers(3, &load_bearing), 0);
    // Rank 1: the reply's receive, then the receive the barrier shields
    // from rank 0's second tag-0 send. Without the barrier that send waits
    // for the first of the two only.
    let on_the_horizon = [
        Round::Rendezvous { tag: 2 },
        Round::Pair {
            tag: 0,
            sync: false,
            reverse: false,
        },
        Round::Barrier,
        exchange(true),
    ];
    assert_eq!(flagged_barriers(2, &on_the_horizon), 0);
}
