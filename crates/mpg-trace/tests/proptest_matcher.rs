//! Property test: [`EnvelopeMatcher`] against the linear-scan reference in
//! `shared/match_reference.rs`, which states the matching rules. Over random
//! operation sequences (wildcard sources and tags, far and sparse ranks) the
//! matcher must return the same pair or probed message at every step and
//! agree on `candidate_sources`, the counts and the `into_unmatched` order,
//! with wildcard patterns and with concrete ones.

#[path = "shared/match_reference.rs"]
mod match_reference;

use match_reference::{RefRecv, RefSend, Reference};
use mpg_trace::{EnvelopeMatcher, Rank, RecvEnvelope, SendEnvelope, Tag, ANY_SOURCE, ANY_TAG};
use proptest::prelude::*;

impl SendEnvelope for RefSend {
    fn src(&self) -> Rank {
        self.src
    }
    fn dst(&self) -> Rank {
        self.dst
    }
    fn tag(&self) -> Tag {
        self.tag
    }
    fn arrival(&self) -> u64 {
        self.arrival
    }
}

impl RecvEnvelope for RefRecv {
    fn dst(&self) -> Rank {
        self.dst
    }
    fn src_pattern(&self) -> Rank {
        self.src_pattern
    }
    fn tag_pattern(&self) -> Tag {
        self.tag_pattern
    }
}

/// The same receive with a concrete pattern (rule 4).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Concrete(RefRecv);

impl RecvEnvelope for Concrete {
    const CONCRETE: bool = true;

    fn dst(&self) -> Rank {
        self.0.dst
    }
    fn src_pattern(&self) -> Rank {
        self.0.src_pattern
    }
    fn tag_pattern(&self) -> Tag {
        self.0.tag_pattern
    }
}

#[derive(Debug, Clone)]
enum Op {
    Send {
        src: Rank,
        dst: Rank,
        tag: Tag,
        arrival: u64,
    },
    Recv {
        dst: Rank,
        src_pattern: Rank,
        tag_pattern: Tag,
    },
    /// A blocking receive's probe: take the match, post nothing.
    Probe {
        dst: Rank,
        src_pattern: Rank,
        tag_pattern: Tag,
    },
}

/// A few near ranks so channels collide, plus ranks no dense table could
/// hold.
fn rank() -> impl Strategy<Value = Rank> {
    (0u32..6).prop_map(|r| match r {
        4 => 1_000_000,
        5 => Rank::MAX - 1,
        near => near,
    })
}

/// A receive's `(dst, src, tag)`, wildcards included.
fn pattern() -> impl Strategy<Value = (Rank, Rank, Tag)> {
    (
        rank(),
        prop_oneof![rank(), rank(), Just(ANY_SOURCE)],
        prop_oneof![0u32..3, 0u32..3, Just(ANY_TAG)],
    )
}

fn op() -> impl Strategy<Value = Op> {
    // Few distinct arrivals, so wildcard ties on arrival really happen; the
    // wildcard values as a send's source or tag, which only a concrete
    // pattern can name.
    let send = (
        prop_oneof![rank(), rank(), Just(ANY_SOURCE)],
        rank(),
        prop_oneof![0u32..3, 0u32..3, Just(ANY_TAG)],
        0u64..4,
    )
        .prop_map(|(src, dst, tag, arrival)| Op::Send {
            src,
            dst,
            tag,
            arrival,
        });
    let recv = pattern().prop_map(|(dst, src_pattern, tag_pattern)| Op::Recv {
        dst,
        src_pattern,
        tag_pattern,
    });
    let probe = pattern().prop_map(|(dst, src_pattern, tag_pattern)| Op::Probe {
        dst,
        src_pattern,
        tag_pattern,
    });
    prop_oneof![send, recv, probe]
}

/// Drives a matcher over receive type `R` (`wrap`/`unwrap` convert from and
/// to the reference's receive) and the reference through `ops`.
fn agree<R: RecvEnvelope + Clone + std::fmt::Debug>(
    ops: Vec<Op>,
    concrete: bool,
    wrap: fn(RefRecv) -> R,
    unwrap: fn(R) -> RefRecv,
) {
    let pair = |p: Option<(RefSend, R)>| p.map(|(m, pr)| (m, unwrap(pr)));
    let mut matcher = EnvelopeMatcher::<RefSend, R>::new();
    let mut reference = Reference::new(concrete);
    for (id, op) in ops.into_iter().enumerate() {
        match op {
            Op::Send {
                src,
                dst,
                tag,
                arrival,
            } => {
                let msg = RefSend {
                    id,
                    src,
                    dst,
                    tag,
                    arrival,
                };
                prop_assert_eq!(
                    pair(matcher.post_send(msg.clone())),
                    reference.post_send(msg)
                );
            }
            Op::Recv {
                dst,
                src_pattern,
                tag_pattern,
            } => {
                let pr = RefRecv {
                    id,
                    dst,
                    src_pattern,
                    tag_pattern,
                };
                prop_assert_eq!(
                    matcher.candidate_sources(&wrap(pr.clone())),
                    reference.candidate_sources(&pr)
                );
                prop_assert_eq!(
                    pair(matcher.post_recv(wrap(pr.clone()))),
                    reference.post_recv(pr)
                );
            }
            Op::Probe {
                dst,
                src_pattern,
                tag_pattern,
            } => {
                let pr = RefRecv {
                    id,
                    dst,
                    src_pattern,
                    tag_pattern,
                };
                prop_assert_eq!(
                    matcher.take_match(&wrap(pr.clone())),
                    reference.take_match(&pr)
                );
            }
        }
        prop_assert_eq!(matcher.in_flight_count(), reference.sends.len());
        prop_assert_eq!(matcher.posted_count(), reference.recvs.len());
        prop_assert_eq!(matcher.iter_in_flight().count(), reference.sends.len());
        prop_assert_eq!(matcher.iter_posted().count(), reference.recvs.len());
    }
    // A copy made over a matcher with other contents is the same matcher.
    let mut copy = EnvelopeMatcher::<RefSend, R>::new();
    copy.post_send(RefSend {
        id: usize::MAX,
        src: 0,
        dst: 1,
        tag: 0,
        arrival: 0,
    });
    copy.post_recv(wrap(RefRecv {
        id: usize::MAX,
        dst: 2,
        src_pattern: 0,
        tag_pattern: 0,
    }));
    copy.clone_from(&matcher);
    let unwrap_all = |(sends, recvs): (Vec<RefSend>, Vec<R>)| {
        (sends, recvs.into_iter().map(unwrap).collect::<Vec<_>>())
    };
    let expected = reference.into_unmatched();
    prop_assert_eq!(&unwrap_all(copy.into_unmatched()), &expected);
    prop_assert_eq!(&unwrap_all(matcher.into_unmatched()), &expected);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn matcher_agrees_with_linear_scan_reference(ops in prop::collection::vec(op(), 0..80)) {
        agree(ops, false, |pr| pr, |pr| pr);
    }

    #[test]
    fn concrete_matcher_agrees_with_linear_scan_reference(
        ops in prop::collection::vec(op(), 0..80)
    ) {
        agree(ops, true, Concrete, |c| c.0);
    }
}
