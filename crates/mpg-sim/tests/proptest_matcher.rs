//! Property test: [`EnvelopeMatcher`] against a linear-scan reference.
//!
//! The reference keeps two flat lists in post order and restates the rules
//! literally — non-overtaking per channel, earliest posted receive,
//! earliest-arrival-then-lowest-source wildcard arbitration. Over random
//! operation sequences (wildcard sources and tags, far and sparse ranks)
//! the matcher must return the same pair at every step and agree on
//! `candidate_sources`, the counts and the `into_unmatched` order.

use mpg_sim::{EnvelopeMatcher, RecvEnvelope, SendEnvelope};
use mpg_trace::{Rank, Tag, ANY_SOURCE, ANY_TAG};
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Send {
    id: usize,
    src: Rank,
    dst: Rank,
    tag: Tag,
    arrival: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Recv {
    id: usize,
    dst: Rank,
    src_pattern: Rank,
    tag_pattern: Tag,
}

impl SendEnvelope for Send {
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

impl RecvEnvelope for Recv {
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

#[derive(Default)]
struct Reference {
    sends: Vec<Send>,
    recvs: Vec<Recv>,
}

impl Reference {
    fn post_send(&mut self, msg: Send) -> Option<(Send, Recv)> {
        let hit = self
            .recvs
            .iter()
            .position(|pr| pr.dst == msg.dst && pr.accepts(msg.src, msg.tag));
        match hit {
            Some(i) => Some((msg, self.recvs.remove(i))),
            None => {
                self.sends.push(msg);
                None
            }
        }
    }

    /// Indices of the sends `pr` could take: per source, the first accepted
    /// one in send order.
    fn heads(&self, pr: &Recv) -> Vec<usize> {
        let mut seen: Vec<Rank> = Vec::new();
        let mut heads = Vec::new();
        for (i, m) in self.sends.iter().enumerate() {
            if m.dst == pr.dst && pr.accepts(m.src, m.tag) && !seen.contains(&m.src) {
                seen.push(m.src);
                heads.push(i);
            }
        }
        heads
    }

    fn post_recv(&mut self, pr: Recv) -> Option<(Send, Recv)> {
        let best = self
            .heads(&pr)
            .into_iter()
            .min_by_key(|&i| (self.sends[i].arrival, self.sends[i].src));
        match best {
            Some(i) => Some((self.sends.remove(i), pr)),
            None => {
                self.recvs.push(pr);
                None
            }
        }
    }

    fn candidate_sources(&self, pr: &Recv) -> Vec<Rank> {
        let mut srcs: Vec<Rank> = self
            .heads(pr)
            .into_iter()
            .map(|i| self.sends[i].src)
            .collect();
        srcs.sort_unstable();
        srcs
    }

    fn into_unmatched(mut self) -> (Vec<Send>, Vec<Recv>) {
        self.sends.sort_by_key(|m| (m.src, m.dst));
        self.recvs.sort_by_key(|pr| pr.dst);
        (self.sends, self.recvs)
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

fn op() -> impl Strategy<Value = Op> {
    // Few distinct arrivals, so wildcard ties on arrival really happen.
    let send = (rank(), rank(), 0u32..3, 0u64..4).prop_map(|(src, dst, tag, arrival)| Op::Send {
        src,
        dst,
        tag,
        arrival,
    });
    let recv = (
        rank(),
        prop_oneof![rank(), rank(), Just(ANY_SOURCE)],
        prop_oneof![0u32..3, 0u32..3, Just(ANY_TAG)],
    )
        .prop_map(|(dst, src_pattern, tag_pattern)| Op::Recv {
            dst,
            src_pattern,
            tag_pattern,
        });
    prop_oneof![send, recv]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn matcher_agrees_with_linear_scan_reference(ops in prop::collection::vec(op(), 0..80)) {
        let mut matcher = EnvelopeMatcher::<Send, Recv>::new();
        let mut reference = Reference::default();
        for (id, op) in ops.into_iter().enumerate() {
            match op {
                Op::Send { src, dst, tag, arrival } => {
                    let msg = Send { id, src, dst, tag, arrival };
                    prop_assert_eq!(matcher.post_send(msg.clone()), reference.post_send(msg));
                }
                Op::Recv { dst, src_pattern, tag_pattern } => {
                    let pr = Recv { id, dst, src_pattern, tag_pattern };
                    prop_assert_eq!(
                        matcher.candidate_sources(&pr),
                        reference.candidate_sources(&pr)
                    );
                    prop_assert_eq!(matcher.post_recv(pr.clone()), reference.post_recv(pr));
                }
            }
            prop_assert_eq!(matcher.in_flight_count(), reference.sends.len());
            prop_assert_eq!(matcher.posted_count(), reference.recvs.len());
            prop_assert_eq!(matcher.iter_in_flight().count(), reference.sends.len());
            prop_assert_eq!(matcher.iter_posted().count(), reference.recvs.len());
        }
        // A copy made over a matcher with other contents is the same matcher.
        let mut copy = EnvelopeMatcher::<Send, Recv>::new();
        copy.post_send(Send { id: usize::MAX, src: 0, dst: 1, tag: 0, arrival: 0 });
        copy.post_recv(Recv { id: usize::MAX, dst: 2, src_pattern: 0, tag_pattern: 0 });
        copy.clone_from(&matcher);
        let expected = reference.into_unmatched();
        prop_assert_eq!(&copy.into_unmatched(), &expected);
        prop_assert_eq!(&matcher.into_unmatched(), &expected);
    }
}
