//! Property test: replay's `MatchState` against the linear-scan matching
//! reference in its concrete-pattern mode (rule 4 of
//! `mpg-trace/tests/shared/match_reference.rs`). Sends are offered, irecvs
//! posted and blocking receives probed in random order over near, far and
//! wildcard-valued ranks and tags; at every step the engine's state must
//! pair the same records and print the same window (`retained`,
//! `high_water`, unmatched counts).

#[path = "../../mpg-trace/tests/shared/match_reference.rs"]
mod match_reference;

use match_reference::{RefRecv, RefSend, Reference};
use mpg_core::stream::{MatchState, PendingRecv, SendRecord, SenderRef};
use mpg_core::NodeId;
use mpg_trace::{Rank, Tag, ANY_SOURCE, ANY_TAG};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Send { src: Rank, dst: Rank, tag: Tag },
    Irecv { src: Rank, dst: Rank, tag: Tag },
    Recv { src: Rank, dst: Rank, tag: Tag },
}

fn rank() -> impl Strategy<Value = Rank> {
    (0u32..6).prop_map(|r| match r {
        4 => 1_000_000,
        5 => ANY_SOURCE,
        near => near,
    })
}

fn tag() -> impl Strategy<Value = Tag> {
    prop_oneof![0u32..3, 0u32..3, Just(ANY_TAG)]
}

fn op() -> impl Strategy<Value = Op> {
    (0u32..3, rank(), rank(), tag()).prop_map(|(kind, src, dst, tag)| match kind {
        0 => Op::Send { src, dst, tag },
        1 => Op::Irecv { src, dst, tag },
        _ => Op::Recv { src, dst, tag },
    })
}

fn record(id: usize, src: Rank, dst: Rank, tag: Tag) -> SendRecord {
    SendRecord {
        src,
        dst,
        tag,
        bytes: id as u64,
        d_src: 0,
        d_msg: 0,
        ack_lambda: 0,
        sender: SenderRef::Done,
        src_node: NodeId::start(0, 0),
        send_start_local: 0,
    }
}

fn pending(id: usize, src: Rank, dst: Rank, tag: Tag) -> PendingRecv {
    PendingRecv {
        src,
        tag,
        req: id as _,
        rank: dst,
        d_posted: 0,
        end_node: NodeId::end(0, 0),
    }
}

fn ref_recv(id: usize, src: Rank, dst: Rank, tag: Tag) -> RefRecv {
    RefRecv {
        id,
        dst,
        src_pattern: src,
        tag_pattern: tag,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn match_state_agrees_with_concrete_reference(ops in prop::collection::vec(op(), 0..80)) {
        let mut state = MatchState::new();
        let mut reference = Reference::new(true);
        let sent = |rec: SendRecord| rec.bytes as usize;
        let sent_id = |m: RefSend| m.id;
        for (id, op) in ops.into_iter().enumerate() {
            match op {
                Op::Send { src, dst, tag } => {
                    let got = state
                        .offer_send(record(id, src, dst, tag))
                        .map(|(rec, pr)| (sent(rec), pr.req as usize));
                    let want = reference
                        .post_send(RefSend { id, src, dst, tag, arrival: 0 })
                        .map(|(m, pr)| (m.id, pr.id));
                    prop_assert_eq!(got, want);
                }
                Op::Irecv { src, dst, tag } => {
                    let got = state.post_recv(pending(id, src, dst, tag)).map(sent);
                    let want = reference
                        .post_recv(ref_recv(id, src, dst, tag))
                        .map(|(m, _)| m.id);
                    prop_assert_eq!(got, want);
                }
                Op::Recv { src, dst, tag } => {
                    let got = state.take_send(src, dst, tag).map(sent);
                    let want = reference.take_match(&ref_recv(id, src, dst, tag)).map(sent_id);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(state.retained(), reference.retained());
            prop_assert_eq!(state.high_water(), reference.high_water());
            prop_assert_eq!(state.unmatched_sends(), reference.sends.len());
            prop_assert_eq!(state.unmatched_recvs(), reference.recvs.len());
        }
    }
}
