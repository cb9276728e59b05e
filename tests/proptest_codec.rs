//! Property tests on the trace codec: arbitrary record sequences must
//! round-trip exactly through encode → decode, bare and framed.

use proptest::prelude::*;

use mpg::trace::codec::{Decoder, Encoder};
use mpg::trace::{EventKind, EventRecord, FrameCursor, TraceWriter};

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Init),
        Just(EventKind::Finalize),
        any::<u64>().prop_map(|work| EventKind::Compute {
            work: work % (1 << 40)
        }),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u8>()).prop_map(
            |(peer, tag, bytes, pr)| EventKind::Send {
                peer,
                tag,
                bytes,
                protocol: match pr % 4 {
                    0 => mpg::trace::SendProtocol::Standard,
                    1 => mpg::trace::SendProtocol::Synchronous,
                    2 => mpg::trace::SendProtocol::Buffered,
                    _ => mpg::trace::SendProtocol::Ready,
                },
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<bool>()).prop_map(
            |(peer, tag, bytes, posted_any)| EventKind::Recv {
                peer,
                tag,
                bytes,
                posted_any
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
            |(peer, tag, bytes, req)| EventKind::Isend {
                peer,
                tag,
                bytes,
                req
            }
        ),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(|(peer, tag, bytes, req, posted_any)| EventKind::Irecv {
                peer,
                tag,
                bytes,
                req,
                posted_any
            }),
        any::<u64>().prop_map(|req| EventKind::Wait { req }),
        prop::collection::vec(any::<u64>(), 0..20).prop_map(|reqs| EventKind::WaitAll { reqs }),
        (
            prop::collection::vec(any::<u64>(), 0..10),
            prop::collection::vec(any::<u64>(), 0..10)
        )
            .prop_map(|(reqs, completed)| EventKind::WaitSome { reqs, completed }),
        any::<u32>().prop_map(|comm_size| EventKind::Barrier { comm_size }),
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(root, bytes, comm_size)| {
            EventKind::Bcast {
                root,
                bytes,
                comm_size,
            }
        }),
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(root, bytes, comm_size)| {
            EventKind::Reduce {
                root,
                bytes,
                comm_size,
            }
        }),
        (any::<u64>(), any::<u32>())
            .prop_map(|(bytes, comm_size)| EventKind::Allreduce { bytes, comm_size }),
    ]
}

/// Builds a monotone event sequence from (gap, duration) pairs.
fn records(raw: Vec<(u32, u32, EventKind)>) -> Vec<EventRecord> {
    let mut t = 0u64;
    raw.into_iter()
        .enumerate()
        .map(|(i, (gap, dur, kind))| {
            let t_start = t + u64::from(gap);
            let t_end = t_start + u64::from(dur);
            t = t_end;
            EventRecord {
                rank: 3,
                seq: i as u64,
                t_start,
                t_end,
                kind,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn encode_decode_roundtrip(
        raw in prop::collection::vec((any::<u32>(), any::<u32>(), kind_strategy()), 0..60)
    ) {
        let recs = records(raw);
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        for r in &recs {
            enc.encode(r, &mut buf);
        }
        let mut dec = Decoder::new(3);
        let mut slice = buf.as_slice();
        let mut out = Vec::new();
        while let Some(r) = dec.decode(&mut slice).unwrap() {
            out.push(r);
        }
        prop_assert_eq!(out, recs);
    }

    /// The strict decoder must produce identical records no matter where
    /// the writer's buffer size puts the frame boundaries.
    #[test]
    fn framed_roundtrip_is_frame_size_invariant(
        raw in prop::collection::vec((any::<u32>(), any::<u32>(), kind_strategy()), 1..40),
        buffer in 1usize..512,
    ) {
        let recs = records(raw);
        let mut w = TraceWriter::new(Vec::new(), buffer);
        for r in &recs {
            w.record(r).unwrap();
        }
        let got: Vec<EventRecord> = FrameCursor::from_bytes(w.finish().unwrap(), 3)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(got, recs);
    }
}
