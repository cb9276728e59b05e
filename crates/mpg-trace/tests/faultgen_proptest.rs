//! Fault-injection property tests: the reading paths must never panic on
//! untrusted bytes, and salvage must recover everything the damage did not
//! actually touch — specifically, 100% of the frames preceding the first
//! corrupted byte (ISSUE acceptance criterion).

use proptest::prelude::*;

use mpg_trace::frame::{checked_frame_at, FOOTER_MARKER, MAGIC2};
use mpg_trace::{
    mutate_bytes, salvage_bytes, EventKind, EventRecord, FaultKind, FrameCursor, TraceWriter,
};

fn rec(seq: u64, gap: u64, dur: u64, work: u64) -> EventRecord {
    EventRecord {
        rank: 0,
        seq,
        t_start: seq * (gap + dur),
        t_end: seq * (gap + dur) + dur,
        kind: EventKind::Compute { work },
    }
}

/// A sealed v2 stream whose frame count varies with `buffer_bytes`.
fn build(n: u64, gap: u64, dur: u64, buffer_bytes: usize) -> (Vec<EventRecord>, Vec<u8>) {
    let records: Vec<_> = (0..n).map(|i| rec(i, gap, dur, dur)).collect();
    let mut w = TraceWriter::new(Vec::new(), buffer_bytes);
    for r in &records {
        w.record(r).unwrap();
    }
    (records, w.finish().unwrap())
}

/// Drains the strict decoder; Ok records or an Err are both acceptable —
/// the property is only "no panic, no hang".
fn drain_strict(bytes: &[u8]) {
    if let Ok(cursor) = FrameCursor::from_bytes(bytes.to_vec(), 0) {
        for item in cursor.take(1 << 17) {
            if item.is_err() {
                break;
            }
        }
    }
}

/// Byte-level operators (everything but the directory-level DeleteRank).
fn kind_strategy() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Truncate),
        Just(FaultKind::BitFlip),
        Just(FaultKind::FrameDrop),
        Just(FaultKind::FrameDup),
        Just(FaultKind::FrameSwap),
        Just(FaultKind::GarbageSplice),
        Just(FaultKind::IoError),
        Just(FaultKind::Delay),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// (a) Arbitrary byte soup: neither the strict decoder nor the salvage
    /// reader may panic, whatever the bytes say.
    #[test]
    fn readers_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        drain_strict(&bytes);
        let (records, report) = salvage_bytes(0, &bytes);
        prop_assert_eq!(records.len() as u64, report.records_recovered);
    }

    /// Arbitrary bytes behind a known magic header: exercises the frame
    /// walk (and the refusal of the retired `MPG1` magic) specifically, not
    /// just the magic sniff.
    #[test]
    fn readers_never_panic_behind_valid_magic(
        v2 in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut bytes = if v2 { MAGIC2.to_vec() } else { b"MPG1".to_vec() };
        bytes.extend_from_slice(&body);
        drain_strict(&bytes);
        let _ = salvage_bytes(0, &bytes);
    }

    /// (b) Valid traces damaged by every faultgen operator: no panic, and
    /// every record salvage returns is genuine — byte-identical to the
    /// original at its seq, with seqs strictly increasing.
    #[test]
    fn mutated_traces_salvage_soundly(
        kind in kind_strategy(),
        seed in any::<u64>(),
        n in 20u64..400,
        buffer in 32usize..512,
    ) {
        let (records, bytes) = build(n, 3, 7, buffer);
        let (bad, desc) = mutate_bytes(&bytes, kind, seed).unwrap();
        drain_strict(&bad);
        let (out, report) = salvage_bytes(0, &bad);
        prop_assert_eq!(out.len() as u64, report.records_recovered, "{}", desc);
        for r in &out {
            prop_assert_eq!(r, &records[r.seq as usize], "{}: seq {} diverged", desc, r.seq);
        }
        prop_assert!(
            out.windows(2).all(|w| w[0].seq < w[1].seq),
            "{}: seqs not strictly increasing", desc
        );
    }

    /// Salvage recovers 100% of the frames that precede the first
    /// corrupted byte: damage never propagates backwards.
    #[test]
    fn frames_before_first_corruption_fully_recovered(
        kind in kind_strategy(),
        seed in any::<u64>(),
        n in 50u64..400,
        buffer in 32usize..256,
    ) {
        let (_, bytes) = build(n, 3, 7, buffer);
        let (bad, desc) = mutate_bytes(&bytes, kind, seed).unwrap();
        // First byte offset where the damaged stream differs (truncation
        // counts as differing at its cut point).
        let first_diff = bytes
            .iter()
            .zip(bad.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| bytes.len().min(bad.len()));
        // Frames are dense and consecutive: frame i carries seqs
        // [first_seq_i, first_seq_{i+1}). The intact prefix is every frame
        // ending at or before first_diff, so its coverage is the first_seq
        // of the first frame extending past the damage point (or all n
        // records when only the footer region was touched).
        let mut pos = 4usize;
        let mut covered = n;
        while pos < bytes.len() && bytes[pos] != FOOTER_MARKER {
            let (payload, total) = checked_frame_at(&bytes[pos..]).expect("valid fixture");
            if pos + total > first_diff {
                let (mut fs, mut shift) = (0u64, 0u32);
                for &b in payload {
                    fs |= u64::from(b & 0x7F) << shift;
                    if b & 0x80 == 0 { break; }
                    shift += 7;
                }
                covered = fs;
                break;
            }
            pos += total;
        }
        let (out, _) = salvage_bytes(0, &bad);
        let have: std::collections::HashSet<u64> = out.iter().map(|r| r.seq).collect();
        for s in 0..covered {
            prop_assert!(
                have.contains(&s),
                "{}: seq {} was in an intact frame (first diff at byte {}) but was lost",
                desc, s, first_diff
            );
        }
    }
}
