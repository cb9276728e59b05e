//! Salvage reader: best-effort recovery of damaged trace streams.
//!
//! The strict decoder ([`crate::ooc`]) refuses the first defect it sees —
//! correct for pipelines, useless for a post-mortem where the trace *is*
//! the crash evidence. This module reads what the strict decoder rejects:
//! it walks a byte buffer frame by frame, resynchronizes to the next
//! CRC-valid frame after a torn or corrupt region, reorders and
//! deduplicates surviving frames by their recorded first sequence number,
//! and reports exactly what was lost in a [`RankSalvage`]. It never
//! returns an error and never panics on untrusted bytes: any input, even
//! random garbage, yields a (possibly empty) record list plus an honest
//! damage report.
//!
//! Salvage operates on a fully-read byte buffer rather than a stream:
//! resynchronization needs random access, and recovery is a cold path run
//! on files that already fit the writer's evidence (one file per rank).

use crate::codec::{get_varint, Decoder};
use crate::event::EventRecord;
use crate::frame::{checked_frame_at, Footer, FOOTER_LEN, FOOTER_MARKER, FRAME_MARKER, MAGIC2};

/// What the end of a salvaged stream looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealStatus {
    /// A valid footer was found (the writer finished cleanly).
    Sealed,
    /// No footer: the writer crashed or the tail was lost.
    Unsealed,
    /// The rank's file is absent entirely.
    Missing,
}

impl SealStatus {
    /// Stable lower-case name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            SealStatus::Sealed => "sealed",
            SealStatus::Unsealed => "unsealed",
            SealStatus::Missing => "missing",
        }
    }
}

/// Damage report for one rank's salvaged stream.
#[derive(Debug, Clone)]
pub struct RankSalvage {
    /// Rank the stream belongs to.
    pub rank: u32,
    /// Whether the rank's file existed at all.
    pub present: bool,
    /// Size of the file in bytes (0 when missing).
    pub file_len: u64,
    /// Seal state of the stream's tail.
    pub seal: SealStatus,
    /// CRC-valid frames whose records were recovered.
    pub frames_recovered: u64,
    /// Frames lost: one per corrupt byte region skipped, plus any
    /// duplicate/overlapping frames discarded during reordering.
    pub frames_dropped: u64,
    /// Bytes skipped while resynchronizing past damage.
    pub bytes_skipped: u64,
    /// Records decoded successfully.
    pub records_recovered: u64,
    /// Records known lost, from sequence-number gaps between surviving
    /// frames and (when sealed) the footer's total record count.
    pub records_lost: u64,
    /// Whether the stream ended mid-frame (torn tail).
    pub truncated_tail: bool,
    /// Human-readable damage notes.
    pub notes: Vec<String>,
}

impl RankSalvage {
    fn new(rank: u32) -> Self {
        Self {
            rank,
            present: true,
            file_len: 0,
            seal: SealStatus::Unsealed,
            frames_recovered: 0,
            frames_dropped: 0,
            bytes_skipped: 0,
            records_recovered: 0,
            records_lost: 0,
            truncated_tail: false,
            notes: Vec::new(),
        }
    }

    /// Report for a rank whose file is missing entirely.
    pub fn missing(rank: u32) -> Self {
        let mut s = Self::new(rank);
        s.present = false;
        s.seal = SealStatus::Missing;
        s.notes.push("rank file missing".into());
        s
    }

    /// True when the stream needed no recovery at all: every byte
    /// accounted for, nothing lost, and a clean seal.
    pub fn is_clean(&self) -> bool {
        self.present
            && self.frames_dropped == 0
            && self.bytes_skipped == 0
            && self.records_lost == 0
            && !self.truncated_tail
            && self.notes.is_empty()
            && self.seal == SealStatus::Sealed
    }

    /// One-line damage summary, e.g. for `mpgtool fsck` output.
    pub fn summary(&self) -> String {
        if !self.present {
            return format!("rank {}: file missing", self.rank);
        }
        format!(
            "rank {}: {} record(s) from {} frame(s), {} frame(s) dropped, \
             {} byte(s) skipped, {} record(s) lost, seal {}",
            self.rank,
            self.records_recovered,
            self.frames_recovered,
            self.frames_dropped,
            self.bytes_skipped,
            self.records_lost,
            self.seal.name()
        )
    }
}

/// Decodes one frame payload standalone, feeding records to `sink`.
/// Returns the frame's first sequence number, how many records decoded,
/// and an error note if the payload ended mid-record despite its CRC
/// passing. Decoding is deterministic, so a second pass over the same
/// payload yields the identical records and note.
fn decode_payload_into(
    rank: u32,
    payload: &[u8],
    sink: &mut dyn FnMut(EventRecord),
) -> Result<(u64, u64, Option<String>), ()> {
    let mut body = payload;
    let first_seq = get_varint(&mut body).map_err(|_| ())?;
    let mut dec = Decoder::new(rank);
    dec.reset_frame(first_seq);
    let mut count = 0u64;
    loop {
        match dec.decode(&mut body) {
            Ok(Some(rec)) => {
                count += 1;
                sink(rec);
            }
            Ok(None) => return Ok((first_seq, count, None)),
            Err(e) => {
                return Ok((
                    first_seq,
                    count,
                    Some(format!("record decode failed inside CRC-valid frame: {e}")),
                ))
            }
        }
    }
}

/// Finds the next offset at or after `from` holding a CRC-valid frame or
/// footer. CRC validation runs only at marker bytes, so the scan is cheap.
fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len()).find(|&i| match bytes[i] {
        FRAME_MARKER => checked_frame_at(&bytes[i..]).is_some(),
        FOOTER_MARKER => Footer::parse(&bytes[i..]).is_some(),
        _ => false,
    })
}

/// Salvages whatever records survive in `bytes`, attributing them to
/// `rank`. Never fails: damage is reported, not raised.
pub fn salvage_bytes(rank: u32, bytes: &[u8]) -> (Vec<EventRecord>, RankSalvage) {
    let mut records = Vec::new();
    let report = salvage_into(rank, bytes, &mut |rec| records.push(rec));
    (records, report)
}

/// Sink-driven salvage core: like [`salvage_bytes`] but recovered records
/// are pushed to `sink` instead of collected, in recovery order (sorted,
/// deduplicated). With a discarding sink this produces a damage report
/// without ever materializing the trace — peak memory is per-frame
/// metadata, which is what lets `mpgtool fsck` audit rank files far
/// larger than RAM.
///
/// The cost of that bound is one extra decode: pass 1 counts each frame's
/// records (to do gap accounting before the sort), pass 2 re-decodes the
/// surviving frames into the sink. Salvage is a cold recovery path, so
/// the trade goes to memory.
pub fn salvage_into(rank: u32, bytes: &[u8], sink: &mut dyn FnMut(EventRecord)) -> RankSalvage {
    let mut s = RankSalvage::new(rank);
    s.file_len = bytes.len() as u64;

    let mut pos = if bytes.starts_with(MAGIC2) {
        4
    } else {
        // Header clobbered or absent: scan for frames from the start — a
        // torn-off prefix must not cost us the rest of the file.
        s.notes.push("bad or missing magic header".into());
        0
    };

    // Pass 1: locate every CRC-valid frame and the footer, resyncing past
    // damaged regions. Only each frame's position, first_seq and record
    // count are kept — records are decoded again into the sink in pass 2,
    // so memory stays O(frames), not O(records).
    let mut frames: Vec<(u64, u64, std::ops::Range<usize>)> = Vec::new();
    let mut footer: Option<Footer> = None;
    while pos < bytes.len() {
        if let Some((payload, total)) = checked_frame_at(&bytes[pos..]) {
            match decode_payload_into(rank, payload, &mut |_| {}) {
                Ok((first_seq, count, err_note)) => {
                    if let Some(note) = err_note {
                        s.notes.push(note);
                    }
                    // Out-of-order frames (reordered writeback) are fully
                    // recoverable via the pass-2 sort, but the file is not
                    // *clean*: the strict decoder would refuse it.
                    if frames.last().is_some_and(|(p, _, _)| first_seq < *p) {
                        s.notes.push(format!(
                            "frame order violation: seq {first_seq} arrived late"
                        ));
                    }
                    s.frames_recovered += 1;
                    let start = pos + (total - payload.len());
                    frames.push((first_seq, count, start..start + payload.len()));
                }
                Err(()) => {
                    s.frames_dropped += 1;
                    s.notes.push("frame payload missing first_seq".into());
                }
            }
            pos += total;
            continue;
        }
        if let Some(f) = Footer::parse(&bytes[pos..]) {
            footer = Some(f);
            pos += FOOTER_LEN;
            if pos < bytes.len() {
                let rest = bytes.len() - pos;
                s.bytes_skipped += rest as u64;
                s.notes
                    .push(format!("{rest} trailing byte(s) after footer"));
            }
            break;
        }
        // Damage: skip to the next valid frame or footer.
        match resync(bytes, pos + 1) {
            Some(next) => {
                s.bytes_skipped += (next - pos) as u64;
                s.frames_dropped += 1;
                s.notes.push(format!(
                    "skipped {} corrupt byte(s) at offset {pos}",
                    next - pos
                ));
                pos = next;
            }
            None => {
                let rest = bytes.len() - pos;
                s.bytes_skipped += rest as u64;
                s.truncated_tail = true;
                s.notes.push(format!(
                    "torn tail: {rest} unrecoverable byte(s) at offset {pos}"
                ));
                break;
            }
        }
    }
    s.seal = if footer.is_some() {
        SealStatus::Sealed
    } else {
        SealStatus::Unsealed
    };

    // Pass 2: order surviving frames by first sequence number and drop
    // duplicates/overlaps. Frame duplication or reordering (replayed
    // buffers, spliced files) then costs nothing: every record is still
    // recovered exactly once, in order. Surviving frames are decoded a
    // second time, straight into the sink.
    frames.sort_by_key(|(first_seq, _, _)| *first_seq);
    let mut expected_seq = 0u64;
    for (first_seq, n, payload_range) in frames {
        if first_seq > expected_seq {
            s.records_lost += first_seq - expected_seq;
            s.notes.push(format!(
                "sequence gap: records {expected_seq}..{first_seq} lost"
            ));
        } else if first_seq < expected_seq {
            s.frames_dropped += 1;
            s.notes.push(format!(
                "dropped duplicate/overlapping frame at seq {first_seq}"
            ));
            continue;
        }
        expected_seq = first_seq + n;
        s.records_recovered += n;
        // The pass-1 note (if any) already covers a mid-payload failure.
        let _ = decode_payload_into(rank, &bytes[payload_range], sink);
    }

    if let Some(f) = footer {
        if f.records > expected_seq {
            // The seal says more records existed than any surviving frame
            // covers — the tail frames were lost even though the footer
            // survived.
            s.records_lost += f.records - expected_seq;
            s.notes.push(format!(
                "footer records {} exceed recovered coverage {expected_seq}",
                f.records
            ));
        } else if f.records < expected_seq || f.frames != s.frames_recovered {
            s.notes.push(format!(
                "footer counts disagree with stream ({} records / {} frames)",
                f.records, f.frames
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::writer::TraceWriter;

    fn rec(seq: u64, t: u64) -> EventRecord {
        EventRecord {
            rank: 1,
            seq,
            t_start: t,
            t_end: t + 5,
            kind: EventKind::Compute { work: 5 },
        }
    }

    fn sample(n: u64, buffer_bytes: usize) -> (Vec<EventRecord>, Vec<u8>) {
        let records: Vec<_> = (0..n).map(|i| rec(i, i * 10)).collect();
        let mut w = TraceWriter::new(Vec::new(), buffer_bytes);
        for r in &records {
            w.record(r).unwrap();
        }
        (records, w.finish().unwrap())
    }

    #[test]
    fn clean_file_salvages_clean() {
        let (records, bytes) = sample(200, 64);
        let (out, report) = salvage_bytes(1, &bytes);
        assert_eq!(out, records);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.seal, SealStatus::Sealed);
        assert_eq!(report.records_recovered, 200);
    }

    #[test]
    fn truncated_file_keeps_whole_frames() {
        let (records, bytes) = sample(200, 64);
        let cut = bytes.len() * 2 / 3;
        let (out, report) = salvage_bytes(1, &bytes[..cut]);
        assert!(!out.is_empty());
        assert!(out.len() < records.len());
        assert_eq!(out, records[..out.len()]);
        assert_eq!(report.seal, SealStatus::Unsealed);
        assert!(report.truncated_tail);
        assert!(!report.is_clean());
    }

    #[test]
    fn bitflip_loses_only_one_frame() {
        let (records, bytes) = sample(300, 64);
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x08;
        let (out, report) = salvage_bytes(1, &bad);
        assert!(report.frames_dropped >= 1);
        assert!(report.records_lost > 0);
        // Every surviving record matches the original at its seq.
        for r in &out {
            assert_eq!(*r, records[r.seq as usize]);
        }
        // Seqs stay strictly increasing across the gap.
        assert!(out.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn garbage_input_never_panics_and_reports_loss() {
        let garbage: Vec<u8> = (0..997u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let (out, report) = salvage_bytes(0, &garbage);
        assert!(out.is_empty());
        assert!(!report.is_clean());
        assert_eq!(report.seal, SealStatus::Unsealed);
    }

    #[test]
    fn empty_input_reports_unrecoverable_shape() {
        let (out, report) = salvage_bytes(0, &[]);
        assert!(out.is_empty());
        assert!(!report.is_clean());
    }

    #[test]
    fn duplicated_frame_recovers_every_record_once() {
        let (records, bytes) = sample(200, 64);
        // Duplicate the second frame by splicing its bytes in again.
        let first = checked_frame_at(&bytes[4..]).unwrap().1;
        let second = checked_frame_at(&bytes[4 + first..]).unwrap().1;
        let (s2, e2) = (4 + first, 4 + first + second);
        let mut dup = bytes[..e2].to_vec();
        dup.extend_from_slice(&bytes[s2..e2]);
        dup.extend_from_slice(&bytes[e2..]);
        let (out, report) = salvage_bytes(1, &dup);
        assert_eq!(out, records);
        assert_eq!(report.records_lost, 0);
        assert!(report.frames_dropped >= 1);
    }
}
