//! Cheap content fingerprints for sealed trace directories.
//!
//! A cache key for a trace must change whenever the trace's bytes change,
//! and must be computable without re-reading the (possibly multi-GiB)
//! payload. The v2 frame layer already pays for that: every sealed rank
//! file ends in a footer whose `payload_crc` chains CRC32C over every
//! frame payload in order — a whole-file content checksum the writer
//! computed while streaming. [`trace_fingerprint`] therefore reads only
//! `meta.txt`, each file's leading magic, and its trailing
//! [`FOOTER_LEN`] bytes, and folds the per-rank
//! summaries `(rank, file_len, records, frames, last_t_end, payload_crc)`
//! into two independent mixers:
//!
//! - a chained **CRC32C** over the summary words. CRC32C detects every
//!   burst error of ≤ 32 bits, so two summaries that differ in exactly one
//!   aligned `u32`/smaller field — in particular, in one `payload_crc`,
//!   which itself differs whenever one payload byte differs — can never
//!   produce the same CRC component. Single-payload-byte divergence
//!   provably never collides on the key.
//! - an **FNV-1a 64** over the same words for general collision
//!   resistance across unrelated traces.
//!
//! Unsealed or salvaged files have no trustworthy footer and get no
//! fingerprint; callers fall back to the cold path and cache nothing.
//!
//! The fingerprint trusts the seal: it detects truncation (file length is
//! mixed in) and any divergence introduced *through the writer*, but an
//! in-place post-seal bitflip that forges a matching footer is out of
//! scope — that is the cold validator's job, and re-detecting it here
//! would require the second full read this scheme exists to avoid.

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::fileset::FileTraceSet;
use crate::frame::{crc32c_append, Footer, FOOTER_LEN, MAGIC2};
use crate::TraceError;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extends an FNV-1a 64 hash over `bytes`. Seed with the FNV offset
/// basis via [`fnv1a64`] for a fresh hash.
pub fn fnv1a64_append(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_append(FNV_OFFSET, bytes)
}

/// Content fingerprint of a sealed trace directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFingerprint {
    /// Rank count from `meta.txt`.
    pub ranks: usize,
    /// Total records summed over every rank footer.
    pub records: u64,
    /// Chained CRC32C over the per-rank summary words.
    pub crc: u32,
    /// FNV-1a 64 over the same words.
    pub fnv: u64,
}

impl TraceFingerprint {
    /// Canonical key string, used as the cache-key trace component and as
    /// an artifact filename stem: `"{ranks:04x}-{crc:08x}-{fnv:016x}"`.
    pub fn key(&self) -> String {
        format!("{:04x}-{:08x}-{:016x}", self.ranks, self.crc, self.fnv)
    }
}

/// Fingerprints a sealed trace directory by reading only `meta.txt` plus
/// each rank file's magic and trailing footer (≤ 33 bytes per rank).
///
/// Fails with [`TraceError::Unsealed`] when any rank file lacks a valid
/// sealed footer (crashed writer, foreign bytes, or a corrupted seal) —
/// such traces must not be cached because their content checksum cannot
/// be trusted without a full read.
pub fn trace_fingerprint(dir: &Path) -> Result<TraceFingerprint, TraceError> {
    let ranks = FileTraceSet::read_meta(dir)?;
    let missing: Vec<u32> = (0..ranks)
        .filter(|&r| !FileTraceSet::rank_path(dir, r).exists())
        .map(|r| r as u32)
        .collect();
    if !missing.is_empty() {
        return Err(TraceError::MissingRanks(missing));
    }
    let mut crc = 0u32;
    let mut fnv = FNV_OFFSET;
    let mut records = 0u64;
    for r in 0..ranks {
        let path = FileTraceSet::rank_path(dir, r);
        let mut file = std::fs::File::open(&path)?;
        let len = file.metadata()?.len();
        if len < (MAGIC2.len() + FOOTER_LEN) as u64 {
            return Err(TraceError::Unsealed(format!(
                "rank {r}: file too short to be sealed ({len} bytes)"
            )));
        }
        let mut magic = [0u8; 4];
        file.read_exact(&mut magic)?;
        if &magic != MAGIC2 {
            return Err(TraceError::Unsealed(format!(
                "rank {r}: not a v2 (MPG2) stream"
            )));
        }
        file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        let mut tail = [0u8; FOOTER_LEN];
        file.read_exact(&mut tail)?;
        let footer = Footer::parse(&tail)
            .ok_or_else(|| TraceError::Unsealed(format!("rank {r}: no valid sealed footer")))?;
        // Fixed-width summary words: each field lands at a stable aligned
        // offset, so a single-field difference is a ≤ 32-bit burst for the
        // CRC component (see module docs).
        let mut words = [0u8; 44];
        words[0..4].copy_from_slice(&(r as u32).to_le_bytes());
        words[4..12].copy_from_slice(&len.to_le_bytes());
        words[12..20].copy_from_slice(&footer.records.to_le_bytes());
        words[20..28].copy_from_slice(&footer.frames.to_le_bytes());
        words[28..36].copy_from_slice(&footer.last_t_end.to_le_bytes());
        words[36..40].copy_from_slice(&footer.payload_crc.to_le_bytes());
        // Trailing 4 zero bytes keep the summary 8-byte aligned.
        crc = crc32c_append(crc, &words);
        fnv = fnv1a64_append(fnv, &words);
        records += footer.records;
    }
    Ok(TraceFingerprint {
        ranks,
        records,
        crc,
        fnv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, EventRecord};
    use crate::fileset::MemTrace;

    fn tiny_trace(t0: u64) -> MemTrace {
        let mut t = MemTrace::new(2);
        t.push(EventRecord {
            rank: 0,
            seq: 0,
            t_start: t0,
            t_end: t0 + 5,
            kind: EventKind::Compute { work: 5 },
        });
        t.push(EventRecord {
            rank: 1,
            seq: 0,
            t_start: 1,
            t_end: 2,
            kind: EventKind::Finalize,
        });
        t.push(EventRecord {
            rank: 0,
            seq: 1,
            t_start: t0 + 5,
            t_end: t0 + 6,
            kind: EventKind::Finalize,
        });
        t
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mpg-hash-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn identical_content_same_key_different_content_different_key() {
        let d1 = temp_dir("a");
        let d2 = temp_dir("b");
        let d3 = temp_dir("c");
        tiny_trace(100).save(&d1).unwrap();
        tiny_trace(100).save(&d2).unwrap();
        tiny_trace(101).save(&d3).unwrap();
        let f1 = trace_fingerprint(&d1).unwrap();
        let f2 = trace_fingerprint(&d2).unwrap();
        let f3 = trace_fingerprint(&d3).unwrap();
        assert_eq!(f1.key(), f2.key());
        assert_ne!(f1.key(), f3.key());
        for d in [d1, d2, d3] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn unsealed_file_refuses_fingerprint() {
        let d = temp_dir("unsealed");
        tiny_trace(7).save(&d).unwrap();
        // Truncate rank 0 mid-stream: footer gone.
        let p = FileTraceSet::rank_path(&d, 0);
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(
            trace_fingerprint(&d),
            Err(TraceError::Unsealed(_))
        ));
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn missing_rank_refuses_fingerprint() {
        let d = temp_dir("missing");
        tiny_trace(7).save(&d).unwrap();
        std::fs::remove_file(FileTraceSet::rank_path(&d, 1)).unwrap();
        assert!(matches!(
            trace_fingerprint(&d),
            Err(TraceError::MissingRanks(_))
        ));
        let _ = std::fs::remove_dir_all(d);
    }
}
