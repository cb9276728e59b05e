//! Deterministic trace corruptor for fault-injection testing.
//!
//! Every failure mode the salvage reader claims to survive must be
//! reproducible on demand: this module applies seeded, deterministic
//! damage to trace bytes (and trace directories), so property tests can
//! sweep the whole operator × seed space and `mpgtool fsck --inject` can
//! replay any specific failure from its seed alone. No external RNG crate:
//! a SplitMix64 generator keeps the crate dependency-free.

use std::fs;
use std::path::Path;

use crate::frame::{checked_frame_at, Footer, FOOTER_MARKER, FRAME_MARKER, MAGIC2};
use crate::TraceError;

/// One class of injectable damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Cut the file at a random byte (crashed writer / torn copy).
    Truncate,
    /// Flip one bit past the header (storage corruption).
    BitFlip,
    /// Remove one whole frame (lost buffer dump).
    FrameDrop,
    /// Duplicate one frame in place (replayed buffer dump).
    FrameDup,
    /// Swap two adjacent frames (reordered writeback).
    FrameSwap,
    /// Insert random garbage bytes (misdirected write).
    GarbageSplice,
    /// Delete a whole rank file (lost node-local storage).
    DeleteRank,
    /// Overwrite one extent with garbage in place (unreadable sector /
    /// failed DMA): the classic transient-I/O error surfaced as data.
    IoError,
    /// Cut the file at a frame boundary, dropping the tail and the footer
    /// (a delayed or stalled writer whose final flush never landed — the
    /// in-progress-upload shape the service retries around).
    Delay,
}

impl FaultKind {
    /// Every operator, in reporting order.
    pub const ALL: &'static [FaultKind] = &[
        FaultKind::Truncate,
        FaultKind::BitFlip,
        FaultKind::FrameDrop,
        FaultKind::FrameDup,
        FaultKind::FrameSwap,
        FaultKind::GarbageSplice,
        FaultKind::DeleteRank,
        FaultKind::IoError,
        FaultKind::Delay,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Truncate => "truncate",
            FaultKind::BitFlip => "bitflip",
            FaultKind::FrameDrop => "frame-drop",
            FaultKind::FrameDup => "frame-dup",
            FaultKind::FrameSwap => "frame-swap",
            FaultKind::GarbageSplice => "splice",
            FaultKind::DeleteRank => "delete-rank",
            FaultKind::IoError => "io-error",
            FaultKind::Delay => "delay",
        }
    }

    /// Parse a CLI name (as printed by [`FaultKind::name`]).
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL
            .iter()
            .copied()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

/// What [`inject_dir`] actually did, for logs and reproduction.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Rank whose file was damaged.
    pub rank: u32,
    /// Operator applied.
    pub kind: FaultKind,
    /// Human-readable description of the concrete mutation.
    pub description: String,
}

/// SplitMix64: tiny, seedable, and plenty for picking damage sites.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Byte ranges of every CRC-valid frame in a v2 file, walked strictly from
/// the header (resync-free: this is for *valid* input being damaged).
fn scan_frames(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    if bytes.len() < 4 || &bytes[..4] != MAGIC2 {
        return out;
    }
    let mut pos = 4;
    while pos < bytes.len() {
        match bytes[pos] {
            FRAME_MARKER => match checked_frame_at(&bytes[pos..]) {
                Some((_, total)) => {
                    out.push(pos..pos + total);
                    pos += total;
                }
                None => break,
            },
            FOOTER_MARKER if Footer::parse(&bytes[pos..]).is_some() => break,
            _ => break,
        }
    }
    out
}

fn bitflip(bytes: &[u8], rng: &mut SplitMix64) -> (Vec<u8>, String) {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return (
            vec![0xFF],
            "appended a garbage byte to an empty file".into(),
        );
    }
    // Flip past the magic when possible so the damage lands in the body.
    let lo = if out.len() > 4 { 4 } else { 0 };
    let pos = lo + rng.below(out.len() - lo);
    let bit = rng.below(8) as u8;
    out[pos] ^= 1 << bit;
    (out, format!("flipped bit {bit} of byte {pos}"))
}

/// Applies `kind` to a copy of `bytes`, deterministically from `seed`.
/// Returns `None` for [`FaultKind::DeleteRank`], which only makes sense at
/// directory level ([`inject_dir`]). Frame-granular operators need frames
/// to aim at; on input without enough valid frames (already-damaged
/// bytes) they degrade to a bit flip so every call still damages the file.
pub fn mutate_bytes(bytes: &[u8], kind: FaultKind, seed: u64) -> Option<(Vec<u8>, String)> {
    let mut rng = SplitMix64::new(seed);
    let frames = scan_frames(bytes);
    let (out, desc) = match kind {
        FaultKind::DeleteRank => return None,
        FaultKind::BitFlip => bitflip(bytes, &mut rng),
        FaultKind::Truncate => {
            let new_len = if bytes.len() > 5 {
                4 + rng.below(bytes.len() - 4)
            } else {
                rng.below(bytes.len().max(1))
            };
            (
                bytes[..new_len].to_vec(),
                format!("truncated {} -> {new_len} bytes", bytes.len()),
            )
        }
        FaultKind::GarbageSplice => {
            let pos = if bytes.len() > 4 {
                4 + rng.below(bytes.len() - 3)
            } else {
                rng.below(bytes.len() + 1)
            };
            let count = 8 + rng.below(248);
            let garbage: Vec<u8> = (0..count).map(|_| rng.next_u64() as u8).collect();
            let mut out = bytes[..pos].to_vec();
            out.extend_from_slice(&garbage);
            out.extend_from_slice(&bytes[pos..]);
            (
                out,
                format!("spliced {count} garbage bytes at offset {pos}"),
            )
        }
        FaultKind::FrameDrop => {
            if frames.is_empty() {
                bitflip(bytes, &mut rng)
            } else {
                let i = rng.below(frames.len());
                let r = frames[i].clone();
                let mut out = bytes[..r.start].to_vec();
                out.extend_from_slice(&bytes[r.end..]);
                (out, format!("dropped frame {i} ({} bytes)", r.len()))
            }
        }
        FaultKind::FrameDup => {
            if frames.is_empty() {
                bitflip(bytes, &mut rng)
            } else {
                let i = rng.below(frames.len());
                let r = frames[i].clone();
                let mut out = bytes[..r.end].to_vec();
                out.extend_from_slice(&bytes[r.clone()]);
                out.extend_from_slice(&bytes[r.end..]);
                (out, format!("duplicated frame {i} ({} bytes)", r.len()))
            }
        }
        FaultKind::FrameSwap => {
            if frames.len() < 2 {
                bitflip(bytes, &mut rng)
            } else {
                let i = rng.below(frames.len() - 1);
                let (a, b) = (frames[i].clone(), frames[i + 1].clone());
                let mut out = bytes[..a.start].to_vec();
                out.extend_from_slice(&bytes[b.clone()]);
                out.extend_from_slice(&bytes[a.clone()]);
                out.extend_from_slice(&bytes[b.end..]);
                (out, format!("swapped frames {i} and {}", i + 1))
            }
        }
        FaultKind::IoError => {
            // A failed read/DMA surfaces as one unreadable extent: overwrite
            // a sector-sized span in place with garbage. Length is preserved,
            // so everything after the extent stays frame-aligned for resync.
            if bytes.len() <= 5 {
                bitflip(bytes, &mut rng)
            } else {
                let pos = 4 + rng.below(bytes.len() - 5);
                let count = (8 + rng.below(504)).min(bytes.len() - pos);
                let mut out = bytes.to_vec();
                for b in &mut out[pos..pos + count] {
                    *b = rng.next_u64() as u8;
                }
                if out == bytes {
                    bitflip(bytes, &mut rng)
                } else {
                    (
                        out,
                        format!("overwrote {count}-byte extent at offset {pos} with garbage"),
                    )
                }
            }
        }
        FaultKind::Delay => {
            // A delayed/stalled writer: the tail flush (and the footer) never
            // landed. Cut at a frame boundary so the surviving prefix is
            // clean — the transient shape retries are meant to ride out.
            if frames.is_empty() {
                bitflip(bytes, &mut rng)
            } else {
                let keep = rng.below(frames.len());
                let end = if keep == 0 { 4 } else { frames[keep - 1].end };
                (
                    bytes[..end].to_vec(),
                    format!(
                        "delayed writer: kept {keep}/{} frame(s), dropped tail and footer",
                        frames.len()
                    ),
                )
            }
        }
    };
    Some((out, desc))
}

/// Applies one seeded fault to a trace directory in place: picks a rank
/// from the seed, then mutates (or deletes) that rank's file. The same
/// `(kind, seed)` over the same directory always produces the same damage.
pub fn inject_dir(dir: &Path, kind: FaultKind, seed: u64) -> Result<FaultPlan, TraceError> {
    let meta = fs::read_to_string(dir.join("meta.txt"))?;
    let ranks = meta
        .lines()
        .find_map(|l| l.strip_prefix("ranks="))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .ok_or_else(|| TraceError::Corrupt("meta.txt missing ranks=".into()))?;
    if ranks == 0 {
        return Err(TraceError::Corrupt("trace has no ranks to damage".into()));
    }
    // Separate draw for the rank so the mutation offsets differ per seed
    // even on single-rank traces.
    let rank = SplitMix64::new(seed ^ 0xA5A5_A5A5).below(ranks) as u32;
    let path = dir.join(format!("rank-{rank}.mpg"));
    if kind == FaultKind::DeleteRank {
        fs::remove_file(&path)?;
        return Ok(FaultPlan {
            rank,
            kind,
            description: "deleted rank file".into(),
        });
    }
    let bytes = fs::read(&path)?;
    // mutate_bytes returns None only for DeleteRank, handled above.
    let (mutated, description) = mutate_bytes(&bytes, kind, seed).expect("byte-level operator");
    fs::write(&path, mutated)?;
    Ok(FaultPlan {
        rank,
        kind,
        description,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, EventRecord};
    use crate::writer::TraceWriter;

    fn sample_bytes(n: u64) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), 64);
        for i in 0..n {
            w.record(&EventRecord {
                rank: 0,
                seq: i,
                t_start: i * 10,
                t_end: i * 10 + 5,
                kind: EventKind::Compute { work: 5 },
            })
            .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn names_roundtrip() {
        for &k in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FaultKind::from_name("no-such-fault"), None);
    }

    #[test]
    fn mutations_are_deterministic() {
        let bytes = sample_bytes(200);
        for &k in FaultKind::ALL {
            if k == FaultKind::DeleteRank {
                assert!(mutate_bytes(&bytes, k, 1).is_none());
                continue;
            }
            let a = mutate_bytes(&bytes, k, 42).unwrap();
            let b = mutate_bytes(&bytes, k, 42).unwrap();
            assert_eq!(a.0, b.0, "{k:?} not deterministic");
            let c = mutate_bytes(&bytes, k, 43).unwrap();
            // Different seeds should (for these sizes) damage differently.
            assert!(a.0 != c.0 || a.1 != c.1, "{k:?} ignored the seed");
        }
    }

    #[test]
    fn every_operator_changes_the_bytes() {
        let bytes = sample_bytes(200);
        for &k in FaultKind::ALL {
            if k == FaultKind::DeleteRank {
                continue;
            }
            for seed in 0..20 {
                let (mutated, desc) = mutate_bytes(&bytes, k, seed).unwrap();
                assert_ne!(mutated, bytes, "{k:?} seed {seed} ({desc}) was a no-op");
            }
        }
    }

    #[test]
    fn frame_scan_sees_writer_frames() {
        let bytes = sample_bytes(200);
        let frames = scan_frames(&bytes);
        assert!(
            frames.len() > 2,
            "want several frames, got {}",
            frames.len()
        );
        assert_eq!(frames[0].start, 4);
    }

    #[test]
    fn io_error_and_delay_shapes() {
        let bytes = sample_bytes(200);
        let frames = scan_frames(&bytes);
        for seed in 0..20u64 {
            // io-error: in-place extent overwrite keeps the length.
            let (io, _) = mutate_bytes(&bytes, FaultKind::IoError, seed).unwrap();
            assert_eq!(io.len(), bytes.len(), "seed {seed}: io-error resized file");
            // delay: clean cut at a frame boundary — prefix bytes identical,
            // surviving frames all rescan as valid, footer gone.
            let (cut, _) = mutate_bytes(&bytes, FaultKind::Delay, seed).unwrap();
            assert!(cut.len() < bytes.len());
            assert_eq!(
                &bytes[..cut.len()],
                &cut[..],
                "seed {seed}: delay not a prefix"
            );
            let kept = scan_frames(&cut);
            assert!(kept.len() < frames.len());
            assert_eq!(
                kept,
                frames[..kept.len()],
                "seed {seed}: kept frames differ"
            );
        }
    }

    #[test]
    fn inject_dir_is_deterministic_and_damages() {
        use crate::fileset::{FileTraceSet, MemTrace};
        let mk = |tag: &str| {
            let dir = std::env::temp_dir().join(format!("mpg-inject-{tag}-{}", std::process::id()));
            let mut t = MemTrace::new(2);
            for r in 0..2u32 {
                for i in 0..100u64 {
                    t.push(EventRecord {
                        rank: r,
                        seq: i,
                        t_start: i * 10,
                        t_end: i * 10 + 5,
                        kind: EventKind::Compute { work: 5 },
                    });
                }
            }
            t.save(&dir).unwrap();
            dir
        };
        let (d1, d2) = (mk("a"), mk("b"));
        let p1 = inject_dir(&d1, FaultKind::Truncate, 7).unwrap();
        let p2 = inject_dir(&d2, FaultKind::Truncate, 7).unwrap();
        assert_eq!(p1.rank, p2.rank);
        assert_eq!(p1.description, p2.description);
        // The strict loader must now refuse the damaged set.
        assert!(FileTraceSet::open(&d1).unwrap().load().is_err());
        let (_, report) = FileTraceSet::load_salvage(&d1).unwrap();
        assert!(!report.is_clean());
        for d in [d1, d2] {
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn delete_rank_removes_the_file() {
        use crate::fileset::MemTrace;
        let dir = std::env::temp_dir().join(format!("mpg-delrank-{}", std::process::id()));
        let mut t = MemTrace::new(3);
        for r in 0..3u32 {
            t.push(EventRecord {
                rank: r,
                seq: 0,
                t_start: 0,
                t_end: 5,
                kind: EventKind::Init,
            });
        }
        t.save(&dir).unwrap();
        let plan = inject_dir(&dir, FaultKind::DeleteRank, 11).unwrap();
        assert!(!dir.join(format!("rank-{}.mpg", plan.rank)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
