//! MPGA: the compiled on-disk form of a [`GraphArena`].
//!
//! Recording a graph from a trace costs a full replay — frame decode,
//! matching, edge construction — even though the result is deterministic
//! for a given (trace, model, seed). MPGA serializes the arena's columns
//! directly so a warm run rebuilds the graph at memcpy speed and skips
//! both the frame decode and the recording replay.
//!
//! ## Layout (all little-endian)
//!
//! ```text
//! file    := header counts hubs column* crc:u32le
//! header  := "MPGA" version:u32le ranks:u64 hubs:u64 edges:u64
//! counts  := events:u64[ranks]               ; the arena's layout
//! hubs    := hub_rank:u32[hubs]       pad8   ; per hub ordinal, the event
//!            hub_seq:u64[hubs]               ; anchoring the hub
//! column* := node_flags:u8[nodes]     pad8   ; nodes = 2·Σ events + hubs,
//!            kind_code:u8[nodes]      pad8   ; in index order; fixed
//!            label_t:u64[nodes]              ; order, each section padded
//!            edge_src:u32[edges]      pad8   ; to an 8-byte boundary
//!            edge_dst:u32[edges]      pad8
//!            edge_base:u64[edges]
//!            edge_sampled:i64[edges]
//!            class_tag:u8[edges]      pad8
//!            class_bytes:u64[edges]
//!            class_rounds:u32[edges]  pad8
//!            edge_msg:u8[edges]       pad8
//! ```
//!
//! No node identity is stored: a node's `(rank, seq, point)` is its index
//! in the layout the count table declares (see [`crate::arena`]). A kind
//! code indexes [`EventKind::NAMES`].
//!
//! The edge columns on disk are dense, though the arena holds them lean
//! (one tag byte with the message flag folded in, a payload only where
//! the class has one, no sampled column for a quiet graph): the encoder
//! writes what the arena elides as zeros, and the decoder folds the
//! columns back, so every artifact is byte-identical to the dense
//! arena's.
//!
//! The trailing `crc` is CRC32C over every preceding byte, so truncation
//! and bitflips are always detected. Column sections start on 8-byte
//! boundaries: a future loader may borrow them zero-copy straight out of
//! an mmap; the current loader stays in safe Rust and copies each column
//! with `chunks_exact` + `from_le_bytes` (one pass, no per-element
//! branching), which is already orders of magnitude cheaper than the
//! recording replay it replaces.
//!
//! Decoding is defensive — artifacts live in a cache directory anyone can
//! scribble on. Every failure mode maps to a typed [`MpgaError`] and the
//! caller falls back to the cold path. Every table is read, bounds-checked
//! against the blob, before anything is sized by the counts it holds; the
//! hub table, node flags, kind codes and edge endpoints are then checked
//! against the layout. A decoded arena is one the recorder could have
//! laid out: every node's rank is a rank of the layout, and every edge
//! joins two reached nodes.

use mpg_trace::frame::crc32c;
use mpg_trace::EventKind;

use crate::arena::{class_of_parts, GraphArena, FLAG_LABELED, FLAG_TOUCHED};

/// Magic bytes opening an MPGA artifact.
pub const MPGA_MAGIC: &[u8; 4] = b"MPGA";

/// Current MPGA format version; bump on any layout change.
pub const MPGA_VERSION: u32 = 2;

/// Why an MPGA artifact was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpgaError {
    /// Leading bytes are not `"MPGA"`.
    BadMagic,
    /// Version field differs from [`MPGA_VERSION`].
    BadVersion(u32),
    /// Fewer bytes than the header + counts promise.
    Truncated,
    /// Whole-file CRC32C mismatch.
    Checksum,
    /// Structurally invalid content (bad index, bad tag, count mismatch).
    Malformed(String),
}

impl std::fmt::Display for MpgaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpgaError::BadMagic => write!(f, "not an MPGA artifact (bad magic)"),
            MpgaError::BadVersion(v) => {
                write!(f, "MPGA version {v} unsupported (expected {MPGA_VERSION})")
            }
            MpgaError::Truncated => write!(f, "MPGA artifact truncated"),
            MpgaError::Checksum => write!(f, "MPGA checksum mismatch"),
            MpgaError::Malformed(m) => write!(f, "malformed MPGA artifact: {m}"),
        }
    }
}

impl std::error::Error for MpgaError {}

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

fn put_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    out.reserve(xs.len() * 4);
    for &x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
    pad8(out);
}

fn put_u64s(out: &mut Vec<u8>, xs: &[u64]) {
    out.reserve(xs.len() * 8);
    for &x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_u8s(out: &mut Vec<u8>, xs: &[u8]) {
    out.extend_from_slice(xs);
    pad8(out);
}

/// Serializes an arena into the MPGA byte layout (header, count table,
/// hub table, columns, whole-file CRC32C).
pub fn encode_arena(arena: &GraphArena) -> Vec<u8> {
    let ranks = arena.num_ranks();
    let nodes = arena.num_nodes();
    let edges = arena.num_edges();
    let hubs = arena.num_hubs();

    let mut out = Vec::with_capacity(40 + ranks * 8 + hubs * 12 + nodes * 10 + edges * 39);
    out.extend_from_slice(MPGA_MAGIC);
    out.extend_from_slice(&MPGA_VERSION.to_le_bytes());
    for n in [ranks, hubs, edges] {
        out.extend_from_slice(&(n as u64).to_le_bytes());
    }
    let counts: Vec<u64> = (0..ranks).map(|r| arena.rank_events(r) as u64).collect();
    put_u64s(&mut out, &counts);
    let (hub_rank, hub_seq): (Vec<u32>, Vec<u64>) = arena.hubs.iter().copied().unzip();
    put_u32s(&mut out, &hub_rank);
    put_u64s(&mut out, &hub_seq);

    put_u8s(&mut out, &arena.node_flags);
    put_u8s(&mut out, &arena.label_code);
    put_u64s(&mut out, &arena.label_t);

    put_u32s(&mut out, &arena.edge_src);
    put_u32s(&mut out, &arena.edge_dst);
    put_u64s(&mut out, &arena.edge_base);
    // The on-disk columns stay dense: a quiet graph's elided deltas are
    // written as zeros, and every edge carries a (zero) payload.
    match arena.sampled_column() {
        Some(sampled) => sampled
            .iter()
            .for_each(|d| out.extend_from_slice(&d.to_le_bytes())),
        None => out.resize(out.len() + 8 * edges, 0),
    }
    out.extend((0..edges).map(|i| arena.edge_tag(i)));
    pad8(&mut out);
    for i in 0..edges {
        out.extend_from_slice(&arena.edge_payload(i).0.to_le_bytes());
    }
    for i in 0..edges {
        out.extend_from_slice(&arena.edge_payload(i).1.to_le_bytes());
    }
    pad8(&mut out);
    out.extend((0..edges).map(|i| u8::from(arena.edge_is_message(i))));
    pad8(&mut out);

    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Cursor over the checksummed body of an MPGA artifact.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], MpgaError> {
        let end = self.pos.checked_add(n).ok_or(MpgaError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(MpgaError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn align8(&mut self) -> Result<(), MpgaError> {
        while !self.pos.is_multiple_of(8) {
            self.take(1)?;
        }
        Ok(())
    }

    /// A `u64` count, as a `usize`.
    fn count(&mut self) -> Result<usize, MpgaError> {
        let b = self.take(8)?;
        let n = u64::from_le_bytes(b.try_into().expect("8-byte slice"));
        usize::try_from(n).map_err(|_| MpgaError::Truncated)
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, MpgaError> {
        Ok(self.lazy_u32s(n)?.collect())
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, MpgaError> {
        Ok(self.lazy_u64s(n)?.collect())
    }

    /// `n` little-endian `u64`s, left in place: an iterator over the
    /// bytes the body holds for them.
    fn lazy_u64s(&mut self, n: usize) -> Result<impl Iterator<Item = u64> + 'a, MpgaError> {
        let b = self.take(n.checked_mul(8).ok_or(MpgaError::Truncated)?)?;
        Ok(b.chunks_exact(8).map(|c| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(c);
            u64::from_le_bytes(buf)
        }))
    }

    /// `n` little-endian `u32`s and the padding after them, the values
    /// left in place like [`Reader::lazy_u64s`]'s.
    fn lazy_u32s(&mut self, n: usize) -> Result<impl Iterator<Item = u32> + 'a, MpgaError> {
        let b = self.take(n.checked_mul(4).ok_or(MpgaError::Truncated)?)?;
        self.align8()?;
        Ok(b.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
    }

    fn u8s(&mut self, n: usize) -> Result<Vec<u8>, MpgaError> {
        let v = self.take(n)?.to_vec();
        self.align8()?;
        Ok(v)
    }
}

/// Decodes and validates an MPGA artifact back into a [`GraphArena`].
///
/// Every anomaly — wrong magic/version, truncation, checksum mismatch, a
/// count table the blob does not hold, a hub that names no event or
/// repeats one, flags, kind codes or edge endpoints the layout does not
/// allow — is an error; no partially-decoded arena ever escapes.
pub fn decode_arena(bytes: &[u8]) -> Result<GraphArena, MpgaError> {
    if bytes.len() < 4 {
        return Err(MpgaError::Truncated);
    }
    if &bytes[..4] != MPGA_MAGIC {
        return Err(MpgaError::BadMagic);
    }
    if bytes.len() < 8 {
        return Err(MpgaError::Truncated);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != MPGA_VERSION {
        return Err(MpgaError::BadVersion(version));
    }
    // Whole-file checksum first: everything after this point may assume
    // the bytes are exactly what the encoder wrote.
    if bytes.len() < 12 {
        return Err(MpgaError::Truncated);
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = {
        let t = &bytes[bytes.len() - 4..];
        u32::from_le_bytes([t[0], t[1], t[2], t[3]])
    };
    if crc32c(body) != stored {
        return Err(MpgaError::Checksum);
    }

    let mut r = Reader {
        bytes: body,
        pos: 8,
    };
    let (ranks, hubs, edges) = (r.count()?, r.count()?, r.count()?);
    // `ranks` is the length of a table the body must hold, and the node
    // columns must hold every slot it declares: nothing is sized by a
    // count before the bytes behind it are there.
    let events = r
        .u64s(ranks)?
        .into_iter()
        .map(|c| usize::try_from(c).map_err(|_| MpgaError::Truncated))
        .collect::<Result<Vec<usize>, _>>()?;
    let hub_rank = r.u32s(hubs)?;
    let hub_seq = r.u64s(hubs)?;
    let nodes = events
        .iter()
        .try_fold(hubs, |a, &n| a.checked_add(n.checked_mul(2)?))
        .ok_or(MpgaError::Truncated)?;
    let node_flags = r.u8s(nodes)?;
    let label_code = r.u8s(nodes)?;
    let label_t = r.u64s(nodes)?;

    let edge_src = r.u32s(edges)?;
    let edge_dst = r.u32s(edges)?;
    let edge_base = r.u64s(edges)?;
    let edge_sampled = r.lazy_u64s(edges)?;
    let tags = r.u8s(edges)?;
    let class_bytes = r.lazy_u64s(edges)?;
    let class_rounds = r.lazy_u32s(edges)?;
    let msg = r.u8s(edges)?;
    if r.pos != body.len() {
        return Err(MpgaError::Malformed(format!(
            "{} trailing bytes after columns",
            body.len() - r.pos
        )));
    }

    let malformed = |m: &str| MpgaError::Malformed(m.into());
    let mut arena = GraphArena::with_layout(&events)
        .ok_or_else(|| malformed("layout exceeds the node index space"))?;
    for (k, (&rank, &seq)) in hub_rank.iter().zip(&hub_seq).enumerate() {
        let hub = arena
            .add_hub(rank, seq)
            .ok_or_else(|| malformed("hub names no event of the layout"))?;
        if arena.hub_ordinal(hub) != Some(k) {
            return Err(malformed("duplicate hub"));
        }
    }
    let mut labeled = 0usize;
    for (i, (&flags, &code)) in node_flags.iter().zip(&label_code).enumerate() {
        let touched = flags & FLAG_TOUCHED != 0;
        let is_labeled = flags & FLAG_LABELED != 0;
        if flags & !(FLAG_TOUCHED | FLAG_LABELED) != 0 || (is_labeled && !touched) {
            return Err(malformed("bad node flags"));
        }
        if arena.is_hub(i as u32) && !touched {
            return Err(malformed("hub never reached"));
        }
        let known = if is_labeled {
            (code as usize) < EventKind::NAMES.len()
        } else {
            code == 0
        };
        if !known {
            return Err(malformed("kind code out of range"));
        }
        labeled += usize::from(is_labeled);
    }
    for &i in edge_src.iter().chain(&edge_dst) {
        if node_flags
            .get(i as usize)
            .is_none_or(|f| f & FLAG_TOUCHED == 0)
        {
            return Err(malformed("edge endpoint is not a reached node"));
        }
    }
    arena.node_flags = node_flags;
    arena.label_code = label_code;
    arena.label_t = label_t;
    arena.labeled = labeled;
    arena.edge_src = edge_src;
    arena.edge_dst = edge_dst;
    arena.edge_base = edge_base;
    // The lean columns: a tag byte per edge, a payload only where the
    // class has one, and no sampled column for a quiet graph.
    let payloads = class_bytes.zip(class_rounds);
    for (((&tag, (bytes, rounds)), &m), sampled) in
        tags.iter().zip(payloads).zip(&msg).zip(edge_sampled)
    {
        let class = class_of_parts(tag, bytes, rounds)
            .ok_or_else(|| malformed(&format!("unknown delta-class tag {tag}")))?;
        arena.push_class(class, m != 0);
        arena.push_sampled(sampled as i64);
    }
    Ok(arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Edge, NodeId};
    use crate::perturb::DeltaClass;

    fn sample_arena() -> GraphArena {
        let mut a = GraphArena::new(&[1, 6, 8]);
        let e = |src, dst, base, class, sampled, is_message| Edge {
            src,
            dst,
            base,
            class,
            sampled,
            is_message,
        };
        a.push_edge(e(
            NodeId::start(0, 0),
            NodeId::end(0, 0),
            10,
            DeltaClass::OsLocal,
            3,
            false,
        ));
        a.push_edge(e(
            NodeId::end(0, 0),
            NodeId::end(1, 4),
            55,
            DeltaClass::MessagePath { bytes: 4096 },
            -2,
            true,
        ));
        a.push_edge(e(
            NodeId::hub(2, 7),
            NodeId::end(1, 5),
            7,
            DeltaClass::CollectiveRounds {
                rounds: 3,
                bytes: 64,
            },
            0,
            true,
        ));
        a.label(NodeId::end(0, 0), EventKind::NAMES.len() as u8 - 1, 99);
        a.label(NodeId::end(1, 4), 4, 130);
        a
    }

    fn assert_same(a: &GraphArena, b: &GraphArena) {
        assert_eq!(a.num_ranks(), b.num_ranks());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_hubs(), b.num_hubs());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.num_labeled(), b.num_labeled());
        for i in 0..a.num_edges() {
            assert_eq!(a.edge(i), b.edge(i));
        }
        for i in 0..a.num_nodes() as u32 {
            assert_eq!(a.node_id(i), b.node_id(i));
            assert_eq!(a.label_of(i), b.label_of(i));
            assert_eq!(a.is_touched(i), b.is_touched(i));
            assert_eq!(b.node_index(&a.node_id(i)), a.is_touched(i).then_some(i));
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let a = sample_arena();
        let bytes = encode_arena(&a);
        let b = decode_arena(&bytes).unwrap();
        assert_same(&a, &b);
        assert_eq!(b.label_of(1).unwrap().kind, "alltoall");
    }

    #[test]
    fn empty_arena_roundtrips() {
        let a = GraphArena::new(&[]);
        let b = decode_arena(&encode_arena(&a)).unwrap();
        assert_same(&a, &b);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_arena(&sample_arena());
        for cut in [0, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_arena(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_bitflip_is_detected() {
        let bytes = encode_arena(&sample_arena());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_arena(&bad).is_err(), "flip at byte {i} undetected");
        }
    }

    /// Each structural check, one forged (and re-sealed) field at a time.
    #[test]
    fn forged_structure_is_malformed() {
        let a = sample_arena();
        let good = encode_arena(&a);
        let nodes = a.num_nodes();
        let hub_rank = 32 + 8 * a.num_ranks();
        let hub_seq = hub_rank + 8;
        let flags = hub_seq + 8;
        let codes = flags + nodes.next_multiple_of(8);
        let edge_src = codes + nodes.next_multiple_of(8) + 8 * nodes;
        let forged = |at: usize, v: &[u8]| {
            let mut b = good.clone();
            b[at..at + v.len()].copy_from_slice(v);
            let n = b.len();
            let crc = crc32c(&b[..n - 4]);
            b[n - 4..].copy_from_slice(&crc.to_le_bytes());
            decode_arena(&b).err()
        };
        let malformed = |m: &str| Some(MpgaError::Malformed(m.into()));
        // Slot 2 is start(1, 0), which no edge or label reached; slot 1 is
        // the labeled end(0, 0); the hub is the last node.
        let hole = 2u32;
        assert!(!a.is_touched(hole) && a.label_of(1).is_some());
        let stray = malformed("hub names no event of the layout");
        assert_eq!(forged(hub_rank, &3u32.to_le_bytes()), stray);
        assert_eq!(forged(hub_seq, &8u64.to_le_bytes()), stray);
        assert_eq!(forged(flags, &[4]), malformed("bad node flags"));
        assert_eq!(
            forged(flags + hole as usize, &[FLAG_LABELED]),
            malformed("bad node flags")
        );
        assert_eq!(
            forged(flags + nodes - 1, &[0]),
            malformed("hub never reached")
        );
        let bad_code = malformed("kind code out of range");
        assert_eq!(forged(codes + 1, &[EventKind::NAMES.len() as u8]), bad_code);
        assert_eq!(forged(codes + hole as usize, &[1]), bad_code);
        let bad_end = malformed("edge endpoint is not a reached node");
        assert_eq!(forged(edge_src, &hole.to_le_bytes()), bad_end);
        assert_eq!(forged(edge_src, &(nodes as u32).to_le_bytes()), bad_end);
        assert!(forged(0, b"M").is_none(), "the unforged bytes decode");
    }

    #[test]
    fn version_bump_is_rejected() {
        for version in [MPGA_VERSION + 1, 1] {
            let mut bytes = encode_arena(&sample_arena());
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            // Re-seal the checksum so only the version differs.
            let n = bytes.len();
            let crc = crc32c(&bytes[..n - 4]);
            bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                decode_arena(&bytes).err(),
                Some(MpgaError::BadVersion(version))
            );
        }
    }
}
