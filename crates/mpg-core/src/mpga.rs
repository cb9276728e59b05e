//! MPGA: the compiled on-disk form of a [`GraphArena`].
//!
//! Recording a graph from a trace costs a full replay — frame decode,
//! matching, interning — even though the result is deterministic for a
//! given (trace, model, seed). MPGA serializes the arena's columns
//! directly so a warm run rebuilds the graph at memcpy speed and skips
//! both the frame decode and the recording replay.
//!
//! ## Layout (all little-endian)
//!
//! ```text
//! file    := header kinds column* crc:u32le
//! header  := "MPGA" version:u32le ranks:u64 nodes:u64 edges:u64 labeled:u64
//! kinds   := count:u32le pad:u32le (len:u32le bytes)* pad8
//! column* := node_rank:u32[nodes]    pad8     ; fixed order, each section
//!            node_seq:u64[nodes]              ; padded to an 8-byte
//!            node_flags:u8[nodes]    pad8     ; boundary
//!            kind_id:u32[nodes]      pad8
//!            label_t:u64[nodes]
//!            edge_src:u32[edges]     pad8
//!            edge_dst:u32[edges]     pad8
//!            edge_base:u64[edges]
//!            edge_sampled:i64[edges]
//!            class_tag:u8[edges]     pad8
//!            class_bytes:u64[edges]
//!            class_rounds:u32[edges] pad8
//!            edge_msg:u8[edges]      pad8
//! ```
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
//! caller falls back to the cold path; a bad artifact can never produce a
//! graph that differs from the cold one because endpoint indices, kind
//! ids, flag/label consistency, and the checksum are all validated.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use mpg_trace::frame::crc32c;

use crate::arena::{GraphArena, NodeIndex, FLAG_LABELED};
use crate::perturb::DeltaClass;

/// Magic bytes opening an MPGA artifact.
pub const MPGA_MAGIC: &[u8; 4] = b"MPGA";

/// Current MPGA format version; bump on any layout change.
pub const MPGA_VERSION: u32 = 1;

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

/// Edge delta-class tags, one per [`DeltaClass`] variant.
const TAG_NONE: u8 = 0;
const TAG_OS_LOCAL: u8 = 1;
const TAG_OS_REMOTE: u8 = 2;
const TAG_LAMBDA: u8 = 3;
const TAG_TRANSFER: u8 = 4;
const TAG_MESSAGE_PATH: u8 = 5;
const TAG_COLLECTIVE: u8 = 6;

fn class_to_columns(c: DeltaClass) -> (u8, u64, u32) {
    match c {
        DeltaClass::None => (TAG_NONE, 0, 0),
        DeltaClass::OsLocal => (TAG_OS_LOCAL, 0, 0),
        DeltaClass::OsRemote => (TAG_OS_REMOTE, 0, 0),
        DeltaClass::Lambda => (TAG_LAMBDA, 0, 0),
        DeltaClass::Transfer { bytes } => (TAG_TRANSFER, bytes, 0),
        DeltaClass::MessagePath { bytes } => (TAG_MESSAGE_PATH, bytes, 0),
        DeltaClass::CollectiveRounds { rounds, bytes } => (TAG_COLLECTIVE, bytes, rounds),
    }
}

fn class_from_columns(tag: u8, bytes: u64, rounds: u32) -> Result<DeltaClass, MpgaError> {
    Ok(match tag {
        TAG_NONE => DeltaClass::None,
        TAG_OS_LOCAL => DeltaClass::OsLocal,
        TAG_OS_REMOTE => DeltaClass::OsRemote,
        TAG_LAMBDA => DeltaClass::Lambda,
        TAG_TRANSFER => DeltaClass::Transfer { bytes },
        TAG_MESSAGE_PATH => DeltaClass::MessagePath { bytes },
        TAG_COLLECTIVE => DeltaClass::CollectiveRounds { rounds, bytes },
        t => return Err(MpgaError::Malformed(format!("unknown delta-class tag {t}"))),
    })
}

/// Label kinds in the arena are `&'static str` (recorder call sites pass
/// literals). Deserialized kinds come off disk as owned strings; this
/// process-global interner leaks each **distinct** kind once to recover
/// `'static`. Bounded: the recorder emits ~a dozen kinds, ever.
fn intern_kind(s: &str) -> &'static str {
    static KINDS: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let map = KINDS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().unwrap();
    if let Some(&k) = map.get(s) {
        return k;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    map.insert(s.to_owned(), leaked);
    leaked
}

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

fn put_i64s(out: &mut Vec<u8>, xs: &[i64]) {
    out.reserve(xs.len() * 8);
    for &x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_u8s(out: &mut Vec<u8>, xs: &[u8]) {
    out.extend_from_slice(xs);
    pad8(out);
}

/// Serializes an arena into the MPGA byte layout (header, kind table,
/// columns, whole-file CRC32C).
pub fn encode_arena(arena: &GraphArena) -> Vec<u8> {
    let nodes = arena.num_nodes();
    let edges = arena.num_edges();

    // Distinct label kinds, in first-appearance order for determinism.
    let mut kind_ids: Vec<u32> = Vec::with_capacity(nodes);
    let mut kinds: Vec<&str> = Vec::new();
    let mut kind_index: HashMap<&str, u32> = HashMap::new();
    for i in 0..nodes {
        let k = arena.label_kind[i];
        let id = *kind_index.entry(k).or_insert_with(|| {
            kinds.push(k);
            (kinds.len() - 1) as u32
        });
        kind_ids.push(id);
    }

    let mut out = Vec::with_capacity(64 + nodes * 25 + edges * 39);
    out.extend_from_slice(MPGA_MAGIC);
    out.extend_from_slice(&MPGA_VERSION.to_le_bytes());
    out.extend_from_slice(&(arena.ranks as u64).to_le_bytes());
    out.extend_from_slice(&(nodes as u64).to_le_bytes());
    out.extend_from_slice(&(edges as u64).to_le_bytes());
    out.extend_from_slice(&(arena.labeled as u64).to_le_bytes());

    out.extend_from_slice(&(kinds.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for k in &kinds {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(k.as_bytes());
    }
    pad8(&mut out);

    put_u32s(&mut out, &arena.node_rank);
    put_u64s(&mut out, &arena.node_seq);
    put_u8s(&mut out, &arena.node_flags);
    put_u32s(&mut out, &kind_ids);
    put_u64s(&mut out, &arena.label_t);

    put_u32s(&mut out, &arena.edge_src);
    put_u32s(&mut out, &arena.edge_dst);
    put_u64s(&mut out, &arena.edge_base);
    put_i64s(&mut out, &arena.edge_sampled);

    let mut tags = Vec::with_capacity(edges);
    let mut class_bytes = Vec::with_capacity(edges);
    let mut class_rounds = Vec::with_capacity(edges);
    for &c in &arena.edge_class {
        let (t, b, r) = class_to_columns(c);
        tags.push(t);
        class_bytes.push(b);
        class_rounds.push(r);
    }
    put_u8s(&mut out, &tags);
    put_u64s(&mut out, &class_bytes);
    put_u32s(&mut out, &class_rounds);

    let msg: Vec<u8> = arena.edge_msg.iter().map(|&m| u8::from(m)).collect();
    put_u8s(&mut out, &msg);

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
        let s = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or(MpgaError::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    fn align8(&mut self) -> Result<(), MpgaError> {
        while !self.pos.is_multiple_of(8) {
            self.take(1)?;
        }
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, MpgaError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, MpgaError> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, MpgaError> {
        let b = self.take(n.checked_mul(4).ok_or(MpgaError::Truncated)?)?;
        let v = b
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        self.align8()?;
        Ok(v)
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, MpgaError> {
        let b = self.take(n.checked_mul(8).ok_or(MpgaError::Truncated)?)?;
        Ok(b.chunks_exact(8)
            .map(|c| {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(c);
                u64::from_le_bytes(buf)
            })
            .collect())
    }

    fn i64s(&mut self, n: usize) -> Result<Vec<i64>, MpgaError> {
        Ok(self.u64s(n)?.into_iter().map(|x| x as i64).collect())
    }

    fn u8s(&mut self, n: usize) -> Result<Vec<u8>, MpgaError> {
        let v = self.take(n)?.to_vec();
        self.align8()?;
        Ok(v)
    }
}

/// Decodes and validates an MPGA artifact back into a [`GraphArena`].
///
/// Every anomaly — wrong magic/version, truncation, checksum mismatch,
/// out-of-range index, inconsistent label accounting — is an error; no
/// partially-decoded arena ever escapes.
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
    let ranks = r.u64()? as usize;
    let nodes_w = r.u64()?;
    let edges_w = r.u64()?;
    let labeled = r.u64()? as usize;
    // Counts bound allocations: the columns must actually fit in the body.
    if nodes_w > body.len() as u64 || edges_w > body.len() as u64 {
        return Err(MpgaError::Malformed("counts exceed artifact size".into()));
    }
    let nodes = nodes_w as usize;
    let edges = edges_w as usize;

    let kind_count = r.u32()? as usize;
    let _pad = r.u32()?;
    if kind_count > body.len() {
        return Err(MpgaError::Malformed("kind table exceeds artifact".into()));
    }
    let mut kinds: Vec<&'static str> = Vec::with_capacity(kind_count);
    for _ in 0..kind_count {
        let len = r.u32()? as usize;
        let raw = r.take(len)?;
        let s = std::str::from_utf8(raw)
            .map_err(|_| MpgaError::Malformed("kind string is not UTF-8".into()))?;
        kinds.push(if s.is_empty() { "" } else { intern_kind(s) });
    }
    r.align8()?;

    let node_rank = r.u32s(nodes)?;
    let node_seq = r.u64s(nodes)?;
    let node_flags = r.u8s(nodes)?;
    let kind_ids = r.u32s(nodes)?;
    let label_t = r.u64s(nodes)?;

    let edge_src = r.u32s(edges)?;
    let edge_dst = r.u32s(edges)?;
    let edge_base = r.u64s(edges)?;
    let edge_sampled = r.i64s(edges)?;
    let tags = r.u8s(edges)?;
    let class_bytes = r.u64s(edges)?;
    let class_rounds = r.u32s(edges)?;
    let msg = r.u8s(edges)?;
    if r.pos != body.len() {
        return Err(MpgaError::Malformed(format!(
            "{} trailing bytes after columns",
            body.len() - r.pos
        )));
    }

    for (&s, &d) in edge_src.iter().zip(&edge_dst) {
        if s as usize >= nodes || d as usize >= nodes {
            return Err(MpgaError::Malformed("edge endpoint out of range".into()));
        }
    }
    let mut label_kind: Vec<&'static str> = Vec::with_capacity(nodes);
    let mut counted_labeled = 0usize;
    for i in 0..nodes {
        if node_flags[i] & FLAG_LABELED != 0 {
            counted_labeled += 1;
            let id = kind_ids[i] as usize;
            if id >= kinds.len() {
                return Err(MpgaError::Malformed("kind id out of range".into()));
            }
            label_kind.push(kinds[id]);
        } else {
            label_kind.push("");
        }
    }
    if counted_labeled != labeled {
        return Err(MpgaError::Malformed(format!(
            "labeled count {labeled} disagrees with flags ({counted_labeled})"
        )));
    }

    let mut edge_class = Vec::with_capacity(edges);
    for i in 0..edges {
        edge_class.push(class_from_columns(
            tags[i],
            class_bytes[i],
            class_rounds[i],
        )?);
    }
    let edge_msg: Vec<bool> = msg.iter().map(|&m| m != 0).collect();

    let mut arena = GraphArena {
        ranks,
        node_rank,
        node_seq,
        node_flags,
        label_kind,
        label_t,
        labeled,
        index: NodeIndex::default(),
        edge_src,
        edge_dst,
        edge_base,
        edge_class,
        edge_sampled,
        edge_msg,
    };
    // Interning in column order hands node `i` index `i`; an id seen twice
    // is not fresh the second time, wherever its twin was stored.
    for i in 0..nodes {
        let (_, fresh) = arena.index.intern(arena.node_id(i as u32));
        if !fresh {
            return Err(MpgaError::Malformed("duplicate node identity".into()));
        }
    }
    Ok(arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Edge, NodeId};

    fn sample_arena() -> GraphArena {
        let mut a = GraphArena::new(3);
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
        a.label(NodeId::end(0, 0), "send", 99);
        a.label(NodeId::end(1, 4), "recv", 130);
        a
    }

    fn assert_same(a: &GraphArena, b: &GraphArena) {
        assert_eq!(a.num_ranks(), b.num_ranks());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.num_labeled(), b.num_labeled());
        for i in 0..a.num_edges() {
            assert_eq!(a.edge(i), b.edge(i));
        }
        for i in 0..a.num_nodes() as u32 {
            assert_eq!(a.node_id(i), b.node_id(i));
            assert_eq!(a.label_of(i), b.label_of(i));
            assert_eq!(b.node_index(&a.node_id(i)), Some(i));
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let a = sample_arena();
        let bytes = encode_arena(&a);
        let b = decode_arena(&bytes).unwrap();
        assert_same(&a, &b);
    }

    #[test]
    fn empty_arena_roundtrips() {
        let a = GraphArena::new(0);
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

    #[test]
    fn version_bump_is_rejected() {
        let mut bytes = encode_arena(&sample_arena());
        bytes[4..8].copy_from_slice(&(MPGA_VERSION + 1).to_le_bytes());
        // Re-seal the checksum so only the version differs.
        let n = bytes.len();
        let crc = crc32c(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_arena(&bytes).err(),
            Some(MpgaError::BadVersion(MPGA_VERSION + 1))
        );
    }
}
