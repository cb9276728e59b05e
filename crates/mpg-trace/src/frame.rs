//! Frame layer of the v2 (`MPG2`) trace format.
//!
//! The v1 format wrote one undelimited record stream per rank: a single
//! flipped bit desynchronized the varint decoder and poisoned everything
//! after it, and a crashed writer left no way to tell "short run" from
//! "torn file". v2 wraps every flush buffer (the paper's §4 memory-resident
//! buffer dump) in a self-delimiting, checksummed frame and seals complete
//! files with a footer, so a salvage pass can recover every intact frame
//! and *prove* which bytes were lost:
//!
//! ```text
//! file   := "MPG2" frame* footer
//! frame  := 0xF5  len:u32le  crc:u32le  payload[len]
//! payload:= varint(first_seq) record*      ; encoder state resets per frame
//! footer := 0xF6  records:u64le frames:u64le last_t_end:u64le
//!           payload_crc:u32le footer_crc:u32le
//! ```
//!
//! `crc` is CRC32C over the payload. `payload_crc` chains CRC32C across
//! every frame payload in order (a whole-file content checksum). The
//! footer's `last_t_end` is the stream's clock summary — the final local
//! timestamp — and `footer_crc` covers the 28 footer bytes after the
//! marker. Because each payload opens with the absolute sequence number of
//! its first record and the timestamp delta-encoder resets per frame, any
//! surviving frame decodes standalone: salvage needs no state from frames
//! that were lost before it.

use crate::TraceError;

/// Magic bytes opening a framed (v2) per-rank trace stream.
pub const MAGIC2: &[u8; 4] = b"MPG2";

/// Marker byte opening every frame header.
pub const FRAME_MARKER: u8 = 0xF5;

/// Marker byte opening the sealed footer.
pub const FOOTER_MARKER: u8 = 0xF6;

/// Bytes in a frame header: marker + payload length + payload CRC32C.
pub const FRAME_HEADER_LEN: usize = 1 + 4 + 4;

/// Bytes in the sealed footer.
pub const FOOTER_LEN: usize = 1 + 8 + 8 + 8 + 4 + 4;

/// Upper bound on a frame payload; larger lengths are treated as corrupt
/// (a resync scan must not trust a garbage length field).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// CRC32C (Castagnoli) lookup table, reflected polynomial 0x82F63B78.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// Continues a CRC32C computation: `crc` is a previous [`crc32c`] /
/// [`crc32c_append`] result, extended over `bytes`.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = (c >> 8) ^ CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize];
    }
    !c
}

/// Parsed frame header (the 9 bytes after and including [`FRAME_MARKER`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes.
    pub len: usize,
    /// CRC32C the payload must hash to.
    pub crc: u32,
}

/// Appends a frame (header + payload) to `out`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.push(FRAME_MARKER);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Parses a frame header from the front of `bytes` without validating the
/// payload. Returns `None` on a wrong marker, a length exceeding
/// [`MAX_FRAME_LEN`], or too few bytes for the header itself.
pub fn parse_frame_header(bytes: &[u8]) -> Option<FrameHeader> {
    if bytes.len() < FRAME_HEADER_LEN || bytes[0] != FRAME_MARKER {
        return None;
    }
    let len = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]) as usize;
    if len > MAX_FRAME_LEN {
        return None;
    }
    let crc = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
    Some(FrameHeader { len, crc })
}

/// Validates a complete frame at the front of `bytes`: header sane, payload
/// in bounds, CRC matches. Returns the payload slice and the total frame
/// size (header + payload).
pub fn checked_frame_at(bytes: &[u8]) -> Option<(&[u8], usize)> {
    let hdr = parse_frame_header(bytes)?;
    let payload = bytes.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + hdr.len)?;
    if crc32c(payload) != hdr.crc {
        return None;
    }
    Some((payload, FRAME_HEADER_LEN + hdr.len))
}

/// Sealed footer contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footer {
    /// Total records across all frames.
    pub records: u64,
    /// Number of frames preceding the footer.
    pub frames: u64,
    /// Clock summary: the stream's final local timestamp (`t_end` of the
    /// last record, 0 for an empty stream).
    pub last_t_end: u64,
    /// CRC32C chained over every frame payload in order.
    pub payload_crc: u32,
}

impl Footer {
    /// Appends the encoded footer (marker through `footer_crc`) to `out`.
    pub fn put(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(FOOTER_MARKER);
        out.extend_from_slice(&self.records.to_le_bytes());
        out.extend_from_slice(&self.frames.to_le_bytes());
        out.extend_from_slice(&self.last_t_end.to_le_bytes());
        out.extend_from_slice(&self.payload_crc.to_le_bytes());
        let crc = crc32c(&out[start + 1..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Parses and validates a footer at the front of `bytes`. Returns
    /// `None` on a wrong marker, too few bytes, or a failed `footer_crc`.
    pub fn parse(bytes: &[u8]) -> Option<Footer> {
        if bytes.len() < FOOTER_LEN || bytes[0] != FOOTER_MARKER {
            return None;
        }
        let body = &bytes[1..FOOTER_LEN - 4];
        let stored = u32::from_le_bytes([
            bytes[FOOTER_LEN - 4],
            bytes[FOOTER_LEN - 3],
            bytes[FOOTER_LEN - 2],
            bytes[FOOTER_LEN - 1],
        ]);
        if crc32c(body) != stored {
            return None;
        }
        let u64_at = |off: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(b)
        };
        Some(Footer {
            records: u64_at(1),
            frames: u64_at(9),
            last_t_end: u64_at(17),
            payload_crc: u32::from_le_bytes([bytes[25], bytes[26], bytes[27], bytes[28]]),
        })
    }

    /// Parses a footer like [`Footer::parse`], mapping failure to a typed
    /// error for the strict decoder.
    pub fn parse_strict(bytes: &[u8]) -> Result<Footer, TraceError> {
        Footer::parse(bytes)
            .ok_or_else(|| TraceError::Checksum("footer checksum or marker invalid".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 test vectors for CRC32C.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc32c_chaining_matches_whole() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc32c(data);
        let chained = crc32c_append(crc32c(&data[..17]), &data[17..]);
        assert_eq!(whole, chained);
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"hello frames");
        let (payload, total) = checked_frame_at(&buf).unwrap();
        assert_eq!(payload, b"hello frames");
        assert_eq!(total, buf.len());
    }

    #[test]
    fn frame_rejects_bitflip() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"hello frames");
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            // Any single-bit flip must fail validation (marker, length,
            // CRC field, or payload).
            assert!(
                checked_frame_at(&bad).is_none(),
                "flip at {i} went undetected"
            );
        }
    }

    #[test]
    fn frame_header_bounds() {
        assert!(parse_frame_header(&[]).is_none());
        assert!(parse_frame_header(&[FRAME_MARKER; 8]).is_none());
        let mut buf = vec![FRAME_MARKER];
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        assert!(parse_frame_header(&buf).is_none());
    }

    #[test]
    fn footer_roundtrip() {
        let f = Footer {
            records: 12345,
            frames: 17,
            last_t_end: 99_000_000,
            payload_crc: 0xDEAD_BEEF,
        };
        let mut buf = Vec::new();
        f.put(&mut buf);
        assert_eq!(buf.len(), FOOTER_LEN);
        assert_eq!(Footer::parse(&buf), Some(f));
    }

    #[test]
    fn footer_rejects_any_bitflip() {
        let f = Footer {
            records: 7,
            frames: 2,
            last_t_end: 500,
            payload_crc: 42,
        };
        let mut buf = Vec::new();
        f.put(&mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            assert!(Footer::parse(&bad).is_none(), "flip at {i} went undetected");
        }
    }
}
