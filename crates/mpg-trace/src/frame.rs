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
//! `crc` is CRC32C over the payload. `payload_crc` is the CRC32C of every
//! frame payload concatenated in order (a whole-file content checksum);
//! readers and writers derive it from the frame CRCs with
//! [`crc32c_combine`], so each payload byte is hashed once. The
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

/// Reflected CRC32C (Castagnoli) polynomial.
const CRC_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes, so
/// eight table lookups advance the CRC over eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// Continues a CRC32C computation: `crc` is a previous [`crc32c`] /
/// [`crc32c_append`] result, extended over `bytes`.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = (c >> 8) ^ t[0][((c ^ u32::from(b)) & 0xff) as usize];
    }
    !c
}

/// `a · b` in GF(2)[x] modulo the CRC32C polynomial, both operands in the
/// reflected bit order the CRC uses (bit 31 is x⁰).
const fn mul_mod_poly(mut a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    while a != 0 {
        if a & (1 << 31) != 0 {
            product ^= b;
        }
        a <<= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
    }
    product
}

/// `ZERO_SHIFTS[k]` is x^(8·2^k) mod P: multiplying a CRC register by it
/// runs the register across 2^k zero bytes.
static ZERO_SHIFTS: [u32; 64] = build_zero_shifts();

const fn build_zero_shifts() -> [u32; 64] {
    let mut shifts = [0u32; 64];
    // x^8 (one zero byte), reflected: bit 31 − 8.
    let mut p = 1u32 << 23;
    let mut k = 0;
    while k < 64 {
        shifts[k] = p;
        p = mul_mod_poly(p, p);
        k += 1;
    }
    shifts
}

/// The CRC32C of `A ‖ B` from `crc_a` = CRC32C(A), `crc_b` = CRC32C(B) and
/// `len_b` = |B|, without reading either message (zlib's
/// `crc32_combine`): `crc_a` is shifted across `len_b` zero bytes by one
/// multiplication with x^(8·2^k) per set bit k of `len_b`, and `crc_b` is
/// XORed on. `crc32c_append(a, bytes)` equals
/// `crc32c_combine(a, crc32c(bytes), bytes.len() as u64)`.
pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut crc = crc_a;
    let mut rest = len_b;
    let mut k = 0;
    while rest != 0 {
        if rest & 1 != 0 {
            crc = mul_mod_poly(ZERO_SHIFTS[k], crc);
        }
        rest >>= 1;
        k += 1;
    }
    crc ^ crc_b
}

/// Parsed frame header (the 9 bytes after and including [`FRAME_MARKER`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes.
    pub len: usize,
    /// CRC32C the payload must hash to.
    pub crc: u32,
}

/// Appends a frame (header + payload) to `out` and returns the payload's
/// CRC32C, so a writer can fold it into the whole-file checksum with
/// [`crc32c_combine`] instead of hashing the payload a second time.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> u32 {
    let crc = crc32c(payload);
    out.push(FRAME_MARKER);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    crc
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
    /// CRC32C of every frame payload concatenated in order.
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
    use proptest::prelude::*;

    /// The one-byte-at-a-time CRC32C the slicing-by-8 kernel replaced.
    fn crc32c_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c = (c >> 8) ^ CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize];
        }
        !c
    }

    #[test]
    fn slicing_by_8_equals_bytewise_at_every_length_and_alignment() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for align in 0..8 {
            let buf = &data[align..];
            let mut reference = 0;
            for len in 0..=4096 {
                assert_eq!(
                    crc32c(&buf[..len]),
                    reference,
                    "length {len} at alignment {align}"
                );
                if len < 4096 {
                    reference = crc32c_bytewise(reference, &buf[len..=len]);
                }
            }
        }
    }

    #[test]
    fn zero_shift_table_doubles_each_step() {
        assert_eq!(ZERO_SHIFTS[0], 1 << 23, "x^8 in reflected order");
        for k in 1..64 {
            assert_eq!(
                ZERO_SHIFTS[k],
                mul_mod_poly(ZERO_SHIFTS[k - 1], ZERO_SHIFTS[k - 1])
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// CRC(A ‖ B) from CRC(A), CRC(B) and |B| at any split point,
        /// both sides possibly empty, and from any running CRC.
        #[test]
        fn combine_equals_crc_of_concatenation(
            bytes in prop::collection::vec(any::<u8>(), 0..3000usize),
            split in any::<u64>(),
            seed in any::<u32>(),
        ) {
            let at = (split % (bytes.len() as u64 + 1)) as usize;
            let (a, b) = bytes.split_at(at);
            prop_assert_eq!(
                crc32c_combine(crc32c(a), crc32c(b), b.len() as u64),
                crc32c(&bytes)
            );
            prop_assert_eq!(
                crc32c_combine(crc32c_append(seed, a), crc32c(b), b.len() as u64),
                crc32c_append(seed, &bytes)
            );
            prop_assert_eq!(crc32c_combine(seed, 0, 0), seed);
        }

        /// Chained combines agree however they are grouped, including
        /// totals past 2^32 bytes that no test could hash directly.
        #[test]
        fn chained_combines_are_associative_past_4_gib(
            crcs in (any::<u32>(), any::<u32>(), any::<u32>()),
            lens in (0u64..1 << 34, 0u64..1 << 34),
        ) {
            let (a, b, c) = crcs;
            let (len_b, len_c) = lens;
            prop_assert_eq!(
                crc32c_combine(crc32c_combine(a, b, len_b), c, len_c),
                crc32c_combine(a, crc32c_combine(b, c, len_c), len_b + len_c)
            );
        }
    }

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
