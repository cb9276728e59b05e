//! Compact binary codec for trace records.
//!
//! Little-endian LEB128 varints throughout; timestamps are delta-encoded
//! against the previous record on the same stream so long runs stay small.
//! The format is self-framing: each record begins with a kind byte, so a
//! reader can stream records without an index (§4.2's windowed construction
//! depends on pure streaming).

use crate::event::{EventKind, EventRecord, SendProtocol};
use crate::TraceError;

const K_INIT: u8 = 0;
const K_FINALIZE: u8 = 1;
const K_COMPUTE: u8 = 2;
const K_SEND: u8 = 3;
const K_RECV: u8 = 4;
const K_RECV_ANY: u8 = 5;
const K_ISEND: u8 = 6;
const K_IRECV: u8 = 7;
const K_IRECV_ANY: u8 = 8;
const K_WAIT: u8 = 9;
const K_WAITALL: u8 = 10;
const K_WAITSOME: u8 = 11;
const K_BARRIER: u8 = 12;
const K_BCAST: u8 = 13;
const K_REDUCE: u8 = 14;
const K_ALLREDUCE: u8 = 15;
const K_TEST_DONE: u8 = 16;
const K_TEST_PENDING: u8 = 17;
const K_SCATTER: u8 = 18;
const K_GATHER: u8 = 19;
const K_ALLGATHER: u8 = 20;
const K_ALLTOALL: u8 = 21;
const K_SEND_SYNC: u8 = 22;
const K_SEND_BUF: u8 = 23;
const K_SEND_RDY: u8 = 24;

/// Appends a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `input`, advancing it.
pub fn get_varint(input: &mut &[u8]) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input
            .split_first()
            .ok_or_else(|| TraceError::Corrupt("truncated varint".into()))?;
        *input = rest;
        if shift >= 64 {
            return Err(TraceError::Corrupt("varint overflow".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Stateful encoder: delta-encodes timestamps per stream.
#[derive(Debug, Default)]
pub struct Encoder {
    last_t: u64,
}

impl Encoder {
    /// Creates an encoder with timestamp base 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the encoding of `rec` to `buf`.
    ///
    /// Rank and seq are *not* stored per record: the stream is per-rank and
    /// dense, so the reader reconstructs both.
    pub fn encode(&mut self, rec: &EventRecord, buf: &mut Vec<u8>) {
        let (kind_byte, write_body): (u8, _) = match &rec.kind {
            EventKind::Init => (K_INIT, None),
            EventKind::Finalize => (K_FINALIZE, None),
            EventKind::Compute { work } => (K_COMPUTE, Some(vec![*work])),
            EventKind::Send {
                peer,
                tag,
                bytes,
                protocol,
            } => {
                let k = match protocol {
                    SendProtocol::Standard => K_SEND,
                    SendProtocol::Synchronous => K_SEND_SYNC,
                    SendProtocol::Buffered => K_SEND_BUF,
                    SendProtocol::Ready => K_SEND_RDY,
                };
                (k, Some(vec![u64::from(*peer), u64::from(*tag), *bytes]))
            }
            EventKind::Recv {
                peer,
                tag,
                bytes,
                posted_any,
            } => (
                if *posted_any { K_RECV_ANY } else { K_RECV },
                Some(vec![u64::from(*peer), u64::from(*tag), *bytes]),
            ),
            EventKind::Isend {
                peer,
                tag,
                bytes,
                req,
            } => (
                K_ISEND,
                Some(vec![u64::from(*peer), u64::from(*tag), *bytes, *req]),
            ),
            EventKind::Irecv {
                peer,
                tag,
                bytes,
                req,
                posted_any,
            } => (
                if *posted_any { K_IRECV_ANY } else { K_IRECV },
                Some(vec![u64::from(*peer), u64::from(*tag), *bytes, *req]),
            ),
            EventKind::Wait { req } => (K_WAIT, Some(vec![*req])),
            EventKind::WaitAll { reqs } => {
                let mut v = vec![reqs.len() as u64];
                v.extend(reqs.iter().copied());
                (K_WAITALL, Some(v))
            }
            EventKind::WaitSome { reqs, completed } => {
                let mut v = vec![reqs.len() as u64];
                v.extend(reqs.iter().copied());
                v.push(completed.len() as u64);
                v.extend(completed.iter().copied());
                (K_WAITSOME, Some(v))
            }
            EventKind::Barrier { comm_size } => (K_BARRIER, Some(vec![u64::from(*comm_size)])),
            EventKind::Bcast {
                root,
                bytes,
                comm_size,
            } => (
                K_BCAST,
                Some(vec![u64::from(*root), *bytes, u64::from(*comm_size)]),
            ),
            EventKind::Reduce {
                root,
                bytes,
                comm_size,
            } => (
                K_REDUCE,
                Some(vec![u64::from(*root), *bytes, u64::from(*comm_size)]),
            ),
            EventKind::Allreduce { bytes, comm_size } => {
                (K_ALLREDUCE, Some(vec![*bytes, u64::from(*comm_size)]))
            }
            EventKind::Test { req, completed } => (
                if *completed {
                    K_TEST_DONE
                } else {
                    K_TEST_PENDING
                },
                Some(vec![*req]),
            ),
            EventKind::Scatter {
                root,
                bytes,
                comm_size,
            } => (
                K_SCATTER,
                Some(vec![u64::from(*root), *bytes, u64::from(*comm_size)]),
            ),
            EventKind::Gather {
                root,
                bytes,
                comm_size,
            } => (
                K_GATHER,
                Some(vec![u64::from(*root), *bytes, u64::from(*comm_size)]),
            ),
            EventKind::Allgather { bytes, comm_size } => {
                (K_ALLGATHER, Some(vec![*bytes, u64::from(*comm_size)]))
            }
            EventKind::Alltoall { bytes, comm_size } => {
                (K_ALLTOALL, Some(vec![*bytes, u64::from(*comm_size)]))
            }
        };
        buf.push(kind_byte);
        let dt_start = rec.t_start.wrapping_sub(self.last_t);
        put_varint(buf, dt_start);
        put_varint(buf, rec.t_end - rec.t_start);
        self.last_t = rec.t_end;
        if let Some(fields) = write_body {
            for f in fields {
                put_varint(buf, f);
            }
        }
    }
}

/// Stateful decoder mirroring [`Encoder`].
#[derive(Debug)]
pub struct Decoder {
    last_t: u64,
    rank: u32,
    next_seq: u64,
}

impl Decoder {
    /// Creates a decoder producing records attributed to `rank`.
    pub fn new(rank: u32) -> Self {
        Self {
            last_t: 0,
            rank,
            next_seq: 0,
        }
    }

    /// Resets per-frame state at a v2 frame boundary: the timestamp delta
    /// base returns to 0 (each frame's first record carries an absolute
    /// timestamp) and sequence numbering continues from the frame's
    /// recorded `first_seq`, so frames decode independently.
    pub fn reset_frame(&mut self, first_seq: u64) {
        self.last_t = 0;
        self.next_seq = first_seq;
    }

    /// Sequence number the next decoded record will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Decodes one record from the front of `input`, advancing it.
    /// Returns `None` when `input` is empty.
    pub fn decode(&mut self, input: &mut &[u8]) -> Result<Option<EventRecord>, TraceError> {
        let Some((&kind_byte, rest)) = input.split_first() else {
            return Ok(None);
        };
        *input = rest;
        let dt_start = get_varint(input)?;
        let dur = get_varint(input)?;
        let t_start = self.last_t.wrapping_add(dt_start);
        // Untrusted input: a garbage duration must surface as a decode
        // error, not an overflow panic.
        let t_end = t_start
            .checked_add(dur)
            .ok_or_else(|| TraceError::Corrupt("timestamp overflow".into()))?;
        // State commits (last_t, next_seq) happen only after the whole record
        // decodes, so a failed decode leaves the decoder as it found it.

        let v = |input: &mut &[u8]| get_varint(input);
        let rank32 = |x: u64, what: &str| -> Result<u32, TraceError> {
            u32::try_from(x).map_err(|_| TraceError::Corrupt(format!("{what} out of range")))
        };
        let kind = match kind_byte {
            K_INIT => EventKind::Init,
            K_FINALIZE => EventKind::Finalize,
            K_COMPUTE => EventKind::Compute { work: v(input)? },
            K_SEND | K_SEND_SYNC | K_SEND_BUF | K_SEND_RDY => EventKind::Send {
                peer: rank32(v(input)?, "peer")?,
                tag: rank32(v(input)?, "tag")?,
                bytes: v(input)?,
                protocol: match kind_byte {
                    K_SEND_SYNC => SendProtocol::Synchronous,
                    K_SEND_BUF => SendProtocol::Buffered,
                    K_SEND_RDY => SendProtocol::Ready,
                    _ => SendProtocol::Standard,
                },
            },
            K_RECV | K_RECV_ANY => EventKind::Recv {
                peer: rank32(v(input)?, "peer")?,
                tag: rank32(v(input)?, "tag")?,
                bytes: v(input)?,
                posted_any: kind_byte == K_RECV_ANY,
            },
            K_ISEND => EventKind::Isend {
                peer: rank32(v(input)?, "peer")?,
                tag: rank32(v(input)?, "tag")?,
                bytes: v(input)?,
                req: v(input)?,
            },
            K_IRECV | K_IRECV_ANY => EventKind::Irecv {
                peer: rank32(v(input)?, "peer")?,
                tag: rank32(v(input)?, "tag")?,
                bytes: v(input)?,
                req: v(input)?,
                posted_any: kind_byte == K_IRECV_ANY,
            },
            K_WAIT => EventKind::Wait { req: v(input)? },
            K_WAITALL => {
                let n = v(input)? as usize;
                let mut reqs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    reqs.push(v(input)?);
                }
                EventKind::WaitAll { reqs }
            }
            K_WAITSOME => {
                let n = v(input)? as usize;
                let mut reqs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    reqs.push(v(input)?);
                }
                let m = v(input)? as usize;
                let mut completed = Vec::with_capacity(m.min(1024));
                for _ in 0..m {
                    completed.push(v(input)?);
                }
                EventKind::WaitSome { reqs, completed }
            }
            K_BARRIER => EventKind::Barrier {
                comm_size: rank32(v(input)?, "comm")?,
            },
            K_BCAST => EventKind::Bcast {
                root: rank32(v(input)?, "root")?,
                bytes: v(input)?,
                comm_size: rank32(v(input)?, "comm")?,
            },
            K_REDUCE => EventKind::Reduce {
                root: rank32(v(input)?, "root")?,
                bytes: v(input)?,
                comm_size: rank32(v(input)?, "comm")?,
            },
            K_ALLREDUCE => EventKind::Allreduce {
                bytes: v(input)?,
                comm_size: rank32(v(input)?, "comm")?,
            },
            K_TEST_DONE | K_TEST_PENDING => EventKind::Test {
                req: v(input)?,
                completed: kind_byte == K_TEST_DONE,
            },
            K_SCATTER => EventKind::Scatter {
                root: rank32(v(input)?, "root")?,
                bytes: v(input)?,
                comm_size: rank32(v(input)?, "comm")?,
            },
            K_GATHER => EventKind::Gather {
                root: rank32(v(input)?, "root")?,
                bytes: v(input)?,
                comm_size: rank32(v(input)?, "comm")?,
            },
            K_ALLGATHER => EventKind::Allgather {
                bytes: v(input)?,
                comm_size: rank32(v(input)?, "comm")?,
            },
            K_ALLTOALL => EventKind::Alltoall {
                bytes: v(input)?,
                comm_size: rank32(v(input)?, "comm")?,
            },
            other => {
                return Err(TraceError::Corrupt(format!("unknown kind byte {other}")));
            }
        };
        self.last_t = t_end;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(Some(EventRecord {
            rank: self.rank,
            seq,
            t_start,
            t_end,
            kind,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRecord;

    fn roundtrip(records: Vec<EventRecord>) {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        for r in &records {
            enc.encode(r, &mut buf);
        }
        let mut dec = Decoder::new(records.first().map_or(0, |r| r.rank));
        let mut input = buf.as_slice();
        let mut out = Vec::new();
        while let Some(r) = dec.decode(&mut input).unwrap() {
            out.push(r);
        }
        assert_eq!(records, out);
    }

    fn rec(seq: u64, t0: u64, t1: u64, kind: EventKind) -> EventRecord {
        EventRecord {
            rank: 3,
            seq,
            t_start: t0,
            t_end: t1,
            kind,
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        roundtrip(vec![
            rec(0, 0, 50, EventKind::Init),
            rec(1, 100, 150, EventKind::Compute { work: 490 }),
            rec(
                2,
                200,
                250,
                EventKind::Send {
                    peer: 1,
                    tag: 9,
                    bytes: 4096,
                    protocol: SendProtocol::Standard,
                },
            ),
            rec(
                3,
                300,
                350,
                EventKind::Send {
                    peer: 1,
                    tag: 9,
                    bytes: 1,
                    protocol: SendProtocol::Synchronous,
                },
            ),
            rec(
                4,
                400,
                450,
                EventKind::Send {
                    peer: 1,
                    tag: 9,
                    bytes: 1,
                    protocol: SendProtocol::Buffered,
                },
            ),
            rec(
                5,
                500,
                550,
                EventKind::Send {
                    peer: 1,
                    tag: 9,
                    bytes: 1,
                    protocol: SendProtocol::Ready,
                },
            ),
            rec(
                6,
                600,
                650,
                EventKind::Recv {
                    peer: 2,
                    tag: 0,
                    bytes: 64,
                    posted_any: true,
                },
            ),
            rec(
                7,
                700,
                750,
                EventKind::Isend {
                    peer: 0,
                    tag: 1,
                    bytes: 1,
                    req: 77,
                },
            ),
            rec(
                8,
                800,
                850,
                EventKind::Irecv {
                    peer: 1,
                    tag: 1,
                    bytes: 2,
                    req: 78,
                    posted_any: false,
                },
            ),
            rec(9, 900, 950, EventKind::Wait { req: 77 }),
            rec(
                10,
                1000,
                1050,
                EventKind::WaitAll {
                    reqs: vec![78, 79, 80],
                },
            ),
            rec(
                11,
                1100,
                1150,
                EventKind::WaitSome {
                    reqs: vec![81, 82],
                    completed: vec![82],
                },
            ),
            rec(
                12,
                1200,
                1250,
                EventKind::Test {
                    req: 5,
                    completed: true,
                },
            ),
            rec(
                13,
                1300,
                1350,
                EventKind::Test {
                    req: 5,
                    completed: false,
                },
            ),
            rec(14, 1400, 1450, EventKind::Barrier { comm_size: 128 }),
            rec(
                15,
                1500,
                1550,
                EventKind::Bcast {
                    root: 0,
                    bytes: 8,
                    comm_size: 128,
                },
            ),
            rec(
                16,
                1600,
                1650,
                EventKind::Reduce {
                    root: 5,
                    bytes: 8,
                    comm_size: 128,
                },
            ),
            rec(
                17,
                1700,
                1750,
                EventKind::Allreduce {
                    bytes: 16,
                    comm_size: 128,
                },
            ),
            rec(
                18,
                1800,
                1850,
                EventKind::Scatter {
                    root: 0,
                    bytes: 32,
                    comm_size: 128,
                },
            ),
            rec(
                19,
                1900,
                1950,
                EventKind::Gather {
                    root: 1,
                    bytes: 32,
                    comm_size: 128,
                },
            ),
            rec(
                20,
                2000,
                2050,
                EventKind::Allgather {
                    bytes: 8,
                    comm_size: 128,
                },
            ),
            rec(
                21,
                2100,
                2150,
                EventKind::Alltoall {
                    bytes: 4,
                    comm_size: 128,
                },
            ),
            rec(22, 2200, 2250, EventKind::Finalize),
        ]);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(vec![]);
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let buf = [0x80u8, 0x80];
        let mut s = &buf[..];
        assert!(matches!(get_varint(&mut s), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn varint_overflow_errors() {
        let buf = [0xffu8; 11];
        let mut s = &buf[..];
        assert!(matches!(get_varint(&mut s), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn unknown_kind_errors() {
        let buf = [200u8, 0, 0];
        let mut dec = Decoder::new(0);
        let mut s = &buf[..];
        assert!(matches!(dec.decode(&mut s), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn delta_encoding_is_compact() {
        // Consecutive events with small gaps should cost only a few bytes each.
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        let base = 1_000_000_000_000u64; // large absolute time
        for i in 0..100u64 {
            enc.encode(
                &rec(i, base + i * 20, base + i * 20 + 10, EventKind::Init),
                &mut buf,
            );
        }
        // First record pays for the absolute base; the rest are tiny.
        assert!(buf.len() < 100 * 4 + 10, "len={}", buf.len());
    }

    #[test]
    fn decoder_assigns_dense_seq() {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        for i in 0..3u64 {
            enc.encode(&rec(i, i * 10, i * 10 + 5, EventKind::Init), &mut buf);
        }
        let mut dec = Decoder::new(7);
        let mut s = buf.as_slice();
        let mut seqs = Vec::new();
        while let Some(r) = dec.decode(&mut s).unwrap() {
            assert_eq!(r.rank, 7);
            seqs.push(r.seq);
        }
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
