//! Buffered trace writer mirroring the paper's PMPI wrapper (§4).
//!
//! "…records the event in a memory resident buffer. The buffer is dumped to
//! an event trace file when it becomes full, and is then reset to empty for
//! future events. The size of this buffer can be tuned to compensate for
//! event frequency and overhead for I/O."
//!
//! Every buffer dump becomes one self-delimiting, CRC32C-checksummed frame
//! (see [`crate::frame`]), and [`finish`] seals the stream with a footer. A
//! writer killed mid-run therefore leaves behind a file whose complete
//! frames are all still recoverable by the salvage reader; only the records
//! still sitting in the memory-resident buffer are lost — exactly the
//! paper's crash exposure, now bounded and detectable.
//!
//! [`finish`]: TraceWriter::finish

use std::io::Write;

use crate::codec::{put_varint, Encoder};
use crate::event::EventRecord;
use crate::frame::{crc32c_combine, put_frame, Footer, MAGIC2};
use crate::TraceError;

/// Buffered, flush-on-full writer for one rank's event stream.
pub struct TraceWriter<W: Write> {
    sink: W,
    encoder: Encoder,
    buf: Vec<u8>,
    capacity: usize,
    flushes: u64,
    records: u64,
    wrote_header: bool,
    /// Sequence number of the first record in the current (unflushed)
    /// buffer; written at the head of the frame payload.
    frame_first_seq: u64,
    /// CRC32C of every flushed frame payload, concatenated.
    payload_crc: u32,
    /// `t_end` of the last record written (the footer's clock summary).
    last_t_end: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer whose memory-resident buffer holds roughly
    /// `buffer_bytes` of encoded records before spilling to `sink` as one
    /// checksummed frame.
    pub fn new(sink: W, buffer_bytes: usize) -> Self {
        Self {
            sink,
            encoder: Encoder::new(),
            buf: Vec::with_capacity(buffer_bytes.max(64)),
            capacity: buffer_bytes.max(64),
            flushes: 0,
            records: 0,
            wrote_header: false,
            frame_first_seq: 0,
            payload_crc: 0,
            last_t_end: 0,
        }
    }

    fn write_header(&mut self) -> Result<(), TraceError> {
        if !self.wrote_header {
            self.sink.write_all(MAGIC2)?;
            self.wrote_header = true;
        }
        Ok(())
    }

    /// Records one event; spills the buffer as a frame when full.
    pub fn record(&mut self, rec: &EventRecord) -> Result<(), TraceError> {
        self.write_header()?;
        self.encoder.encode(rec, &mut self.buf);
        self.records += 1;
        self.last_t_end = rec.t_end;
        if self.buf.len() >= self.capacity {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<(), TraceError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(self.buf.len() + 10);
        put_varint(&mut payload, self.frame_first_seq);
        payload.extend_from_slice(&self.buf);
        let mut framed = Vec::with_capacity(payload.len() + 9);
        let crc = put_frame(&mut framed, &payload);
        self.sink.write_all(&framed)?;
        self.payload_crc = crc32c_combine(self.payload_crc, crc, payload.len() as u64);
        // The next frame must decode standalone: restart the timestamp
        // delta base and note where its sequence numbering begins.
        self.encoder = Encoder::new();
        self.frame_first_seq = self.records;
        self.buf.clear();
        self.flushes += 1;
        Ok(())
    }

    /// Flushes remaining buffered records, seals the stream with the
    /// footer, and returns the sink.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.write_header()?;
        self.spill()?;
        let footer = Footer {
            records: self.records,
            frames: self.flushes,
            last_t_end: self.last_t_end,
            payload_crc: self.payload_crc,
        };
        let mut buf = Vec::new();
        footer.put(&mut buf);
        self.sink.write_all(&buf)?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// The sink the frames are written to (a caller that spills into a
    /// `Vec` drains it here).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.sink
    }

    /// Number of buffer spills (= frames written) so far
    /// (tracer-overhead diagnostics).
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Number of records written so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SendProtocol};
    use crate::frame::{checked_frame_at, FOOTER_LEN};
    use crate::ooc::FrameCursor;

    fn rec(seq: u64, t: u64) -> EventRecord {
        EventRecord {
            rank: 0,
            seq,
            t_start: t,
            t_end: t + 5,
            kind: EventKind::Compute { work: 5 },
        }
    }

    /// A fixed stream of six record shapes (plain and request-carrying
    /// point-to-point, compute, wait), with irregularly growing timestamps.
    fn fixed_stream() -> Vec<EventRecord> {
        let mut t = 17u64;
        (0..3000u64)
            .map(|seq| {
                let kind = match seq % 6 {
                    0 => EventKind::Compute {
                        work: seq * 37 % 9001,
                    },
                    1 => EventKind::Send {
                        peer: (seq % 5) as u32,
                        tag: (seq % 3) as u32,
                        bytes: seq * 64,
                        protocol: SendProtocol::Synchronous,
                    },
                    2 => EventKind::Recv {
                        peer: (seq % 7) as u32,
                        tag: 1,
                        bytes: 4096,
                        posted_any: seq % 4 == 2,
                    },
                    3 => EventKind::Isend {
                        peer: 1,
                        tag: 9,
                        bytes: 8,
                        req: seq,
                    },
                    4 => EventKind::Irecv {
                        peer: 2,
                        tag: 9,
                        bytes: 8,
                        req: seq,
                        posted_any: true,
                    },
                    _ => EventKind::Wait { req: seq - 2 },
                };
                let t_start = t;
                t += 1 + seq * seq % 977;
                EventRecord {
                    rank: 3,
                    seq,
                    t_start,
                    t_end: t,
                    kind,
                }
            })
            .collect()
    }

    #[test]
    fn writer_bytes_are_pinned() {
        // FNV-1a 64 of the bytes the bytewise, twice-hashing writer wrote
        // for this stream: frame CRCs and the combined whole-file CRC must
        // reproduce it exactly.
        let mut w = TraceWriter::new(Vec::new(), 700);
        for r in &fixed_stream() {
            w.record(r).unwrap();
        }
        assert!(w.flush_count() > 30, "flushes={}", w.flush_count());
        let bytes = w.finish().unwrap();
        assert_eq!(
            (bytes.len(), crate::hash::fnv1a64(&bytes)),
            (23_406, 0xD1BB_2820_83C5_B513)
        );
    }

    #[test]
    fn writes_header_and_roundtrips() {
        let mut w = TraceWriter::new(Vec::new(), 1 << 16);
        for i in 0..10 {
            w.record(&rec(i, i * 10)).unwrap();
        }
        let bytes = w.finish().unwrap();
        assert_eq!(&bytes[..4], MAGIC2);
        let out: Vec<_> = FrameCursor::from_bytes(bytes, 0)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out[9], rec(9, 90));
    }

    #[test]
    fn small_buffer_flushes_repeatedly() {
        let mut w = TraceWriter::new(Vec::new(), 64);
        for i in 0..1000 {
            w.record(&rec(i, i * 10)).unwrap();
        }
        assert!(w.flush_count() > 5, "flushes={}", w.flush_count());
        assert_eq!(w.record_count(), 1000);
        let bytes = w.finish().unwrap();
        let cursor = FrameCursor::from_bytes(bytes, 0).unwrap();
        assert!(cursor.index().num_frames() > 5);
        let out: Vec<_> = cursor.collect::<Result<_, _>>().unwrap();
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn empty_trace_still_has_header_and_seal() {
        let w = TraceWriter::new(Vec::new(), 1024);
        let bytes = w.finish().unwrap();
        assert_eq!(&bytes[..4], MAGIC2);
        assert_eq!(bytes.len(), 4 + FOOTER_LEN);
        assert_eq!(FrameCursor::from_bytes(bytes, 0).unwrap().count(), 0);
    }

    #[test]
    fn frames_validate_and_footer_counts_match() {
        let mut w = TraceWriter::new(Vec::new(), 64);
        for i in 0..100 {
            w.record(&rec(i, i * 10)).unwrap();
        }
        let bytes = w.finish().unwrap();
        // Walk the frames by hand.
        let mut pos = 4;
        let mut frames = 0u64;
        while bytes[pos] == crate::frame::FRAME_MARKER {
            let (_, total) = checked_frame_at(&bytes[pos..]).expect("frame must validate");
            pos += total;
            frames += 1;
        }
        let footer = Footer::parse(&bytes[pos..]).expect("footer must validate");
        assert_eq!(pos + FOOTER_LEN, bytes.len());
        assert_eq!(footer.records, 100);
        assert_eq!(footer.frames, frames);
        assert_eq!(footer.last_t_end, 99 * 10 + 5);
    }
}
