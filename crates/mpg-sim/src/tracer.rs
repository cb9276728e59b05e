//! PMPI-style trace emission from the coordinator.
//!
//! Records arrive from the coordinator in *completion* order, which for one
//! rank can differ from sequence order in exactly one case: an `Irecv`
//! record is held back until its match resolves the actual source (a real
//! PMPI wrapper has the same constraint — the status is only known at the
//! wait). [`SeqBuffer`] reorders per rank, releasing the densely-numbered
//! prefix, so streaming sinks still write in order with bounded memory.
//! [`FrameTracer`] is that streaming sink, the paper's PMPI tracer: each
//! rank's records are encoded into its memory-resident buffer as they are
//! released, and a full buffer is written to the rank's file as one frame.
//!
//! Timestamps handed to a tracer are **global** virtual times; the tracer
//! converts them to each rank's local clock via its [`ClockModel`], so the
//! traces leaving the simulator are unsynchronized exactly like real
//! multi-node traces (§4.1).

use std::collections::BTreeMap;
use std::path::Path;

use mpg_trace::{ClockModel, EventRecord, MemTrace, Seq, TraceDirWriter, TraceError};

/// Per-rank sequence reordering buffer.
#[derive(Debug, Default)]
pub struct SeqBuffer {
    next: Seq,
    held: BTreeMap<Seq, EventRecord>,
}

impl SeqBuffer {
    /// Accepts a record and hands every record it makes releasable to
    /// `release`, in sequence order. A record that arrives in order goes
    /// straight through; only one behind a held-back `Irecv` is held.
    pub fn push(&mut self, rec: EventRecord, mut release: impl FnMut(EventRecord)) {
        debug_assert!(rec.seq >= self.next, "duplicate or stale seq {}", rec.seq);
        if rec.seq != self.next {
            self.held.insert(rec.seq, rec);
            return;
        }
        release(rec);
        self.next += 1;
        while let Some(rec) = self.held.remove(&self.next) {
            release(rec);
            self.next += 1;
        }
    }

    /// Records still held (nonzero at finish indicates a coordinator bug or
    /// an aborted run).
    pub fn pending(&self) -> usize {
        self.held.len()
    }
}

/// Sink for simulator-produced events.
pub trait Tracer: Send {
    /// Accepts one record with **global** timestamps; may arrive out of
    /// per-rank sequence order (bounded by outstanding requests).
    fn emit(&mut self, rec: EventRecord);

    /// Flushes and finalizes. Returns a trace when the sink collects one.
    fn finish(&mut self) -> Result<Option<MemTrace>, String>;
}

/// Discards everything (benchmark mode).
#[derive(Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn emit(&mut self, _rec: EventRecord) {}
    fn finish(&mut self) -> Result<Option<MemTrace>, String> {
        Ok(None)
    }
}

/// `rec` with its global timestamps converted to its rank's local clock.
fn to_local(clocks: &[ClockModel], mut rec: EventRecord) -> EventRecord {
    let clock = &clocks[rec.rank as usize];
    rec.t_start = clock.to_local(rec.t_start);
    rec.t_end = clock.to_local(rec.t_end);
    rec
}

/// The error [`Tracer::finish`] reports when a rank's records stopped
/// short of a sequence number that never arrived.
fn check_released(buffers: &[SeqBuffer]) -> Result<(), String> {
    match buffers.iter().map(SeqBuffer::pending).find(|&n| n > 0) {
        Some(n) => Err(format!("{n} trace records never released (gap in seq)")),
        None => Ok(()),
    }
}

/// Collects an in-memory [`MemTrace`], applying per-rank clock models.
#[derive(Debug)]
pub struct MemTracer {
    clocks: Vec<ClockModel>,
    buffers: Vec<SeqBuffer>,
    trace: MemTrace,
}

impl MemTracer {
    /// Creates a tracer for `ranks` ranks with the given clock models
    /// (`clocks.len() == ranks`).
    pub fn new(clocks: Vec<ClockModel>) -> Self {
        let ranks = clocks.len();
        Self {
            clocks,
            buffers: (0..ranks).map(|_| SeqBuffer::default()).collect(),
            trace: MemTrace::new(ranks),
        }
    }
}

impl Tracer for MemTracer {
    fn emit(&mut self, rec: EventRecord) {
        let rec = to_local(&self.clocks, rec);
        let trace = &mut self.trace;
        self.buffers[rec.rank as usize].push(rec, |ready| trace.push(ready));
    }

    fn finish(&mut self) -> Result<Option<MemTrace>, String> {
        check_released(&self.buffers)?;
        Ok(Some(std::mem::take(&mut self.trace)))
    }
}

/// Streams each rank's records into its file of a trace directory as they
/// are released, through a [`TraceDirWriter`]: the whole trace is never in
/// memory, only each rank's unspilled buffer and its held-back records.
/// `finish` seals the directory and returns no trace; a tracer dropped
/// without a successful `finish` leaves no trace directory behind.
///
/// `emit` runs under the sequencer's lock, so encoding and the occasional
/// frame write sit on the simulation's critical path (DESIGN §6).
pub struct FrameTracer {
    clocks: Vec<ClockModel>,
    buffers: Vec<SeqBuffer>,
    /// `None` once `finish` has run.
    out: Option<TraceDirWriter>,
    /// The first write that failed; later records are dropped and
    /// `finish` reports it.
    failed: Option<TraceError>,
}

impl FrameTracer {
    /// A tracer writing a new trace directory at `dir`, one rank per clock
    /// model.
    pub fn create(dir: &Path, clocks: Vec<ClockModel>) -> Result<Self, TraceError> {
        let ranks = clocks.len();
        Ok(Self {
            out: Some(TraceDirWriter::create(dir, ranks)?),
            clocks,
            buffers: (0..ranks).map(|_| SeqBuffer::default()).collect(),
            failed: None,
        })
    }
}

impl Tracer for FrameTracer {
    fn emit(&mut self, rec: EventRecord) {
        let rec = to_local(&self.clocks, rec);
        let rank = rec.rank as usize;
        let (Some(out), failed) = (self.out.as_mut(), &mut self.failed) else {
            return;
        };
        self.buffers[rank].push(rec, |ready| {
            if failed.is_none() {
                *failed = out.record(rank, &ready).err();
            }
        });
    }

    fn finish(&mut self) -> Result<Option<MemTrace>, String> {
        // Taking the writer first drops it, and with it every file the
        // run wrote, on each error path below.
        let out = self.out.take().ok_or("trace already finished")?;
        check_released(&self.buffers)?;
        if let Some(e) = self.failed.take() {
            return Err(e.to_string());
        }
        out.finish().map_err(|e| e.to_string())?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpg_trace::EventKind;

    fn rec(rank: u32, seq: u64, t: u64) -> EventRecord {
        EventRecord {
            rank,
            seq,
            t_start: t,
            t_end: t + 10,
            kind: EventKind::Compute { work: 10 },
        }
    }

    #[test]
    fn seqbuffer_releases_in_order() {
        let mut b = SeqBuffer::default();
        let mut out = Vec::new();
        b.push(rec(0, 1, 10), |r| out.push(r.seq));
        b.push(rec(0, 2, 20), |r| out.push(r.seq));
        assert!(out.is_empty());
        b.push(rec(0, 0, 0), |r| out.push(r.seq));
        assert_eq!(out, vec![0, 1, 2]);
        b.push(rec(0, 3, 30), |r| out.push(r.seq));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn memtracer_applies_clock_and_orders() {
        let clocks = vec![
            ClockModel {
                offset: 1000,
                drift_ppm: 0.0,
            },
            ClockModel::ideal(),
        ];
        let mut t = MemTracer::new(clocks);
        t.emit(rec(0, 1, 100));
        t.emit(rec(1, 0, 50));
        t.emit(rec(0, 0, 0));
        let trace = t.finish().unwrap().unwrap();
        let r0 = trace.rank(0);
        assert_eq!(r0.len(), 2);
        assert_eq!(r0[0].seq, 0);
        assert_eq!(r0[0].t_start, 1000); // offset applied
        assert_eq!(r0[1].t_start, 1100);
        assert_eq!(trace.rank(1)[0].t_start, 50);
    }

    #[test]
    fn memtracer_detects_gaps() {
        let mut t = MemTracer::new(vec![ClockModel::ideal()]);
        t.emit(rec(0, 1, 0));
        assert!(t.finish().is_err());
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mpg-sim-tracer-{tag}-{}", std::process::id()))
    }

    fn irecv(seq: u64, t: u64) -> EventRecord {
        EventRecord {
            kind: EventKind::Irecv {
                peer: 1,
                tag: 0,
                bytes: 8,
                req: 0,
                posted_any: false,
            },
            ..rec(0, seq, t)
        }
    }

    /// Enough 4–5-byte compute records to fill more than one 64 KiB frame.
    const PAST_A_FRAME: u64 = 20_000;

    /// An `Irecv` held back until its source is known holds every later
    /// record of its rank; released, they cross a frame boundary of the
    /// rank file, which then holds what `MemTrace::save` writes of the
    /// records in order.
    #[test]
    fn frame_tracer_releases_a_held_irecv_across_frames() {
        let (dir, saved) = (tmp("held"), tmp("held-saved"));
        for d in [&dir, &saved] {
            let _ = std::fs::remove_dir_all(d);
        }
        let clock = ClockModel {
            offset: 500,
            drift_ppm: 20.0,
        };
        let mut t = FrameTracer::create(&dir, vec![clock]).unwrap();
        let records: Vec<EventRecord> = (0..PAST_A_FRAME)
            .map(|seq| match seq {
                3 => irecv(3, 30),
                _ => rec(0, seq, seq * 10),
            })
            .collect();
        for r in records[..3].iter().chain(&records[4..]) {
            t.emit(r.clone());
        }
        assert_eq!(t.buffers[0].pending(), records.len() - 4);
        assert!(
            !dir.join("rank-0.mpg").exists(),
            "wrote past the held irecv"
        );
        t.emit(records[3].clone());
        assert_eq!(t.buffers[0].pending(), 0);
        assert!(
            dir.join("rank-0.mpg").exists(),
            "the release filled no frame"
        );
        assert_eq!(t.finish().unwrap(), None);

        let local = records.into_iter().map(|r| to_local(&[clock], r)).collect();
        MemTrace::from_ranks(vec![local]).save(&saved).unwrap();
        for file in ["rank-0.mpg", "meta.txt"] {
            let (got, want) = (dir.join(file), saved.join(file));
            assert!(
                std::fs::read(got).unwrap() == std::fs::read(want).unwrap(),
                "{file}"
            );
        }
        for d in [&dir, &saved] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    /// A record that never arrives is an error at `finish`, and the frames
    /// already written go with the directory.
    #[test]
    fn frame_tracer_gap_is_an_error_and_leaves_no_files() {
        let dir = tmp("gap");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = FrameTracer::create(&dir, vec![ClockModel::ideal(); 2]).unwrap();
        for seq in 0..PAST_A_FRAME {
            t.emit(rec(1, seq, seq * 10));
        }
        t.emit(rec(0, 0, 0));
        t.emit(rec(0, 2, 20));
        assert!(dir.join("rank-1.mpg").exists(), "no frame spilled");
        let err = t.finish().unwrap_err();
        assert!(err.contains("gap in seq"), "{err}");
        assert!(!dir.exists());
    }

    /// A write that fails inside `emit` is kept and reported by `finish`,
    /// which then leaves nothing of the directory behind.
    #[test]
    fn frame_tracer_write_error_surfaces_at_finish() {
        let dir = tmp("io");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = FrameTracer::create(&dir, vec![ClockModel::ideal()]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        for seq in 0..PAST_A_FRAME {
            t.emit(rec(0, seq, seq * 10));
        }
        let err = t.finish().unwrap_err();
        assert!(err.starts_with("trace I/O error"), "{err}");
        assert!(!dir.exists());
    }

    #[test]
    fn null_tracer_returns_nothing() {
        let mut t = NullTracer;
        t.emit(rec(0, 0, 0));
        assert_eq!(t.finish().unwrap(), None);
    }
}
