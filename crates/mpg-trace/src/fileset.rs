//! Trace sets: one event stream per rank, in memory or on disk.
//!
//! The analyzer is generic over per-rank record iterators, so both backends
//! feed it identically: [`MemTrace`] keeps everything in core (tests, small
//! runs); [`FileTraceSet`] lays one `rank-N.mpg` file per rank plus a small
//! `meta.txt` in a directory, and [`crate::OocTraceSet`] streams that
//! directory frame by frame, preserving the paper's arbitrarily-large-trace
//! property. Every strict read decodes through [`crate::ooc::FrameCursor`].

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::diag::{json_escape_into, Diagnostic, Rule};
use crate::event::EventRecord;
use crate::ooc::{FrameCursor, MappedFile};
use crate::salvage::{salvage_into, RankSalvage};
use crate::writer::TraceWriter;
use crate::TraceError;

/// An in-memory trace set: `events[rank]` is that rank's ordered stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemTrace {
    events: Vec<Vec<EventRecord>>,
}

impl MemTrace {
    /// Creates an empty trace set for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self {
            events: vec![Vec::new(); ranks],
        }
    }

    /// Builds from pre-assembled per-rank vectors.
    pub fn from_ranks(events: Vec<Vec<EventRecord>>) -> Self {
        Self { events }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.events.len()
    }

    /// Total event count across ranks.
    pub fn total_events(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Appends an event to its rank's stream.
    pub fn push(&mut self, rec: EventRecord) {
        self.events[rec.rank as usize].push(rec);
    }

    /// One rank's stream.
    pub fn rank(&self, rank: usize) -> &[EventRecord] {
        &self.events[rank]
    }

    /// Infallible per-rank iterator (cloned records).
    pub fn iter_rank(&self, rank: usize) -> impl Iterator<Item = EventRecord> + '_ {
        self.events[rank].iter().cloned()
    }

    /// Writes this trace set to `dir` as a [`FileTraceSet`].
    pub fn save(&self, dir: &Path) -> Result<FileTraceSet, TraceError> {
        let mut out = TraceDirWriter::create(dir, self.num_ranks())?;
        for (r, events) in self.events.iter().enumerate() {
            for e in events {
                out.record(r, e)?;
            }
        }
        out.finish()
    }
}

/// Encoded bytes each rank holds before spilling them to its file as one
/// frame: the size of the paper's memory-resident buffer, the same for
/// every trace directory written.
const RANK_BUFFER_BYTES: usize = 1 << 16;

/// Writes a trace directory while its records arrive: one flush-on-full
/// [`TraceWriter`] per rank, each spilling a frame to `rank-N.mpg` when
/// its buffer is full, and `meta.txt` at [`finish`](Self::finish). This is
/// the one definition of the directory's layout on the write side:
/// [`MemTrace::save`] and the simulator's streaming tracer both write
/// through it, so what they write cannot drift apart.
///
/// No rank file stays open between frames: each spill opens its file,
/// appends the frame and closes it, so a run with more ranks than the
/// process may hold open files still writes. A writer dropped unsealed —
/// a failed run, an I/O error — removes every file and directory it
/// created and nothing else.
pub struct TraceDirWriter {
    dir: PathBuf,
    /// The outermost directory this writer created, if it created any.
    created_dir: Option<PathBuf>,
    /// Each rank's writer; its sink holds at most the frames of one spill
    /// until they are appended to the rank's file.
    writers: Vec<TraceWriter<Vec<u8>>>,
    /// Rank files this writer has created.
    created: Vec<bool>,
    created_meta: bool,
    sealed: bool,
}

impl TraceDirWriter {
    /// Creates `dir` (and any missing parent) for a trace of `ranks` ranks.
    pub fn create(dir: &Path, ranks: usize) -> Result<Self, TraceError> {
        let created_dir = dir
            .ancestors()
            .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
            .last()
            .map(Path::to_path_buf);
        let out = Self {
            dir: dir.to_path_buf(),
            created_dir,
            writers: (0..ranks)
                .map(|_| TraceWriter::new(Vec::new(), RANK_BUFFER_BYTES))
                .collect(),
            created: vec![false; ranks],
            created_meta: false,
            sealed: false,
        };
        fs::create_dir_all(dir)?;
        Ok(out)
    }

    /// Appends `rec` to rank `rank`'s stream, writing a frame to the rank's
    /// file when that fills its buffer. Records of one rank must arrive in
    /// sequence order.
    pub fn record(&mut self, rank: usize, rec: &EventRecord) -> Result<(), TraceError> {
        let w = &mut self.writers[rank];
        let frames = w.flush_count();
        w.record(rec)?;
        if w.flush_count() != frames {
            let spilled = std::mem::take(w.get_mut());
            self.append(rank, &spilled)?;
        }
        Ok(())
    }

    /// Appends `bytes` to rank `rank`'s file, creating it on first use.
    fn append(&mut self, rank: usize, bytes: &[u8]) -> Result<(), TraceError> {
        let path = FileTraceSet::rank_path(&self.dir, rank);
        let mut file = if self.created[rank] {
            OpenOptions::new().append(true).open(path)?
        } else {
            let file = File::create(path)?;
            self.created[rank] = true;
            file
        };
        file.write_all(bytes)?;
        Ok(())
    }

    /// Seals every rank file (last frame and footer) and writes
    /// `meta.txt`. When that replaces the `meta.txt` of a trace with more
    /// ranks, the rank files it named past this trace's ranks are removed;
    /// no other file is touched.
    pub fn finish(mut self) -> Result<FileTraceSet, TraceError> {
        let ranks = self.writers.len();
        let replaced = FileTraceSet::read_meta(&self.dir).unwrap_or(0);
        for (r, w) in std::mem::take(&mut self.writers).into_iter().enumerate() {
            let tail = w.finish()?;
            self.append(r, &tail)?;
        }
        let mut meta = File::create(self.dir.join("meta.txt"))?;
        self.created_meta = true;
        writeln!(meta, "ranks={ranks}")?;
        self.sealed = true;
        // Best effort: the sealed trace is whole without it. The directory
        // is listed, not probed once per K: `replaced` comes from a file
        // anyone may have written, and may be any `usize`.
        let listing = (replaced > ranks).then(|| fs::read_dir(&self.dir));
        if let Some(Ok(entries)) = listing {
            let stale: Vec<PathBuf> = entries
                .flatten()
                .filter(|e| {
                    let name = e.file_name();
                    let k = name.to_str().and_then(FileTraceSet::rank_of_file_name);
                    k.is_some_and(|k| (ranks..replaced).contains(&k))
                })
                .map(|e| e.path())
                .collect();
            for path in stale {
                let _ = fs::remove_file(path);
            }
        }
        Ok(FileTraceSet {
            dir: self.dir.clone(),
            ranks,
        })
    }
}

impl Drop for TraceDirWriter {
    fn drop(&mut self) {
        if self.sealed {
            return;
        }
        // Best effort: a file that cannot be removed stays, and so then
        // does its directory (`remove_dir` only removes empty ones).
        for (r, _) in self.created.iter().enumerate().filter(|(_, &c)| c) {
            let _ = fs::remove_file(FileTraceSet::rank_path(&self.dir, r));
        }
        if self.created_meta {
            let _ = fs::remove_file(self.dir.join("meta.txt"));
        }
        if let Some(root) = &self.created_dir {
            for d in self.dir.ancestors() {
                let _ = fs::remove_dir(d);
                if d == root {
                    break;
                }
            }
        }
    }
}

/// An on-disk trace set directory.
#[derive(Debug, Clone)]
pub struct FileTraceSet {
    dir: PathBuf,
    ranks: usize,
}

impl FileTraceSet {
    pub(crate) fn rank_path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("rank-{rank}.mpg"))
    }

    /// The rank `name` is the file of, if it is a rank file's name exactly
    /// as [`rank_path`](Self::rank_path) writes it (`rank-01.mpg` is not).
    fn rank_of_file_name(name: &str) -> Option<usize> {
        let digits = name.strip_prefix("rank-")?.strip_suffix(".mpg")?;
        let k = digits.parse::<usize>().ok()?;
        (k.to_string() == digits).then_some(k)
    }

    pub(crate) fn read_meta(dir: &Path) -> Result<usize, TraceError> {
        let meta = fs::read_to_string(dir.join("meta.txt"))?;
        meta.lines()
            .find_map(|l| l.strip_prefix("ranks="))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or_else(|| TraceError::Corrupt("meta.txt missing ranks=".into()))
    }

    /// Bytes on disk of this trace's own files: `meta.txt` and the rank
    /// files it names, whatever else shares the directory.
    pub fn disk_bytes(&self) -> u64 {
        (0..self.ranks)
            .map(|r| Self::rank_path(&self.dir, r))
            .chain([self.dir.join("meta.txt")])
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Opens an existing trace directory, reading `meta.txt` for the rank
    /// count. Strict: every rank file must be present; the error names
    /// *all* missing ranks, not just the first.
    pub fn open(dir: &Path) -> Result<Self, TraceError> {
        let ranks = Self::read_meta(dir)?;
        let missing: Vec<u32> = (0..ranks)
            .filter(|&r| !Self::rank_path(dir, r).exists())
            .map(|r| r as u32)
            .collect();
        if !missing.is_empty() {
            return Err(TraceError::MissingRanks(missing));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            ranks,
        })
    }

    /// Opens a trace directory in recovery mode and salvages every rank
    /// stream: missing files, torn frames, and corrupt bytes are reported
    /// in the [`SalvageReport`] instead of raised. Fails only when the
    /// directory itself is unusable (no readable `meta.txt`) — that is the
    /// unrecoverable case.
    pub fn load_salvage(dir: &Path) -> Result<(MemTrace, SalvageReport), TraceError> {
        let ranks = Self::read_meta(dir)?;
        let mut trace = MemTrace::new(ranks);
        let report = Self::salvage_ranks(dir, ranks, &mut |rec| trace.push(rec));
        Ok((trace, report))
    }

    /// Audit-only salvage: the damage report of [`Self::load_salvage`]
    /// without materializing a single record, so `mpgtool fsck` can audit
    /// trace sets far larger than RAM — peak heap is per-frame metadata for
    /// one rank at a time.
    pub fn scan_salvage(dir: &Path) -> Result<SalvageReport, TraceError> {
        let ranks = Self::read_meta(dir)?;
        Ok(Self::salvage_ranks(dir, ranks, &mut |_| {}))
    }

    /// Maps and salvages each rank file in turn, feeding recovered records
    /// (each carries its rank) to `sink`.
    fn salvage_ranks(dir: &Path, ranks: usize, sink: &mut dyn FnMut(EventRecord)) -> SalvageReport {
        let mut reports = Vec::with_capacity(ranks);
        for r in 0..ranks as u32 {
            reports.push(match MappedFile::open(&Self::rank_path(dir, r as usize)) {
                Ok(map) => salvage_into(r, map.bytes(), sink),
                Err(TraceError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    RankSalvage::missing(r)
                }
                Err(e) => {
                    // Present but unreadable (permissions, I/O failure):
                    // degrade like a missing rank rather than aborting the
                    // whole recovery.
                    let mut rep = RankSalvage::missing(r);
                    rep.notes = vec![format!("rank file unreadable: {e}")];
                    rep
                }
            });
        }
        SalvageReport { ranks: reports }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks
    }

    /// Loads the whole set into memory, decoding ranks in parallel on
    /// scoped worker threads (one per core, dynamically balanced). Each
    /// rank file is read whole and decoded by a [`FrameCursor`] over the
    /// heap bytes; a map per rank measured slower when every byte is
    /// wanted at once (DESIGN §13.1).
    ///
    /// Error semantics match a serial loop exactly: when several ranks
    /// fail, the error for the *lowest* rank is returned.
    pub fn load(&self) -> Result<MemTrace, TraceError> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(self.ranks)
            .max(1);
        let decode_rank = |r: usize| -> Result<Vec<EventRecord>, TraceError> {
            let bytes = fs::read(Self::rank_path(&self.dir, r))?;
            // A record is at least three bytes (kind, two varints), which
            // bounds what a lying footer can make this reserve.
            let bound = (bytes.len() / 3) as u64;
            let cursor = FrameCursor::from_bytes(bytes, r as u32)?;
            let mut events = Vec::with_capacity(cursor.index().num_records().min(bound) as usize);
            for rec in cursor {
                events.push(rec?);
            }
            Ok(events)
        };
        let mut slots: Vec<Option<Result<Vec<EventRecord>, TraceError>>> =
            (0..self.ranks).map(|_| None).collect();
        if workers <= 1 {
            for (r, slot) in slots.iter_mut().enumerate() {
                *slot = Some(decode_rank(r));
            }
        } else {
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Mutex;
            let next = AtomicUsize::new(0);
            let ranks = self.ranks;
            let shared: Vec<Mutex<&mut Option<_>>> = slots.iter_mut().map(Mutex::new).collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let r = next.fetch_add(1, Ordering::Relaxed);
                        if r >= ranks {
                            return;
                        }
                        let res = decode_rank(r);
                        // Slot indices are claimed uniquely via the counter,
                        // so the lock is uncontended — it exists to satisfy
                        // aliasing rules, not to serialize work.
                        **shared[r].lock().unwrap() = Some(res);
                    });
                }
            });
        }
        let mut events = Vec::with_capacity(self.ranks);
        for slot in slots {
            events.push(slot.expect("every rank slot filled")?);
        }
        Ok(MemTrace::from_ranks(events))
    }
}

/// `mpgtool fsck` verdict — doubles as the subcommand's exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckStatus {
    /// Every rank stream read back without any recovery (exit 0).
    Clean,
    /// Damage was found but records were recovered; analysis may proceed
    /// at degraded fidelity (exit 1).
    Salvaged,
    /// Nothing usable could be recovered (exit 2).
    Unrecoverable,
}

impl FsckStatus {
    /// Stable lower-case name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            FsckStatus::Clean => "clean",
            FsckStatus::Salvaged => "salvaged",
            FsckStatus::Unrecoverable => "unrecoverable",
        }
    }

    /// The fsck exit-contract code: 0 clean, 1 salvaged, 2 unrecoverable.
    pub fn exit_code(self) -> i32 {
        match self {
            FsckStatus::Clean => 0,
            FsckStatus::Salvaged => 1,
            FsckStatus::Unrecoverable => 2,
        }
    }
}

/// Aggregate damage report for a salvaged trace directory.
#[derive(Debug, Clone)]
pub struct SalvageReport {
    /// One entry per rank named by `meta.txt`, in rank order.
    pub ranks: Vec<RankSalvage>,
}

impl SalvageReport {
    /// Overall verdict across all ranks.
    pub fn status(&self) -> FsckStatus {
        if self.ranks.iter().all(|r| r.is_clean()) {
            return FsckStatus::Clean;
        }
        let recovered: u64 = self.ranks.iter().map(|r| r.records_recovered).sum();
        let any_intact = self.ranks.iter().any(|r| r.is_clean());
        if recovered == 0 && !any_intact {
            FsckStatus::Unrecoverable
        } else {
            FsckStatus::Salvaged
        }
    }

    /// True when no recovery was needed anywhere.
    pub fn is_clean(&self) -> bool {
        self.status() == FsckStatus::Clean
    }

    /// Ranks whose files were missing or unreadable.
    pub fn missing_ranks(&self) -> Vec<u32> {
        self.ranks
            .iter()
            .filter(|r| !r.present)
            .map(|r| r.rank)
            .collect()
    }

    /// Total records recovered across ranks.
    pub fn records_recovered(&self) -> u64 {
        self.ranks.iter().map(|r| r.records_recovered).sum()
    }

    /// Total records known lost across ranks.
    pub fn records_lost(&self) -> u64 {
        self.ranks.iter().map(|r| r.records_lost).sum()
    }

    /// Capture-integrity diagnostics ([`Rule::TruncatedTrace`] /
    /// [`Rule::MissingRank`]) for the lint pipeline, so `lint --deny` can
    /// reject salvaged traces.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for r in &self.ranks {
            if !r.present {
                out.push(Diagnostic::new(Rule::MissingRank, r.summary()).involving([r.rank]));
            } else if !r.is_clean() {
                out.push(Diagnostic::new(Rule::TruncatedTrace, r.summary()).involving([r.rank]));
            }
        }
        out
    }

    /// Render as one JSON object (hand-rolled; this crate is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"status\":\"");
        s.push_str(self.status().name());
        s.push_str("\",\"records_recovered\":");
        s.push_str(&self.records_recovered().to_string());
        s.push_str(",\"records_lost\":");
        s.push_str(&self.records_lost().to_string());
        s.push_str(",\"ranks\":[");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rank\":{},\"present\":{},\"file_len\":{},\"seal\":\"{}\",\
                 \"frames_recovered\":{},\"frames_dropped\":{},\"bytes_skipped\":{},\
                 \"records_recovered\":{},\"records_lost\":{},\"truncated_tail\":{},\"notes\":[",
                r.rank,
                r.present,
                r.file_len,
                r.seal.name(),
                r.frames_recovered,
                r.frames_dropped,
                r.bytes_skipped,
                r.records_recovered,
                r.records_lost,
                r.truncated_tail,
            ));
            for (j, note) in r.notes.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push('"');
                json_escape_into(note, &mut s);
                s.push('"');
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

impl fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} record(s) recovered, {} lost, {} rank(s) missing",
            self.status().name(),
            self.records_recovered(),
            self.records_lost(),
            self.missing_ranks().len()
        )?;
        for r in &self.ranks {
            if !r.is_clean() {
                writeln!(f, "  {}", r.summary())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn sample_trace() -> MemTrace {
        let mut t = MemTrace::new(2);
        for r in 0..2u32 {
            t.push(EventRecord {
                rank: r,
                seq: 0,
                t_start: 0,
                t_end: 10,
                kind: EventKind::Init,
            });
            t.push(EventRecord {
                rank: r,
                seq: 1,
                t_start: 10,
                t_end: 100,
                kind: EventKind::Compute { work: 90 },
            });
            t.push(EventRecord {
                rank: r,
                seq: 2,
                t_start: 100,
                t_end: 110,
                kind: EventKind::Finalize,
            });
        }
        t
    }

    #[test]
    fn mem_roundtrip_through_disk() {
        let dir = std::env::temp_dir().join(format!("mpg-test-{}", std::process::id()));
        let t = sample_trace();
        let fset = t.save(&dir).unwrap();
        let reopened = FileTraceSet::open(&dir).unwrap();
        assert_eq!(reopened.num_ranks(), 2);
        let loaded = reopened.load().unwrap();
        assert_eq!(loaded, t);
        drop(fset);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resealing_with_fewer_ranks_removes_only_the_stale_rank_files() {
        let dir = std::env::temp_dir().join(format!("mpg-reseal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        sample_trace().save(&dir).unwrap();
        fs::write(dir.join("rank-9.mpg"), "not named by meta.txt").unwrap();
        fs::write(dir.join("rank-01.mpg"), "not a rank file name").unwrap();
        let narrow = MemTrace::from_ranks(vec![sample_trace().rank(0).to_vec()]);
        let set = narrow.save(&dir).unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["meta.txt", "rank-0.mpg", "rank-01.mpg", "rank-9.mpg"]
        );
        assert_eq!(FileTraceSet::open(&dir).unwrap().load().unwrap(), narrow);
        let own = ["meta.txt", "rank-0.mpg"].map(|n| fs::metadata(dir.join(n)).unwrap().len());
        assert_eq!(set.disk_bytes(), own.iter().sum::<u64>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resealing_over_a_huge_ranks_value_lists_the_directory_once() {
        // A probe per K in `ranks..replaced` never returned here.
        let dir = std::env::temp_dir().join(format!("mpg-reseal-huge-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        sample_trace().save(&dir).unwrap();
        fs::write(dir.join("meta.txt"), format!("ranks={}\n", usize::MAX)).unwrap();
        fs::write(dir.join(format!("rank-{}.mpg", usize::MAX - 1)), "stale").unwrap();
        fs::write(dir.join("rank-5.mpg"), "stale").unwrap();
        let narrow = MemTrace::from_ranks(vec![sample_trace().rank(0).to_vec()]);
        narrow.save(&dir).unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["meta.txt", "rank-0.mpg"]);
        assert_eq!(FileTraceSet::open(&dir).unwrap().load().unwrap(), narrow);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_dir_fails() {
        assert!(FileTraceSet::open(Path::new("/nonexistent-mpg-dir")).is_err());
    }

    #[test]
    fn streams_yield_rank_order() {
        let t = sample_trace();
        assert_eq!(t.num_ranks(), 2);
        for r in 0..t.num_ranks() {
            let events: Vec<_> = t.iter_rank(r).collect();
            assert!(events.iter().all(|e| e.rank as usize == r));
            assert_eq!(events.len(), 3);
        }
    }

    #[test]
    fn total_events() {
        assert_eq!(sample_trace().total_events(), 6);
    }

    #[test]
    fn open_reports_all_missing_ranks() {
        let dir = std::env::temp_dir().join(format!("mpg-missing-{}", std::process::id()));
        sample_trace().save(&dir).unwrap();
        fs::remove_file(dir.join("rank-0.mpg")).unwrap();
        fs::remove_file(dir.join("rank-1.mpg")).unwrap();
        match FileTraceSet::open(&dir) {
            Err(TraceError::MissingRanks(ranks)) => assert_eq!(ranks, vec![0, 1]),
            other => panic!("expected MissingRanks, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_tolerates_missing_rank() {
        let dir = std::env::temp_dir().join(format!("mpg-salvage-{}", std::process::id()));
        let t = sample_trace();
        t.save(&dir).unwrap();
        fs::remove_file(dir.join("rank-1.mpg")).unwrap();
        let (loaded, report) = FileTraceSet::load_salvage(&dir).unwrap();
        assert_eq!(loaded.rank(0), t.rank(0));
        assert!(loaded.rank(1).is_empty());
        assert_eq!(report.status(), FsckStatus::Salvaged);
        assert_eq!(report.missing_ranks(), vec![1]);
        let diags = report.diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::MissingRank);
        assert!(report.to_json().contains("\"status\":\"salvaged\""));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_clean_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mpg-salvage-clean-{}", std::process::id()));
        let t = sample_trace();
        t.save(&dir).unwrap();
        let (loaded, report) = FileTraceSet::load_salvage(&dir).unwrap();
        assert_eq!(loaded, t);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.status().exit_code(), 0);
        assert!(report.diagnostics().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_all_ranks_gone_is_unrecoverable() {
        let dir = std::env::temp_dir().join(format!("mpg-salvage-gone-{}", std::process::id()));
        sample_trace().save(&dir).unwrap();
        fs::remove_file(dir.join("rank-0.mpg")).unwrap();
        fs::remove_file(dir.join("rank-1.mpg")).unwrap();
        let (_, report) = FileTraceSet::load_salvage(&dir).unwrap();
        assert_eq!(report.status(), FsckStatus::Unrecoverable);
        assert_eq!(report.status().exit_code(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_load_matches_many_ranks() {
        let dir = std::env::temp_dir().join(format!("mpg-parload-{}", std::process::id()));
        let mut t = MemTrace::new(13);
        for r in 0..13u32 {
            for s in 0..50u64 {
                t.push(EventRecord {
                    rank: r,
                    seq: s,
                    t_start: s * 10,
                    t_end: s * 10 + 5,
                    kind: EventKind::Compute { work: 5 },
                });
            }
        }
        t.save(&dir).unwrap();
        let loaded = FileTraceSet::open(&dir).unwrap().load().unwrap();
        assert_eq!(loaded, t);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_load_returns_lowest_rank_error() {
        let dir = std::env::temp_dir().join(format!("mpg-parload-err-{}", std::process::id()));
        let mut t = MemTrace::new(6);
        for r in 0..6u32 {
            for s in 0..50u64 {
                t.push(EventRecord {
                    rank: r,
                    seq: s,
                    t_start: s * 10,
                    t_end: s * 10 + 5,
                    kind: EventKind::Compute { work: 5 },
                });
            }
        }
        let fset = t.save(&dir).unwrap();
        // Rank 1: unsealed (truncated). Rank 4: checksum damage.
        for (r, cut) in [(1usize, true), (4, false)] {
            let p = FileTraceSet::rank_path(&dir, r);
            let mut bytes = fs::read(&p).unwrap();
            if cut {
                let n = bytes.len() - 8;
                bytes.truncate(n);
            } else {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
            }
            fs::write(&p, &bytes).unwrap();
        }
        // The lowest failing rank (1, unsealed) wins, as in the serial loop.
        match fset.load() {
            Err(TraceError::Unsealed(_)) => {}
            other => panic!("expected rank 1's Unsealed error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_salvage_report_matches_load_salvage() {
        let dir = std::env::temp_dir().join(format!("mpg-scansalv-{}", std::process::id()));
        let t = sample_trace();
        t.save(&dir).unwrap();
        // Damage rank 0, remove rank 1: the audit-only scan must tell the
        // same story as the materializing load.
        let p = FileTraceSet::rank_path(&dir, 0);
        let mut bytes = fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&p, &bytes).unwrap();
        fs::remove_file(dir.join("rank-1.mpg")).unwrap();
        let (_, loaded_report) = FileTraceSet::load_salvage(&dir).unwrap();
        let scanned = FileTraceSet::scan_salvage(&dir).unwrap();
        assert_eq!(scanned.status(), loaded_report.status());
        assert_eq!(scanned.to_json(), loaded_report.to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_missing_meta_fails() {
        let dir = std::env::temp_dir().join(format!("mpg-salvage-nometa-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        assert!(FileTraceSet::load_salvage(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
