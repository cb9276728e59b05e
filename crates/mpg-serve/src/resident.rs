//! The memory tier: decoded traces kept resident, addressed by content.
//!
//! The service's workload is *record once, replay many times* — a sweep of
//! perturbation models over one trace — so the decode of a job is almost
//! always the decode of the job before it. [`ResidentTraces::open`] is the
//! one way a job gets its trace: given the directory's fingerprint key
//! ([`trace_key`], computed once per job and shared with the report
//! cache), it returns the resident copy on a hit, and on a miss
//! runs the full decode — `FileTraceSet`'s `open` + `load`, every frame CRC
//! checked — and keeps the result.
//!
//! * **Staleness** is the per-job fingerprint: a directory rewritten in
//!   place fingerprints to a new key, so an old copy is never served; two
//!   directories with equal content share one copy. The fingerprint reads
//!   footers, not frames, so a hit does not re-validate frame checksums a
//!   miss validated — the trade the report tier already makes (DESIGN §20).
//! * **No fingerprint** (unsealed, missing rank, vanished directory)
//!   means no key: the load runs and reports exactly what it
//!   reported before this tier existed, and nothing is retained.
//! * **Budget**: [`BUDGET_BYTES`] of decoded events, estimated once at
//!   insert. Least-recently-used copies are evicted to make room; a trace
//!   estimated above the whole budget is handed to its job and never
//!   retained.
//! * **One decode per key at a time** (`turn.rs`): a worker that misses a
//!   key another worker is decoding waits for that decode and takes its
//!   copy. Two decodes side by side would each run `load()`'s thread per
//!   core, and whether a worker arriving a few milliseconds late decoded
//!   or hit would be the scheduler's choice (DESIGN §20.4). A waiter that
//!   finds no copy (the decode failed, or was over budget) decodes for
//!   itself, so every job still reports its own load's error.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpg_trace::{EventRecord, FileTraceSet, MemTrace, TraceError};

use crate::runtime::lock;
use crate::turn::{Turn, Turns};

/// Byte budget of the resident set.
const BUDGET_BYTES: u64 = 256 << 20;

/// The content key of a sealed trace directory, `None` when it has no
/// fingerprint.
pub(crate) fn trace_key(dir: &Path) -> Option<String> {
    Some(mpg_trace::trace_fingerprint(dir).ok()?.key())
}

/// What a decoded trace is booked at: its event records plus one vector
/// header per rank. Request lists of `waitall`-style events and spare
/// vector capacity are not counted.
fn decoded_bytes(trace: &MemTrace) -> u64 {
    let events = trace.total_events() as u64 * std::mem::size_of::<EventRecord>() as u64;
    let ranks = trace.num_ranks() as u64 * std::mem::size_of::<Vec<EventRecord>>() as u64;
    events + ranks
}

struct Entry {
    trace: Arc<MemTrace>,
    bytes: u64,
    /// Value of [`Inner::clock`] at the last insert or hit.
    used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    clock: u64,
}

impl Inner {
    /// The copy under `key`, marked most recently used.
    fn touch(&mut self, key: &str) -> Option<Arc<MemTrace>> {
        let entry = self.entries.get_mut(key)?;
        self.clock += 1;
        entry.used = self.clock;
        Some(Arc::clone(&entry.trace))
    }

    fn bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }
}

/// Decoded traces by fingerprint key, under a byte budget.
pub(crate) struct ResidentTraces {
    budget: u64,
    inner: Mutex<Inner>,
    /// The turns to decode a key.
    turns: Turns,
    loads: AtomicU64,
    hits: AtomicU64,
}

impl ResidentTraces {
    pub(crate) fn new() -> Self {
        Self::with_budget(BUDGET_BYTES)
    }

    fn with_budget(budget: u64) -> Self {
        ResidentTraces {
            budget,
            inner: Mutex::new(Inner::default()),
            turns: Turns::default(),
            loads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The decoded trace of `dir`, whose [`trace_key`] the job just
    /// computed: the resident copy under that key, a fresh full load when
    /// there is none (or no key).
    pub(crate) fn open(
        &self,
        dir: &Path,
        key: Option<String>,
    ) -> Result<Arc<MemTrace>, TraceError> {
        let Some(key) = key else {
            return self.decode(dir).map(Arc::new);
        };
        let _turn = match self.claim(&key) {
            Ok(trace) => return Ok(trace),
            Err(turn) => turn,
        };
        let trace = self.decode(dir)?;
        Ok(self.retain(&key, trace))
    }

    /// The resident copy under `key`, marked most recently used — after
    /// waiting out a decode of that key, if one is running — or, when
    /// there is no copy, the turn to decode it.
    fn claim(&self, key: &str) -> Result<Arc<MemTrace>, Turn<'_>> {
        if let Some(trace) = self.touch(key) {
            return Ok(trace);
        }
        let turn = self.turns.take(key, None).expect("no token to fire");
        self.touch(key).ok_or(turn)
    }

    /// The resident copy under `key`, marked most recently used and
    /// counted as a hit.
    fn touch(&self, key: &str) -> Option<Arc<MemTrace>> {
        let trace = lock(&self.inner).touch(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(trace)
    }

    /// The full load, every frame CRC checked.
    fn decode(&self, dir: &Path) -> Result<MemTrace, TraceError> {
        let trace = FileTraceSet::open(dir)?.load()?;
        self.loads.fetch_add(1, Ordering::Relaxed);
        Ok(trace)
    }

    /// Books `trace` under `key` — whose [`Turn`] the caller holds, so no
    /// copy is resident — evicting least recently used copies to make
    /// room; a trace larger than the whole budget is not kept.
    fn retain(&self, key: &str, trace: MemTrace) -> Arc<MemTrace> {
        let bytes = decoded_bytes(&trace);
        let trace = Arc::new(trace);
        if bytes > self.budget {
            return trace;
        }
        // Declared before the guard, so evicted traces are freed after the
        // lock is released.
        let mut evicted = Vec::new();
        let mut inner = lock(&self.inner);
        let mut total = inner.bytes();
        while total + bytes > self.budget {
            let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            else {
                break; // nothing resident: `bytes <= budget` fits
            };
            if let Some(entry) = inner.entries.remove(&oldest) {
                total -= entry.bytes;
                evicted.push(entry);
            }
        }
        inner.clock += 1;
        let used = inner.clock;
        inner.entries.insert(
            key.to_string(),
            Entry {
                trace: Arc::clone(&trace),
                bytes,
                used,
            },
        );
        trace
    }

    /// Full decodes that completed: resident misses plus traces that have
    /// no fingerprint.
    pub(crate) fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Jobs served the resident copy.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Estimated bytes of the resident set, summed over its entries.
    pub(crate) fn bytes(&self) -> u64 {
        lock(&self.inner).bytes()
    }

    pub(crate) fn budget(&self) -> u64 {
        self.budget
    }

    /// Decode turns held right now; none once the runtime is drained.
    pub(crate) fn decoding(&self) -> usize {
        self.turns.held()
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use mpg_trace::EventKind;

    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpg-resident-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Two ranks of `per_rank` compute events; `salt` varies the content
    /// (and so the fingerprint) without changing the size.
    fn compute_trace(per_rank: u64, salt: u64) -> MemTrace {
        let mut trace = MemTrace::new(2);
        for rank in 0..2 {
            for seq in 0..per_rank {
                trace.push(EventRecord {
                    rank,
                    seq,
                    t_start: 10 * seq,
                    t_end: 10 * seq + 5,
                    kind: EventKind::Compute { work: salt + seq },
                });
            }
        }
        trace
    }

    fn saved(tag: &str, per_rank: u64, salt: u64) -> (PathBuf, MemTrace) {
        let dir = scratch(tag);
        let trace = compute_trace(per_rank, salt);
        trace.save(&dir).unwrap();
        (dir, trace)
    }

    fn rank_path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("rank-{rank}.mpg"))
    }

    fn open(set: &ResidentTraces, dir: &Path) -> Result<Arc<MemTrace>, TraceError> {
        set.open(dir, trace_key(dir))
    }

    #[test]
    fn equal_content_shares_one_decoded_copy() {
        let (a, trace) = saved("share-a", 40, 1);
        let (b, _) = saved("share-b", 40, 1);
        let set = ResidentTraces::new();
        let first = open(&set, &a).unwrap();
        assert_eq!(*first, trace);
        assert_eq!((set.loads(), set.hits()), (1, 0));
        assert!(Arc::ptr_eq(&first, &open(&set, &a).unwrap()));
        assert!(Arc::ptr_eq(&first, &open(&set, &b).unwrap()));
        assert_eq!((set.loads(), set.hits()), (1, 2));
        assert_eq!(set.bytes(), decoded_bytes(&trace));
        for dir in [a, b] {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn directory_rewritten_in_place_is_decoded_again() {
        let (dir, old) = saved("rewrite", 40, 1);
        let set = ResidentTraces::new();
        assert_eq!(*open(&set, &dir).unwrap(), old);
        let new = compute_trace(40, 2);
        new.save(&dir).unwrap();
        assert_eq!(*open(&set, &dir).unwrap(), new);
        assert_eq!((set.loads(), set.hits()), (2, 0));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The error *text* against a direct open + load is compared through
    /// the runtime, in `tests/service.rs`.
    #[test]
    fn trace_without_fingerprint_takes_the_direct_path_and_is_not_retained() {
        let (dir, trace) = saved("nokey", 40, 1);
        let set = ResidentTraces::new();

        // Unsealed: rank 1 loses its footer.
        let rank1 = rank_path(&dir, 1);
        let sealed = std::fs::read(&rank1).unwrap();
        std::fs::write(&rank1, &sealed[..sealed.len() - 7]).unwrap();
        assert!(trace_key(&dir).is_none());
        let err = open(&set, &dir).unwrap_err();
        assert!(matches!(err, TraceError::Unsealed(_)), "{err}");

        // Missing rank file.
        std::fs::remove_file(&rank1).unwrap();
        let err = open(&set, &dir).unwrap_err();
        assert!(matches!(err, TraceError::MissingRanks(_)), "{err}");

        // Vanished directory: the transient class.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = open(&set, &dir).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)), "{err}");
        assert_eq!((set.loads(), set.hits(), set.bytes()), (0, 0, 0));

        // Repaired: sealed again, resident from the first job on.
        trace.save(&dir).unwrap();
        assert_eq!(*open(&set, &dir).unwrap(), trace);
        assert_eq!(*open(&set, &dir).unwrap(), trace);
        assert_eq!((set.loads(), set.hits()), (1, 1));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn failed_load_is_not_retained() {
        // A flipped payload byte leaves the footer, and so the
        // fingerprint, intact: only the load's frame CRC sees it.
        let (dir, _) = saved("badframe", 40, 1);
        let rank0 = rank_path(&dir, 0);
        let mut bytes = std::fs::read(&rank0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&rank0, bytes).unwrap();
        assert!(trace_key(&dir).is_some());
        let set = ResidentTraces::new();
        for _ in 0..2 {
            let err = open(&set, &dir).unwrap_err();
            assert!(matches!(err, TraceError::Checksum(_)), "{err}");
        }
        assert_eq!((set.loads(), set.hits(), set.bytes()), (0, 0, 0));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn over_budget_trace_is_never_retained() {
        let (dir, trace) = saved("overbudget", 40, 1);
        let set = ResidentTraces::with_budget(decoded_bytes(&trace) - 1);
        for _ in 0..3 {
            assert_eq!(*open(&set, &dir).unwrap(), trace);
        }
        assert_eq!((set.loads(), set.hits(), set.bytes()), (3, 0, 0));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn eviction_is_least_recently_used_and_keeps_the_budget() {
        let dirs: Vec<PathBuf> = (0..3)
            .map(|i| saved(&format!("lru-{i}"), 40, 100 * i).0)
            .collect();
        let one = decoded_bytes(&compute_trace(40, 0));
        // Room for two of the three, with slack that fits no third.
        let set = ResidentTraces::with_budget(2 * one + one / 2);
        for round in 0..3 {
            for dir in &dirs {
                open(&set, dir).unwrap();
                assert!(set.bytes() <= set.budget(), "round {round}");
            }
        }
        // A rotation over one more trace than fits never hits.
        assert_eq!((set.loads(), set.hits()), (9, 0));
        assert_eq!(set.bytes(), 2 * one);

        // Resident now: 1 and 2. A hit on 1 makes 2 the eviction victim.
        open(&set, &dirs[1]).unwrap();
        assert_eq!((set.loads(), set.hits()), (9, 1));
        open(&set, &dirs[0]).unwrap(); // evicts 2, not the refreshed 1
        open(&set, &dirs[1]).unwrap();
        assert_eq!((set.loads(), set.hits()), (10, 2));
        open(&set, &dirs[2]).unwrap();
        assert_eq!((set.loads(), set.hits()), (11, 2));

        // A larger trace evicts as many as it needs.
        let (big, _) = saved("lru-big", 90, 7);
        open(&set, &big).unwrap();
        assert_eq!(set.bytes(), decoded_bytes(&compute_trace(90, 7)));
        assert!(set.bytes() <= set.budget());
        for dir in dirs.into_iter().chain([big]) {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// `n` threads released together onto `open(dir)`.
    fn open_together(
        set: &ResidentTraces,
        dir: &Path,
        n: usize,
    ) -> Vec<Result<Arc<MemTrace>, TraceError>> {
        let start = std::sync::Barrier::new(n);
        std::thread::scope(|scope| {
            let opens: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        open(set, dir)
                    })
                })
                .collect();
            opens.into_iter().map(|t| t.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_misses_of_one_key_decode_once() {
        let (dir, trace) = saved("together", 400, 1);
        let set = ResidentTraces::new();
        let copies: Vec<_> = open_together(&set, &dir, 4)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(*copies[0], trace);
        assert!(copies.iter().all(|c| Arc::ptr_eq(c, &copies[0])));
        assert_eq!((set.loads(), set.hits(), set.decoding()), (1, 3, 0));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn waiters_of_a_decode_that_leaves_no_copy_decode_for_themselves() {
        // Failed: every job gets its own load's error, nothing is kept.
        let (dir, _) = saved("together-bad", 400, 1);
        let rank0 = rank_path(&dir, 0);
        let mut bytes = std::fs::read(&rank0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&rank0, bytes).unwrap();
        let set = ResidentTraces::new();
        for result in open_together(&set, &dir, 3) {
            let err = result.unwrap_err();
            assert!(matches!(err, TraceError::Checksum(_)), "{err}");
        }
        assert_eq!(
            (set.loads(), set.hits(), set.bytes(), set.decoding()),
            (0, 0, 0, 0)
        );

        // Over budget: every job gets its own decode, nothing is kept.
        let trace = compute_trace(400, 2);
        trace.save(&dir).unwrap();
        let set = ResidentTraces::with_budget(decoded_bytes(&trace) - 1);
        for result in open_together(&set, &dir, 3) {
            assert_eq!(*result.unwrap(), trace);
        }
        assert_eq!(
            (set.loads(), set.hits(), set.bytes(), set.decoding()),
            (3, 0, 0, 0)
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_turn_dropped_by_a_panic_is_free_again() {
        let set = ResidentTraces::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _turn = set.claim("k").expect_err("nothing resident");
            assert_eq!(set.decoding(), 1);
            panic!("decode died");
        }));
        assert!(unwound.is_err());
        assert_eq!(set.decoding(), 0);
        let turn = set.claim("k").expect_err("the turn is free");
        set.retain("k", compute_trace(10, 1));
        drop(turn);
        assert!(set.claim("k").is_ok());
        assert_eq!((set.hits(), set.decoding()), (1, 0));
    }
}
