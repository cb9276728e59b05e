//! Persistent, content-addressed artifact cache.
//!
//! Every artifact the analyzer derives from a trace — the recorded graph
//! (as an MPGA blob, [`crate::mpga`]), happens-before vector clocks,
//! rendered replay/lint/explore/analyze reports — is a pure
//! function of (trace content, configuration). The [`CacheStore`]
//! memoizes them on disk, keyed by the trace's cheap content fingerprint
//! ([`mpg_trace::trace_fingerprint`], derived from the per-frame CRC32C
//! chain without a second full read) plus a configuration fingerprint.
//!
//! ## Directory protocol
//!
//! One flat directory, one file per artifact, named `<key>.mpgc` where
//! `key = {kind}-{trace_fp}-{config_hash}`. Publication is atomic:
//! writers fill a `tmp-<pid>-<n>` file and `rename(2)` it into place, so
//! readers never observe a partial artifact and need no locks — they
//! either see the old file, the new file, or nothing. Losing a race just
//! means both writers publish identical bytes.
//!
//! Publication is **not a commit**: nothing is fsynced. A power loss can
//! leave a renamed entry short, empty or zero-filled (delayed allocation);
//! the envelope below turns each of those into a miss that the next cold
//! run overwrites, which is all the durability a cache needs.
//!
//! ## Envelope
//!
//! Each file wraps its payload in a checksummed envelope:
//!
//! ```text
//! file := "MPGC" version:u32le kind:u8 payload_len:u64le
//!         payload_crc:u32le payload
//! ```
//!
//! `get` re-validates everything (magic, version, kind, length, CRC32C)
//! and returns `None` on **any** anomaly — a corrupt, truncated, or
//! foreign-version artifact silently degrades to a cold-path miss, never
//! an error and never wrong output.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use mpg_trace::frame::crc32c;
use mpg_trace::{fnv1a64, MemTrace};

use crate::cancel::{CancelReason, CancelToken};
use crate::graph::EventGraph;
use crate::hb::HbIndex;
use crate::mpga::{decode_arena, encode_arena};
use crate::replay::{trace_layout, ReplayConfig, Replayer};
use crate::report::ReplayError;

/// Envelope magic bytes.
const MPGC_MAGIC: &[u8; 4] = b"MPGC";

/// Envelope version; bump on any envelope or payload-schema change.
const MPGC_VERSION: u32 = 1;

/// Envelope header length: magic + version + kind + len + crc.
const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 4;

/// Cache-wide schema version folded into every artifact key. Bump when
/// the *semantics* of a derived artifact change (report wording, graph
/// recording rules) without a format change — old entries then simply
/// stop matching instead of serving stale content.
pub const CACHE_SCHEMA: u32 = 3;

/// What a cached artifact contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A rendered CLI report: exit code + stdout bytes.
    Report,
    /// An MPGA-encoded [`crate::GraphArena`].
    Arena,
    /// Serialized [`crate::HbIndex`] epoch clocks. The blob names its own
    /// layout in its first word ([`crate::HbIndex::to_bytes`]), so a copy
    /// cached under an earlier layout reads as a miss and is republished
    /// without a [`CACHE_SCHEMA`] bump.
    HbClocks,
}

impl ArtifactKind {
    /// Stable one-byte envelope tag. Tags 4 and 5 belonged to kinds since
    /// removed; a file still carrying one never matches a lookup, so it
    /// reads as a miss.
    fn tag(self) -> u8 {
        match self {
            ArtifactKind::Report => 1,
            ArtifactKind::Arena => 2,
            ArtifactKind::HbClocks => 3,
        }
    }

    /// Short name used in artifact keys and `cache ls` output.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Report => "report",
            ArtifactKind::Arena => "arena",
            ArtifactKind::HbClocks => "hb",
        }
    }
}

/// One entry in a [`CacheStore::ls`] listing.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Artifact key (file stem).
    pub key: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-modified time.
    pub modified: SystemTime,
}

/// A rendered CLI report held in the cache: process exit code plus the
/// exact stdout bytes, so a warm run replays both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedReport {
    /// Exit code the cold run finished with.
    pub exit_code: u8,
    /// Byte-exact stdout of the cold run.
    pub stdout: String,
}

impl CachedReport {
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.stdout.len());
        out.push(self.exit_code);
        out.extend_from_slice(self.stdout.as_bytes());
        out
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (&exit_code, rest) = bytes.split_first()?;
        Some(Self {
            exit_code,
            stdout: String::from_utf8(rest.to_vec()).ok()?,
        })
    }
}

/// The on-disk artifact cache. Cheap to construct; all state lives in the
/// directory.
#[derive(Debug, Clone)]
pub struct CacheStore {
    root: PathBuf,
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How old a `tmp-*` file must be before [`CacheStore::gc`] treats it as a
/// crashed writer's leftover rather than an in-flight publish. Writers
/// hold a temp file for well under a millisecond (write + rename);
/// minutes of grace keeps even a heavily descheduled writer safe.
const TMP_GRACE: Duration = Duration::from_secs(300);

impl CacheStore {
    /// Opens (creating if needed) a cache rooted at `root`.
    pub fn open(root: &Path) -> std::io::Result<Self> {
        fs::create_dir_all(root)?;
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    /// The default cache root: `$MPG_CACHE_DIR`, else
    /// `<system tmp>/mpg-cache`.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("MPG_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("mpg-cache"))
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Composes an artifact key from the trace fingerprint key, the
    /// artifact kind, and a configuration fingerprint (any string that
    /// captures every output-affecting knob). [`CACHE_SCHEMA`] is folded
    /// in so schema bumps invalidate wholesale.
    pub fn artifact_key(trace_key: &str, kind: ArtifactKind, config_fp: &str) -> String {
        let mut seed = format!("schema={CACHE_SCHEMA};{config_fp}");
        seed.push(';');
        let h = fnv1a64(seed.as_bytes());
        format!("{}-{}-{:016x}", kind.name(), trace_key, h)
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.mpgc"))
    }

    /// Fetches an artifact's payload. Returns `None` on a miss **or** on
    /// any validation failure — corrupt entries degrade to misses.
    pub fn get(&self, key: &str, kind: ArtifactKind) -> Option<Vec<u8>> {
        let bytes = fs::read(self.path_of(key)).ok()?;
        if bytes.len() < HEADER_LEN || &bytes[..4] != MPGC_MAGIC {
            return None;
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != MPGC_VERSION || bytes[8] != kind.tag() {
            return None;
        }
        let len = u64::from_le_bytes([
            bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15], bytes[16],
        ]) as usize;
        let crc = u32::from_le_bytes([bytes[17], bytes[18], bytes[19], bytes[20]]);
        let payload = bytes.get(HEADER_LEN..)?;
        if payload.len() != len || crc32c(payload) != crc {
            return None;
        }
        Some(payload.to_vec())
    }

    /// Publishes an artifact atomically: the envelope is written to a
    /// temp file in the cache directory and renamed into place, so
    /// concurrent readers never see a torn entry. Not fsynced: what a
    /// crash leaves behind fails [`CacheStore::get`]'s envelope check.
    pub fn put(&self, key: &str, kind: ArtifactKind, payload: &[u8]) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MPGC_MAGIC);
        out.extend_from_slice(&MPGC_VERSION.to_le_bytes());
        out.push(kind.tag());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32c(payload).to_le_bytes());
        out.extend_from_slice(payload);

        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join(format!("tmp-{}-{n}", std::process::id()));
        fs::File::create(&tmp)?.write_all(&out)?;
        match fs::rename(&tmp, self.path_of(key)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Fetches a cached report.
    pub fn get_report(&self, key: &str) -> Option<CachedReport> {
        CachedReport::from_bytes(&self.get(key, ArtifactKind::Report)?)
    }

    /// Publishes a report.
    pub fn put_report(&self, key: &str, report: &CachedReport) -> std::io::Result<()> {
        self.put(key, ArtifactKind::Report, &report.to_bytes())
    }

    /// Lists every published artifact, sorted by key. Leftover temp files
    /// (a crashed writer) are skipped.
    pub fn ls(&self) -> Vec<CacheEntry> {
        let mut entries = Vec::new();
        let Ok(dir) = fs::read_dir(&self.root) else {
            return entries;
        };
        for e in dir.flatten() {
            let path = e.path();
            let Some(stem) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".mpgc"))
            else {
                continue;
            };
            let Ok(meta) = e.metadata() else { continue };
            entries.push(CacheEntry {
                key: stem.to_string(),
                bytes: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    /// Evicts oldest-first until total size is ≤ `max_bytes`. Also sweeps
    /// *stale* leftover temp files — a temp file younger than the grace
    /// period (`TMP_GRACE`, 5 minutes) may belong to a writer mid-publish
    /// (between its tmp-write and the atomic rename), so gc must leave it
    /// alone or the writer's `rename(2)` would fail under its feet.
    /// Returns (entries removed, bytes freed).
    pub fn gc(&self, max_bytes: u64) -> (usize, u64) {
        self.gc_with_grace(max_bytes, TMP_GRACE)
    }

    /// [`CacheStore::gc`] with an explicit temp-file grace period (tests
    /// sweep stale temps with `Duration::ZERO`; production uses the
    /// default `TMP_GRACE`).
    pub fn gc_with_grace(&self, max_bytes: u64, tmp_grace: Duration) -> (usize, u64) {
        let mut removed = 0usize;
        let mut freed = 0u64;
        let now = SystemTime::now();
        if let Ok(dir) = fs::read_dir(&self.root) {
            for e in dir.flatten() {
                let name = e.file_name();
                if !name.to_str().is_some_and(|n| n.starts_with("tmp-")) {
                    continue;
                }
                // Only a temp file whose mtime is safely in the past can be
                // a crashed writer's leftover; anything fresher may still
                // be renamed into place. Unreadable metadata counts as
                // fresh — deleting on doubt is the race we are fixing.
                let stale = e
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mtime| now.duration_since(mtime).ok())
                    .is_some_and(|age| age >= tmp_grace);
                if stale {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
        let mut entries = self.ls();
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        entries.sort_by_key(|e| e.modified);
        for e in entries {
            if total <= max_bytes {
                break;
            }
            let path = self.path_of(&e.key);
            // Re-stat before deleting: a concurrent writer may have
            // republished this key since the listing snapshot, and
            // evicting the *fresh* artifact would throw away its work.
            // A changed (or vanished) file is simply skipped — the next
            // gc sees the new mtime and ages it normally.
            let republished = fs::metadata(&path)
                .and_then(|m| m.modified())
                .map(|mtime| mtime != e.modified)
                .unwrap_or(true);
            if republished {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total -= e.bytes;
                removed += 1;
                freed += e.bytes;
            }
        }
        (removed, freed)
    }

    /// Removes every artifact and every temp file, fresh or not — a full
    /// wipe is an explicit administrative action, not a background sweep,
    /// so no grace period applies. Returns entries removed.
    pub fn clear(&self) -> usize {
        let mut removed = 0usize;
        if let Ok(dir) = fs::read_dir(&self.root) {
            for e in dir.flatten() {
                let name = e.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with("tmp-") {
                    let _ = fs::remove_file(e.path());
                } else if name.ends_with(".mpgc") && fs::remove_file(e.path()).is_ok() {
                    removed += 1;
                }
            }
        }
        removed
    }
}

/// The warm path for graph recording: returns the recorded graph for
/// `(trace, config)`, from the cache when a valid MPGA artifact exists
/// (skipping the recording replay entirely), recording and publishing it
/// otherwise. The second return is `true` on a cache hit.
///
/// `trace_key` must be the trace's content-fingerprint key; `config` is
/// forced to record mode. A corrupt or stale artifact is a miss, never an
/// error — and so is a well-formed artifact whose layout is not the one a
/// recording of `trace` declares (each rank's event count): the key is
/// only a fingerprint, and the cache directory is untrusted.
///
/// A cancel token in `config` that cuts the recording short shows in the
/// third return, as in [`crate::ReplayReport::cancelled`]; the graph is
/// then partial and is never published, so it cannot warm a later run.
pub fn cached_recorded_graph(
    store: &CacheStore,
    trace_key: &str,
    trace: &MemTrace,
    config: ReplayConfig,
) -> Result<(EventGraph, bool, Option<CancelReason>), ReplayError> {
    let config = config.record_graph(true);
    let key = CacheStore::artifact_key(trace_key, ArtifactKind::Arena, &config.fingerprint());
    if let Some(bytes) = store.get(&key, ArtifactKind::Arena) {
        if let Ok(arena) = decode_arena(&bytes) {
            let fits = trace_layout(trace).is_ok_and(|layout| {
                arena.num_ranks() == layout.len()
                    && layout
                        .iter()
                        .enumerate()
                        .all(|(r, &n)| arena.rank_events(r) == n)
            });
            if fits {
                return Ok((EventGraph::from_arena(arena), true, None));
            }
        }
    }
    let report = Replayer::new(config).run(trace)?;
    let graph = report
        .graph
        .expect("record_graph(true) always yields a graph");
    if report.cancelled.is_none() {
        let _ = store.put(&key, ArtifactKind::Arena, &encode_arena(graph.arena()));
    }
    Ok((graph, false, report.cancelled))
}

/// Memoized happens-before clocks: loads the [`HbIndex`] for
/// `(trace, config)` from the cache when present, building and publishing
/// it otherwise. The `bool` is `true` on a hit. With a `cancel` token the
/// build is [`HbIndex::build_cancellable`]: a fired token returns its
/// reason and publishes nothing.
pub fn cached_hb_index(
    store: &CacheStore,
    trace_key: &str,
    config_fp: &str,
    graph: &EventGraph,
    cancel: Option<&CancelToken>,
) -> Result<(HbIndex, bool), CancelReason> {
    let key = CacheStore::artifact_key(trace_key, ArtifactKind::HbClocks, config_fp);
    if let Some(bytes) = store.get(&key, ArtifactKind::HbClocks) {
        if let Some(hb) = HbIndex::from_bytes(&bytes) {
            return Ok((hb, true));
        }
    }
    let hb = match cancel {
        Some(token) => HbIndex::build_cancellable(graph, token)?,
        None => HbIndex::build(graph),
    };
    let _ = store.put(&key, ArtifactKind::HbClocks, &hb.to_bytes());
    Ok((hb, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> CacheStore {
        let d = std::env::temp_dir().join(format!("mpg-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        CacheStore::open(&d).unwrap()
    }

    #[test]
    fn put_get_roundtrip_and_kind_mismatch() {
        let s = temp_store("roundtrip");
        s.put("k1", ArtifactKind::Arena, b"payload").unwrap();
        assert_eq!(
            s.get("k1", ArtifactKind::Arena).as_deref(),
            Some(&b"payload"[..])
        );
        // Asking for the same key under a different kind is a miss.
        assert!(s.get("k1", ArtifactKind::Report).is_none());
        assert!(s.get("absent", ArtifactKind::Arena).is_none());
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn corrupt_entry_degrades_to_miss() {
        let s = temp_store("corrupt");
        s.put("k", ArtifactKind::HbClocks, b"0123456789").unwrap();
        let p = s.root().join("k.mpgc");
        let mut bytes = fs::read(&p).unwrap();
        for i in 0..bytes.len() {
            let orig = bytes[i];
            bytes[i] ^= 0x08;
            fs::write(&p, &bytes).unwrap();
            assert!(
                s.get("k", ArtifactKind::HbClocks).is_none(),
                "flip at {i} served corrupt payload"
            );
            bytes[i] = orig;
        }
        // Truncations too.
        fs::write(&p, &bytes[..bytes.len() - 1]).unwrap();
        assert!(s.get("k", ArtifactKind::HbClocks).is_none());
        fs::write(&p, b"").unwrap();
        assert!(s.get("k", ArtifactKind::HbClocks).is_none());
        let _ = fs::remove_dir_all(s.root());
    }

    /// `put` does not fsync, so a power loss after the rename can leave the
    /// entry at any length up to its own with any tail of it unwritten
    /// (delayed allocation reads back as zeros). Every such file is a miss
    /// and the next publish repairs it.
    #[test]
    fn unsynced_publish_cut_short_by_a_crash_is_a_miss_and_is_republished() {
        let s = temp_store("crash");
        let report = CachedReport {
            exit_code: 0,
            stdout: "makespan 1234 cycles\n".repeat(6),
        };
        s.put_report("k", &report).unwrap();
        let p = s.root().join("k.mpgc");
        let whole = fs::read(&p).unwrap();
        let mut damaged: Vec<Vec<u8>> = Vec::new();
        for kept in 0..whole.len() {
            // Truncated to a prefix (zero length included) ...
            damaged.push(whole[..kept].to_vec());
            // ... or full length with everything after it zero-filled
            // (all zeros included).
            let mut zero_tail = whole.clone();
            zero_tail[kept..].fill(0);
            damaged.push(zero_tail);
        }
        for bytes in damaged {
            fs::write(&p, &bytes).unwrap();
            assert!(
                s.get_report("k").is_none(),
                "served a {}-byte damaged entry",
                bytes.len()
            );
            s.put_report("k", &report).unwrap();
            assert_eq!(fs::read(&p).unwrap(), whole);
        }
        assert_eq!(s.get_report("k"), Some(report));
        // A crash before the rename leaves a young temp file, which gc
        // must still take for a publish in flight.
        fs::write(s.root().join("tmp-1-0"), &whole[..9]).unwrap();
        assert_eq!(s.gc(u64::MAX), (0, 0));
        assert!(s.root().join("tmp-1-0").exists());
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn report_roundtrip() {
        let s = temp_store("report");
        let r = CachedReport {
            exit_code: 1,
            stdout: "warnings: 3\n".into(),
        };
        s.put_report("rep", &r).unwrap();
        assert_eq!(s.get_report("rep"), Some(r));
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn ls_gc_clear() {
        let s = temp_store("gc");
        s.put("a", ArtifactKind::Report, &[0u8; 100]).unwrap();
        s.put("b", ArtifactKind::Report, &[0u8; 100]).unwrap();
        // A just-written temp file: indistinguishable from an in-flight
        // publish, so gc must leave it alone...
        fs::write(s.root().join("tmp-999-0"), b"torn").unwrap();
        assert_eq!(s.ls().len(), 2);
        let (removed, freed) = s.gc(u64::MAX);
        assert_eq!((removed, freed), (0, 0));
        assert!(
            s.root().join("tmp-999-0").exists(),
            "gc must not sweep fresh temp files"
        );
        // ...until it is stale (grace elapsed — simulated with zero grace).
        let _ = s.gc_with_grace(u64::MAX, Duration::ZERO);
        assert!(
            !s.root().join("tmp-999-0").exists(),
            "gc sweeps stale temp files"
        );
        // clear() is a full wipe: temp files go regardless of age.
        fs::write(s.root().join("tmp-999-1"), b"torn").unwrap();
        assert_eq!(s.clear(), 2);
        assert!(s.ls().is_empty());
        assert!(!s.root().join("tmp-999-1").exists());
        let _ = fs::remove_dir_all(s.root());
    }

    /// The publish/gc race the grace period exists for: one thread
    /// republishes the same key in a tight loop while another runs gc
    /// continuously. Every publish must succeed (gc may never unlink a
    /// temp file between its write and its rename), and the key must be
    /// readable once the dust settles.
    #[test]
    fn gc_never_breaks_a_concurrent_publish() {
        use std::sync::atomic::AtomicBool;

        let s = temp_store("gc-race");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let store = s.clone();
            let writer = scope.spawn(move || {
                for i in 0..400u32 {
                    store
                        .put("hot", ArtifactKind::Report, &i.to_le_bytes())
                        .unwrap_or_else(|e| panic!("publish {i} failed under gc: {e}"));
                }
            });
            let store = s.clone();
            let collector = {
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // Aggressive budget: evicts published entries, but
                        // must never touch a fresh temp file.
                        let _ = store.gc(0);
                        std::thread::yield_now();
                    }
                })
            };
            writer.join().expect("writer panicked");
            stop.store(true, Ordering::Relaxed);
            collector.join().expect("gc thread panicked");
        });
        // After the race, a final publish must be visible.
        s.put("hot", ArtifactKind::Report, b"final").unwrap();
        assert_eq!(
            s.get("hot", ArtifactKind::Report).as_deref(),
            Some(&b"final"[..])
        );
        let _ = fs::remove_dir_all(s.root());
    }

    /// A blob in the layout `HbIndex` used to write is a silent miss: the
    /// index is rebuilt, republished over the stale entry, and served warm
    /// from then on.
    #[test]
    fn stale_hb_layout_misses_and_is_republished() {
        use crate::hb::tests::{dense_layout_blob, two_rank_message};

        let s = temp_store("hb-layout");
        let graph = two_rank_message();
        let key = CacheStore::artifact_key("t", ArtifactKind::HbClocks, "cfg");
        s.put(&key, ArtifactKind::HbClocks, &dense_layout_blob())
            .unwrap();
        let (cold, hit) = cached_hb_index(&s, "t", "cfg", &graph, None).unwrap();
        assert!(!hit);
        assert_eq!(
            s.get(&key, ArtifactKind::HbClocks),
            Some(HbIndex::build(&graph).to_bytes())
        );
        let (warm, hit) = cached_hb_index(&s, "t", "cfg", &graph, None).unwrap();
        assert!(hit);
        assert_eq!(warm.to_bytes(), cold.to_bytes());
        let _ = fs::remove_dir_all(s.root());
    }

    /// An artifact file whose envelope names a kind that no longer exists
    /// (tag 5, as older cache directories hold) is a miss under every
    /// current kind, never a panic.
    #[test]
    fn retired_kind_tag_is_a_miss() {
        let s = temp_store("retired");
        s.put("k", ArtifactKind::Report, b"\x00ok\n").unwrap();
        let p = s.root().join("k.mpgc");
        let mut bytes = fs::read(&p).unwrap();
        bytes[8] = 5;
        fs::write(&p, &bytes).unwrap();
        for kind in [
            ArtifactKind::Report,
            ArtifactKind::Arena,
            ArtifactKind::HbClocks,
        ] {
            assert!(s.get("k", kind).is_none(), "{kind:?}");
        }
        assert!(s.get_report("k").is_none());
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn artifact_keys_separate_kinds_and_configs() {
        let k1 = CacheStore::artifact_key("t", ArtifactKind::Arena, "cfg-a");
        let k2 = CacheStore::artifact_key("t", ArtifactKind::Arena, "cfg-b");
        let k3 = CacheStore::artifact_key("t", ArtifactKind::Report, "cfg-a");
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert!(k1.starts_with("arena-t-"));
    }
}
