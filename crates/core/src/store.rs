//! Content-addressed, versioned artifact store.
//!
//! Pipeline outputs are filed under the run's
//! [prefix hash](crate::config::PipelineConfig::prefix_hash), with a
//! target suffix on everything the target count changes:
//!
//! ```text
//! <root>/store.json                        manifest (format + version)
//! <root>/<prefix>/training-p<P>.bin        training traces (compact binary codec)
//! <root>/<prefix>/extrapolated-t<T>.json   synthetic trace (versioned JSON envelope)
//! <root>/<prefix>/fit-diagnostics-t<T>.json
//! <root>/<prefix>/prediction-t<T>.json     runtime prediction
//! <root>/<prefix>/critical-path-t<T>.json  critical-path attribution
//! <root>/<prefix>/validation-t<T>.json     validation record
//! ```
//!
//! Because the hash and suffix cover every output-relevant config field,
//! *resume is a cache hit*: re-running an identical pipeline finds each
//! artifact and skips the computation that produced it, while any config
//! change lands in a fresh entry. Serialization is delegated to `xtrace-tracer`'s codec
//! (`to_bytes`/`from_bytes`, envelope JSON) so the store and the CLI share
//! one on-disk trace format.
//!
//! A missing artifact reads as `Ok(None)`; so does a *corrupt* one (the
//! pipeline recomputes and overwrites it). Only environmental failures —
//! an unreadable root, a manifest written by a newer library version —
//! are errors.
//!
//! ## Layers and concurrency
//!
//! Every store is one stack, opened by [`ArtifactStore::open_shared`]: a
//! file layer (one file per artifact, writes published by atomic rename so
//! concurrent readers never observe a torn artifact) under one in-memory
//! map. Saves write through to the files first, then publish to the map;
//! loads fill the map on a miss. Absence is never cached, so an artifact
//! another process writes into the same directory is still found. The
//! map's `RwLock` guards only `Arc` moves — bytes are copied and decoded
//! outside it — and hit/miss/write counters ([`CacheStats`]) make the
//! traffic observable.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use serde::{Deserialize, Serialize};
use xtrace_obs::ObsContext;
use xtrace_tracer::{from_bytes, parse_json, to_bytes_obs, trace_json_string, TaskTrace};

use crate::error::{Result, XtraceError};

/// Manifest `format` field.
pub const STORE_FORMAT: &str = "xtrace-artifact-store";
/// Current store layout version.
pub const STORE_VERSION: u32 = 1;

fn store_err(path: &Path, e: std::io::Error) -> XtraceError {
    XtraceError::Store(format!("{}: {e}", path.display()))
}

/// The file layer: one file per artifact, `<root>/<namespace>/<name>`.
///
/// Writes land in a unique temporary file first and are published with
/// `rename`, which is atomic on POSIX filesystems — concurrent readers
/// (other threads or other processes sharing the store directory) see
/// whole artifacts only.
#[derive(Debug)]
struct FileBackend {
    root: PathBuf,
}

/// Distinguishes concurrent writers' temporary files (process-wide).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl FileBackend {
    /// Opens (or initializes) the files rooted at `root`.
    ///
    /// A fresh directory gets a manifest; an existing one must carry a
    /// manifest with this library's format and a version no newer than
    /// [`STORE_VERSION`].
    fn open(root: PathBuf) -> Result<Self> {
        std::fs::create_dir_all(&root).map_err(|e| store_err(&root, e))?;
        let manifest = root.join("store.json");
        match std::fs::read_to_string(&manifest) {
            Ok(s) => {
                let v: serde_json::Value = serde_json::from_str(&s).map_err(|e| {
                    XtraceError::Store(format!("{}: bad manifest: {e}", manifest.display()))
                })?;
                if v["format"].as_str() != Some(STORE_FORMAT) {
                    return Err(XtraceError::Store(format!(
                        "{}: not an xtrace artifact store",
                        root.display()
                    )));
                }
                let version = v["version"].as_u64().unwrap_or(0) as u32;
                if version > STORE_VERSION {
                    return Err(XtraceError::Store(format!(
                        "{}: store version {version} is newer than supported {STORE_VERSION}",
                        root.display()
                    )));
                }
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {
                let body = format!(
                    "{{\n  \"format\": \"{STORE_FORMAT}\",\n  \"version\": {STORE_VERSION}\n}}\n"
                );
                std::fs::write(&manifest, body).map_err(|e| store_err(&manifest, e))?;
            }
            Err(e) => return Err(store_err(&manifest, e)),
        }
        Ok(Self { root })
    }

    fn load(&self, namespace: &str, name: &str) -> Result<Option<Vec<u8>>> {
        let path = self.root.join(namespace).join(name);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(store_err(&path, e)),
        }
    }

    fn save(&self, namespace: &str, name: &str, bytes: &[u8]) -> Result<()> {
        let dir = self.root.join(namespace);
        std::fs::create_dir_all(&dir).map_err(|e| store_err(&dir, e))?;
        let path = dir.join(name);
        let tmp = dir.join(format!(
            ".{name}.tmp{}",
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes).map_err(|e| store_err(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            store_err(&path, e)
        })
    }
}

/// Traffic counters of a store's in-memory map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the in-memory map.
    pub hits: u64,
    /// Lookups that had to consult the files.
    pub misses: u64,
    /// Write-through saves.
    pub writes: u64,
}

/// `(namespace, name)` → artifact bytes.
type ArtifactMap = HashMap<(String, String), Arc<Vec<u8>>>;

/// The file layer plus the in-memory map in front of it.
struct CachedFiles {
    files: FileBackend,
    map: RwLock<ArtifactMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
}

impl CachedFiles {
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// The bytes of `<namespace>/<name>`, from memory when present; a
    /// miss reads the file and keeps what it found (never its absence).
    fn load(&self, namespace: &str, name: &str) -> Result<Option<Arc<Vec<u8>>>> {
        let key = (namespace.to_string(), name.to_string());
        let cached = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        if cached.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let Some(bytes) = self.files.load(namespace, name)? else {
            return Ok(None);
        };
        let bytes = Arc::new(bytes);
        self.map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, Arc::clone(&bytes));
        Ok(Some(bytes))
    }

    /// Writes `<namespace>/<name>` through to the files, then publishes
    /// it to memory: a failed write leaves no phantom bytes behind.
    fn save(&self, namespace: &str, name: &str, bytes: Vec<u8>) -> Result<()> {
        self.files.save(namespace, name, &bytes)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        let bytes = Arc::new(bytes);
        self.map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((namespace.to_string(), name.to_string()), bytes);
        Ok(())
    }
}

impl std::fmt::Debug for CachedFiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedFiles")
            .field("root", &self.files.root)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A directory of pipeline artifacts keyed by config hash.
///
/// The typed API (traces, JSON values) over the file layer and its
/// in-memory map. Cloning shares both, so one store can serve many
/// sessions; [`ArtifactStore::with_obs`] rebinds the clone to a session's
/// [`ObsContext`] so `store.*` counters land in that run's snapshot.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    cache: Arc<CachedFiles>,
    obs: Option<ObsContext>,
}

impl ArtifactStore {
    /// Opens (or initializes) the store rooted at `root`, with an empty
    /// in-memory map. Clones share the map; a second `open_shared` of the
    /// same directory gets a map of its own and still finds the first
    /// one's writes on disk.
    pub fn open_shared(root: impl Into<PathBuf>) -> Result<Self> {
        Ok(Self {
            cache: Arc::new(CachedFiles {
                files: FileBackend::open(root.into())?,
                map: RwLock::default(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            }),
            obs: None,
        })
    }

    /// Rebinds this handle (typically a clone) to an explicit
    /// observability context; without one, store counters are dropped.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsContext) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The effective observability context for this handle.
    fn obs(&self) -> ObsContext {
        self.obs.clone().unwrap_or_default()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.cache.files.root
    }

    /// The in-memory map's traffic counters, summed over every handle
    /// sharing it.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn record_lookup(&self, hit: bool) {
        self.obs()
            .metrics()
            .counter(if hit { "store.hits" } else { "store.misses" })
            .incr();
    }

    fn record_write(&self) {
        self.obs().metrics().counter("store.writes").incr();
    }

    fn entry(&self, hash: &str, name: &str) -> PathBuf {
        self.root().join(hash).join(name)
    }

    /// Files a trace under `<hash>/<name>.bin` (binary codec).
    ///
    /// The encoder itself reports `tracer.codec.compressed_bytes` /
    /// `tracer.codec.raw_bytes`; the store adds the on-disk total under
    /// `store.trace_bytes_written`.
    pub fn put_trace(&self, hash: &str, name: &str, trace: &TaskTrace) -> Result<()> {
        let obs = self.obs();
        let bytes = to_bytes_obs(trace, &obs);
        obs.metrics()
            .counter("store.trace_bytes_written")
            .add(bytes.len() as u64);
        self.cache
            .save(hash, &format!("{name}.bin"), bytes.to_vec())?;
        self.record_write();
        Ok(())
    }

    /// Looks a binary trace up; corrupt artifacts read as a miss.
    pub fn get_trace(&self, hash: &str, name: &str) -> Result<Option<TaskTrace>> {
        let found = match self.cache.load(hash, &format!("{name}.bin"))? {
            Some(bytes) => from_bytes(&bytes).ok(),
            None => None,
        };
        self.record_lookup(found.is_some());
        Ok(found)
    }

    /// Files a trace under `<hash>/<name>.json` (versioned JSON envelope).
    pub fn put_trace_json(&self, hash: &str, name: &str, trace: &TaskTrace) -> Result<()> {
        let file = format!("{name}.json");
        let body = trace_json_string(trace).map_err(|e| {
            XtraceError::Store(format!("{}: {e}", self.entry(hash, &file).display()))
        })?;
        self.cache.save(hash, &file, body.into_bytes())?;
        self.record_write();
        Ok(())
    }

    /// Looks a JSON-envelope trace up; corrupt artifacts read as a miss.
    pub fn get_trace_json(&self, hash: &str, name: &str) -> Result<Option<TaskTrace>> {
        let file = format!("{name}.json");
        let found = match self.cache.load(hash, &file)? {
            Some(bytes) => match std::str::from_utf8(&bytes) {
                Ok(s) => parse_json(s, &self.entry(hash, &file)).ok(),
                Err(_) => None,
            },
            None => None,
        };
        self.record_lookup(found.is_some());
        Ok(found)
    }

    /// Files any serializable value under `<hash>/<name>.json`.
    pub fn put_json<T: Serialize>(&self, hash: &str, name: &str, value: &T) -> Result<()> {
        let file = format!("{name}.json");
        let body = serde_json::to_string_pretty(value).map_err(|e| {
            XtraceError::Store(format!("{}: {e}", self.entry(hash, &file).display()))
        })?;
        self.cache.save(hash, &file, body.into_bytes())?;
        self.record_write();
        Ok(())
    }

    /// Looks a JSON value up; corrupt artifacts read as a miss.
    pub fn get_json<T: Deserialize>(&self, hash: &str, name: &str) -> Result<Option<T>> {
        let found = match self.cache.load(hash, &format!("{name}.json"))? {
            Some(bytes) => match std::str::from_utf8(&bytes) {
                Ok(s) => serde_json::from_str(s).ok(),
                Err(_) => None,
            },
            None => None,
        };
        self.record_lookup(found.is_some());
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace_machine::presets;
    use xtrace_tracer::{collect_signature_memo_obs, SigMemo, TracerConfig};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("xtrace-core-store-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_trace() -> TaskTrace {
        let app = xtrace_apps::StencilProxy::small();
        let machine = presets::opteron();
        collect_signature_memo_obs(
            &app,
            2,
            &machine,
            &TracerConfig::fast(),
            &SigMemo::new(),
            &ObsContext::disabled(),
        )
        .longest_task()
        .clone()
    }

    #[test]
    fn open_writes_a_manifest_and_reopens() {
        let root = tmp("manifest");
        let store = ArtifactStore::open_shared(&root).unwrap();
        let manifest = std::fs::read_to_string(root.join("store.json")).unwrap();
        assert!(manifest.contains(STORE_FORMAT));
        drop(store);
        ArtifactStore::open_shared(&root).expect("reopen succeeds");
    }

    #[test]
    fn open_rejects_newer_store_versions() {
        let root = tmp("newer");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(
            root.join("store.json"),
            format!("{{\"format\": \"{STORE_FORMAT}\", \"version\": 99}}"),
        )
        .unwrap();
        let err = ArtifactStore::open_shared(&root).unwrap_err();
        assert!(matches!(err, XtraceError::Store(_)));
        assert!(err.to_string().contains("newer than supported"));
    }

    #[test]
    fn open_rejects_foreign_manifests() {
        let root = tmp("foreign");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("store.json"), "{\"format\": \"something-else\"}").unwrap();
        assert!(ArtifactStore::open_shared(&root).is_err());
    }

    #[test]
    fn binary_and_json_traces_roundtrip() {
        let store = ArtifactStore::open_shared(tmp("roundtrip")).unwrap();
        let trace = sample_trace();
        assert_eq!(store.get_trace("h", "training-p2").unwrap(), None);
        store.put_trace("h", "training-p2", &trace).unwrap();
        assert_eq!(
            store.get_trace("h", "training-p2").unwrap(),
            Some(trace.clone())
        );
        store.put_trace_json("h", "extrapolated", &trace).unwrap();
        assert_eq!(
            store.get_trace_json("h", "extrapolated").unwrap(),
            Some(trace)
        );
    }

    #[test]
    fn corrupt_artifacts_read_as_misses() {
        let root = tmp("corrupt");
        let store = ArtifactStore::open_shared(&root).unwrap();
        let trace = sample_trace();
        store.put_trace("h", "t", &trace).unwrap();
        store.put_json("h", "v", &42u32).unwrap();
        std::fs::write(root.join("h").join("t.bin"), b"garbage").unwrap();
        std::fs::write(root.join("h").join("v.json"), "not json").unwrap();
        // The writing handle serves its own bytes from memory; a store
        // opened afterwards reads the corrupted files.
        let reopened = ArtifactStore::open_shared(&root).unwrap();
        assert_eq!(reopened.get_trace("h", "t").unwrap(), None);
        assert_eq!(reopened.get_json::<u32>("h", "v").unwrap(), None);
    }

    #[test]
    fn entries_are_isolated_by_hash() {
        let store = ArtifactStore::open_shared(tmp("isolated")).unwrap();
        let trace = sample_trace();
        store.put_trace("aaaa", "t", &trace).unwrap();
        assert_eq!(store.get_trace("bbbb", "t").unwrap(), None);
    }

    #[test]
    fn shared_store_serves_cached_bytes_and_counts_traffic() {
        let root = tmp("shared");
        let other = ArtifactStore::open_shared(&root).unwrap();
        let store = ArtifactStore::open_shared(&root).unwrap();
        let trace = sample_trace();
        // Written through another map: the first read misses this map
        // and populates it from disk, the second hits.
        other.put_trace("h", "t", &trace).unwrap();
        assert_eq!(store.get_trace("h", "t").unwrap(), Some(trace.clone()));
        assert_eq!(store.get_trace("h", "t").unwrap(), Some(trace.clone()));
        let stats = store.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 0));
        // Write-through: a cached save is immediately durable on disk
        // and served from memory afterwards.
        store.put_trace("h", "u", &trace).unwrap();
        assert!(store.root().join("h").join("u.bin").exists());
        assert_eq!(store.get_trace("h", "u").unwrap(), Some(trace));
        let stats = store.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (2, 1, 1));
    }

    #[test]
    fn cache_counters_sum_to_total_lookups() {
        let store = ArtifactStore::open_shared(tmp("cache-sums")).unwrap();
        let namespaces: Vec<String> = (0..32).map(|i| format!("ns{i:02}")).collect();
        for ns in &namespaces {
            store.put_json(ns, "v", &7u32).unwrap();
        }
        let mut lookups = 0u64;
        for ns in &namespaces {
            for _ in 0..3 {
                assert_eq!(store.get_json::<u32>(ns, "v").unwrap(), Some(7));
                lookups += 1;
            }
            for _ in 0..2 {
                assert_eq!(store.get_json::<u32>(ns, "absent").unwrap(), None);
                lookups += 1;
            }
        }
        let stats = store.cache_stats();
        assert_eq!(
            stats.hits + stats.misses,
            lookups,
            "every lookup is counted exactly once"
        );
        // Absence is never cached: the repeated "absent" lookups miss too.
        assert_eq!(stats.misses, 2 * 32);
    }

    #[test]
    fn eight_thread_stress_disjoint_and_identical_artifacts() {
        let store = ArtifactStore::open_shared(tmp("stress")).unwrap();
        let trace = sample_trace();
        // Seed one artifact every thread reads (identical), then race
        // disjoint per-thread artifacts against those shared reads.
        store.put_trace("shared", "t", &trace).unwrap();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for tid in 0..8u32 {
                let store = store.clone();
                let trace = &trace;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let ns = format!("thread{tid}");
                    for round in 0..10u32 {
                        store.put_trace(&ns, "mine", trace).expect("write");
                        let mine = store.get_trace(&ns, "mine").expect("read");
                        assert_eq!(mine.as_ref(), Some(trace), "torn disjoint read");
                        let shared = store.get_trace("shared", "t").expect("read");
                        assert_eq!(shared.as_ref(), Some(trace), "torn shared read");
                        // Identical-artifact contention: everyone rewrites
                        // the same bytes under the same key.
                        store.put_json("shared", "round", &round).expect("write");
                        let v: Option<u32> = store.get_json("shared", "round").expect("read");
                        assert!(v.is_some(), "shared value vanished");
                    }
                });
            }
        });
        let stats = store.cache_stats();
        // 1 seed + 8 threads x 10 rounds x 2 writes.
        assert_eq!(stats.writes, 1 + 8 * 10 * 2);
        // 8 threads x 10 rounds x 3 lookups, all counted.
        assert_eq!(stats.hits + stats.misses, 8 * 10 * 3);
    }
}
