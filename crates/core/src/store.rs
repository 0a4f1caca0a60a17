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
//! ## Backends and concurrency
//!
//! The typed API sits on [`ArtifactBackend`], a raw byte-level trait with
//! two implementations: [`FileBackend`] (one file per artifact, writes
//! published by atomic rename so concurrent readers never observe a torn
//! artifact) and [`ShardedCache`], a read-mostly in-memory write-through
//! layer over another backend. The cache shards its map by artifact
//! namespace across [`STORE_SHARDS`] `RwLock`s, so many sessions of one
//! process can hit different namespaces without contending on a single
//! lock; per-shard hit/miss/write counters ([`ShardStats`]) make the
//! traffic observable. [`ArtifactStore::open_shared`] builds the cached
//! stack — the configuration [`crate::XtraceEngine`] uses.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};
use xtrace_obs::ObsContext;
use xtrace_tracer::{from_bytes, parse_json, to_bytes_obs, trace_json_string, TaskTrace};

use crate::error::{Result, XtraceError};

/// Manifest `format` field.
pub const STORE_FORMAT: &str = "xtrace-artifact-store";
/// Current store layout version.
pub const STORE_VERSION: u32 = 1;
/// Lock shards in a [`ShardedCache`] (namespaces hash across them).
pub const STORE_SHARDS: usize = 8;

fn store_err(path: &Path, e: std::io::Error) -> XtraceError {
    XtraceError::Store(format!("{}: {e}", path.display()))
}

/// Raw byte-level artifact storage: the substrate under the typed
/// [`ArtifactStore`] API.
///
/// `namespace` is the artifact's grouping key (a pipeline config hash, or
/// the shared `convolve` memo namespace); `name` is the file name within
/// it, extension included. Implementations must be safe for concurrent
/// readers and writers: a `load` racing a `save` of the same artifact
/// returns either the old or the new bytes, never a torn mix.
pub trait ArtifactBackend: Send + Sync + std::fmt::Debug {
    /// The bytes of `<namespace>/<name>`, or `None` when absent.
    fn load(&self, namespace: &str, name: &str) -> Result<Option<Vec<u8>>>;
    /// Durably stores `<namespace>/<name>`, replacing any previous value.
    fn save(&self, namespace: &str, name: &str, bytes: &[u8]) -> Result<()>;
}

/// The original one-file-per-artifact backend.
///
/// Writes land in a unique temporary file first and are published with
/// `rename`, which is atomic on POSIX filesystems — concurrent readers
/// (other threads or other processes sharing the store directory) see
/// whole artifacts only.
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
}

/// Distinguishes concurrent writers' temporary files (process-wide).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl FileBackend {
    /// Opens (or initializes) a backend rooted at `root`.
    ///
    /// A fresh directory gets a manifest; an existing one must carry a
    /// manifest with this library's format and a version no newer than
    /// [`STORE_VERSION`].
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
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

    /// The backend's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry(&self, namespace: &str, name: &str) -> PathBuf {
        self.root.join(namespace).join(name)
    }
}

impl ArtifactBackend for FileBackend {
    fn load(&self, namespace: &str, name: &str) -> Result<Option<Vec<u8>>> {
        let path = self.entry(namespace, name);
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

/// Per-shard (or aggregated) cache traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups answered from the in-memory map.
    pub hits: u64,
    /// Lookups that had to consult the inner backend.
    pub misses: u64,
    /// Write-through saves routed via this shard.
    pub writes: u64,
}

/// One shard's map: `(namespace, name)` → cached artifact bytes.
type ShardMap = std::collections::HashMap<(String, String), Arc<Vec<u8>>>;

#[derive(Debug, Default)]
struct Shard {
    map: RwLock<ShardMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
}

/// A sharded, read-mostly, write-through in-memory cache over another
/// [`ArtifactBackend`].
///
/// Artifacts hash by *namespace* onto one of [`STORE_SHARDS`] independent
/// `RwLock`-guarded maps, so concurrent sessions working on different
/// pipeline configs never contend on one lock, and identical sessions
/// share cached bytes under read locks. Saves write through to the inner
/// backend first (durability), then publish to the shard; loads populate
/// the shard on miss. Absence is never cached, so an artifact written by
/// another process through the shared directory is still found.
pub struct ShardedCache {
    inner: Arc<dyn ArtifactBackend>,
    shards: [Shard; STORE_SHARDS],
}

impl ShardedCache {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: Arc<dyn ArtifactBackend>) -> Self {
        Self {
            inner,
            shards: std::array::from_fn(|_| Shard::default()),
        }
    }

    /// FNV-1a over the namespace: same grouping key, same shard.
    fn shard_of(&self, namespace: &str) -> &Shard {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in namespace.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[(h % STORE_SHARDS as u64) as usize]
    }

    /// Traffic counters per shard, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                writes: s.writes.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Aggregated traffic counters over every shard.
    pub fn stats(&self) -> ShardStats {
        self.shard_stats()
            .iter()
            .fold(ShardStats::default(), |a, s| ShardStats {
                hits: a.hits + s.hits,
                misses: a.misses + s.misses,
                writes: a.writes + s.writes,
            })
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &STORE_SHARDS)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ArtifactBackend for ShardedCache {
    fn load(&self, namespace: &str, name: &str) -> Result<Option<Vec<u8>>> {
        let shard = self.shard_of(namespace);
        let key = (namespace.to_string(), name.to_string());
        {
            let map = shard
                .map
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(bytes) = map.get(&key) {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(bytes.as_ref().clone()));
            }
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let loaded = self.inner.load(namespace, name)?;
        if let Some(bytes) = &loaded {
            let mut map = shard
                .map
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            map.insert(key, Arc::new(bytes.clone()));
        }
        Ok(loaded)
    }

    fn save(&self, namespace: &str, name: &str, bytes: &[u8]) -> Result<()> {
        // Durability first: only publish to the cache what the inner
        // backend accepted, so a failed write can't leave phantom bytes.
        self.inner.save(namespace, name, bytes)?;
        let shard = self.shard_of(namespace);
        shard.writes.fetch_add(1, Ordering::Relaxed);
        let mut map = shard
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.insert(
            (namespace.to_string(), name.to_string()),
            Arc::new(bytes.to_vec()),
        );
        Ok(())
    }
}

/// A directory of pipeline artifacts keyed by config hash.
///
/// The typed API (traces, JSON values) over an [`ArtifactBackend`].
/// Cloning shares the backend, so one store can serve many sessions;
/// [`ArtifactStore::with_obs`] rebinds the clone to a session's
/// [`ObsContext`] so `store.*` counters land in that run's snapshot.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    backend: Arc<dyn ArtifactBackend>,
    cache: Option<Arc<ShardedCache>>,
    root: PathBuf,
    obs: Option<ObsContext>,
}

impl ArtifactStore {
    /// Opens (or initializes) a plain file-backed store rooted at `root`.
    ///
    /// Every lookup and write goes straight to disk — the semantics the
    /// store always had. Use [`ArtifactStore::open_shared`] for the
    /// in-memory-cached stack meant to be shared by concurrent sessions.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let file = FileBackend::open(root)?;
        let root = file.root().to_path_buf();
        Ok(Self {
            backend: Arc::new(file),
            cache: None,
            root,
            obs: None,
        })
    }

    /// Opens a store whose file backend is fronted by a [`ShardedCache`],
    /// for many concurrent readers and writers in one process.
    pub fn open_shared(root: impl Into<PathBuf>) -> Result<Self> {
        let file = FileBackend::open(root)?;
        let root = file.root().to_path_buf();
        let cache = Arc::new(ShardedCache::new(Arc::new(file)));
        Ok(Self {
            backend: cache.clone(),
            cache: Some(cache),
            root,
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
        &self.root
    }

    /// The in-memory cache layer's aggregated counters, when this store
    /// was opened with [`ArtifactStore::open_shared`].
    pub fn cache_stats(&self) -> Option<ShardStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Per-shard cache counters (shard order), when cached.
    pub fn cache_shard_stats(&self) -> Option<Vec<ShardStats>> {
        self.cache.as_ref().map(|c| c.shard_stats())
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
        self.root.join(hash).join(name)
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
        self.backend.save(hash, &format!("{name}.bin"), &bytes)?;
        self.record_write();
        Ok(())
    }

    /// Looks a binary trace up; corrupt artifacts read as a miss.
    pub fn get_trace(&self, hash: &str, name: &str) -> Result<Option<TaskTrace>> {
        let found = match self.backend.load(hash, &format!("{name}.bin"))? {
            Some(bytes) => from_bytes(&bytes).ok(),
            None => None,
        };
        self.record_lookup(found.is_some());
        Ok(found)
    }

    /// Files a trace under `<hash>/<name>.json` (versioned JSON envelope).
    pub fn put_trace_json(&self, hash: &str, name: &str, trace: &TaskTrace) -> Result<()> {
        let path = self.entry(hash, &format!("{name}.json"));
        let body = trace_json_string(trace)
            .map_err(|e| XtraceError::Store(format!("{}: {e}", path.display())))?;
        self.backend
            .save(hash, &format!("{name}.json"), body.as_bytes())?;
        self.record_write();
        Ok(())
    }

    /// Looks a JSON-envelope trace up; corrupt artifacts read as a miss.
    pub fn get_trace_json(&self, hash: &str, name: &str) -> Result<Option<TaskTrace>> {
        let file = format!("{name}.json");
        let found = match self.backend.load(hash, &file)? {
            Some(bytes) => match String::from_utf8(bytes) {
                Ok(s) => parse_json(&s, &self.entry(hash, &file)).ok(),
                Err(_) => None,
            },
            None => None,
        };
        self.record_lookup(found.is_some());
        Ok(found)
    }

    /// Files any serializable value under `<hash>/<name>.json`.
    pub fn put_json<T: Serialize>(&self, hash: &str, name: &str, value: &T) -> Result<()> {
        let path = self.entry(hash, &format!("{name}.json"));
        let body = serde_json::to_string_pretty(value)
            .map_err(|e| XtraceError::Store(format!("{}: {e}", path.display())))?;
        self.backend
            .save(hash, &format!("{name}.json"), body.as_bytes())?;
        self.record_write();
        Ok(())
    }

    /// Looks a JSON value up; corrupt artifacts read as a miss.
    pub fn get_json<T: Deserialize>(&self, hash: &str, name: &str) -> Result<Option<T>> {
        let found = match self.backend.load(hash, &format!("{name}.json"))? {
            Some(bytes) => match String::from_utf8(bytes) {
                Ok(s) => serde_json::from_str(&s).ok(),
                Err(_) => None,
            },
            None => None,
        };
        self.record_lookup(found.is_some());
        Ok(found)
    }
}

/// Convolved group tables are pure functions of (trace, machine), so the
/// store memoizes them under a shared `convolve/` entry keyed by the
/// replay layer's content hash — any pipeline run (or bench) touching the
/// same group traces reuses them. Best-effort by contract: I/O failures
/// degrade to recomputation.
impl xtrace_psins::ConvolveCache for ArtifactStore {
    fn get_group(&self, key: &str) -> Option<xtrace_psins::GroupBlockTimes> {
        self.get_json("convolve", key).ok().flatten()
    }

    fn put_group(&self, key: &str, value: &xtrace_psins::GroupBlockTimes) {
        let _ = self.put_json("convolve", key, value);
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
        let store = ArtifactStore::open(&root).unwrap();
        let manifest = std::fs::read_to_string(root.join("store.json")).unwrap();
        assert!(manifest.contains(STORE_FORMAT));
        drop(store);
        ArtifactStore::open(&root).expect("reopen succeeds");
        ArtifactStore::open_shared(&root).expect("shared reopen succeeds");
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
        let err = ArtifactStore::open(&root).unwrap_err();
        assert!(matches!(err, XtraceError::Store(_)));
        assert!(err.to_string().contains("newer than supported"));
    }

    #[test]
    fn open_rejects_foreign_manifests() {
        let root = tmp("foreign");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("store.json"), "{\"format\": \"something-else\"}").unwrap();
        assert!(ArtifactStore::open(&root).is_err());
    }

    #[test]
    fn binary_and_json_traces_roundtrip() {
        let store = ArtifactStore::open(tmp("roundtrip")).unwrap();
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
        let store = ArtifactStore::open(&root).unwrap();
        let trace = sample_trace();
        store.put_trace("h", "t", &trace).unwrap();
        std::fs::write(root.join("h").join("t.bin"), b"garbage").unwrap();
        assert_eq!(store.get_trace("h", "t").unwrap(), None);
        store.put_json("h", "v", &42u32).unwrap();
        std::fs::write(root.join("h").join("v.json"), "not json").unwrap();
        assert_eq!(store.get_json::<u32>("h", "v").unwrap(), None);
    }

    #[test]
    fn entries_are_isolated_by_hash() {
        let store = ArtifactStore::open(tmp("isolated")).unwrap();
        let trace = sample_trace();
        store.put_trace("aaaa", "t", &trace).unwrap();
        assert_eq!(store.get_trace("bbbb", "t").unwrap(), None);
    }

    #[test]
    fn store_memoizes_convolved_group_tables() {
        use xtrace_psins::{ConvolveCache, GroupBlockTimes};
        let store = ArtifactStore::open(tmp("convolve")).unwrap();
        let table = GroupBlockTimes {
            columns: vec!["jacobi-sweep".into(), "residual".into()],
            per_iteration: vec![1.25e-9, 3.5e-10],
        };
        assert!(store.get_group("deadbeefdeadbeef").is_none());
        store.put_group("deadbeefdeadbeef", &table);
        assert_eq!(store.get_group("deadbeefdeadbeef"), Some(table));
    }

    #[test]
    fn cached_replay_model_reuses_store_entries() {
        use xtrace_psins::GroupComputeModel;
        let obs = ObsContext::disabled();
        let store = ArtifactStore::open(tmp("convolve-model")).unwrap();
        let app = xtrace_apps::StencilProxy::small();
        let machine = presets::opteron();
        let cfg = TracerConfig::fast();
        let t0 = xtrace_tracer::collect_task_trace(&app, 0, 4, &machine, &cfg, None, &obs);
        let t1 = xtrace_tracer::collect_task_trace(&app, 1, 4, &machine, &cfg, None, &obs);
        let groups = vec![(t0, 1u64), (t1, 3u64)];
        let build = || GroupComputeModel::try_new(&groups, 4, &machine, Some(&store), &obs);
        let (_, cold) = build().expect("cold");
        assert_eq!(cold, 0);
        let (_, warm) = build().expect("warm");
        assert_eq!(warm, 2);
    }

    #[test]
    fn shared_store_serves_cached_bytes_and_counts_traffic() {
        let root = tmp("shared");
        let plain = ArtifactStore::open(&root).unwrap();
        let store = ArtifactStore::open_shared(&root).unwrap();
        let trace = sample_trace();
        // Written behind the cache's back: the first cached read misses
        // the memory layer and populates it from disk, the second hits.
        plain.put_trace("h", "t", &trace).unwrap();
        assert_eq!(store.get_trace("h", "t").unwrap(), Some(trace.clone()));
        assert_eq!(store.get_trace("h", "t").unwrap(), Some(trace.clone()));
        let stats = store.cache_stats().expect("shared store has a cache");
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 0));
        // Write-through: a cached save is immediately durable on disk
        // and served from memory afterwards.
        store.put_trace("h", "u", &trace).unwrap();
        assert!(store.root().join("h").join("u.bin").exists());
        assert_eq!(store.get_trace("h", "u").unwrap(), Some(trace));
        let stats = store.cache_stats().expect("shared store has a cache");
        assert_eq!((stats.hits, stats.misses, stats.writes), (2, 1, 1));
    }

    #[test]
    fn shard_counters_sum_to_total_lookups() {
        let store = ArtifactStore::open_shared(tmp("shard-sums")).unwrap();
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
            assert_eq!(store.get_json::<u32>(ns, "absent").unwrap(), None);
            lookups += 1;
        }
        let per_shard = store.cache_shard_stats().expect("cached");
        assert_eq!(per_shard.len(), STORE_SHARDS);
        let total: u64 = per_shard.iter().map(|s| s.hits + s.misses).sum();
        assert_eq!(total, lookups, "every lookup is counted exactly once");
        // 32 namespaces over 8 shards: the hash must actually spread them.
        assert!(
            per_shard.iter().filter(|s| s.hits + s.misses > 0).count() > 1,
            "namespaces all hashed to one shard"
        );
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
        let stats = store.cache_stats().expect("cached");
        // 1 seed + 8 threads x 10 rounds x 2 writes.
        assert_eq!(stats.writes, 1 + 8 * 10 * 2);
        let per_shard = store.cache_shard_stats().expect("cached");
        let lookups: u64 = per_shard.iter().map(|s| s.hits + s.misses).sum();
        // 8 threads x 10 rounds x 3 lookups, all counted.
        assert_eq!(lookups, 8 * 10 * 3);
    }
}
