//! The multi-client session engine.
//!
//! [`Pipeline`](crate::Pipeline) executes one run for one caller;
//! [`XtraceEngine`] serves *many* callers from one process. It owns the
//! shared resources — one [artifact store](crate::ArtifactStore) with its
//! in-memory map, and a fresh [`ObsContext`] per cold run — and adds
//! **request coalescing**: concurrent [`XtraceEngine::run`] calls with the
//! same [config hash](PipelineConfig::config_hash) await a
//! single pipeline execution and share its [`EngineOutcome`], instead of
//! racing N identical collections. The config hash already fingerprints
//! every output-relevant field, so it is exactly the right coalescing key:
//! two configs may share a flight if and only if they would file the same
//! artifacts.
//!
//! Sessions stay observably isolated: every cold run gets its own
//! journal-enabled recorder, so each outcome carries the metrics and
//! journal of *its* execution only — never counters bled in from a
//! neighboring session. A coalesced caller receives a copy of the leader's
//! snapshot (the execution that actually produced its result), flagged
//! with [`EngineOutcome::coalesced`].
//!
//! One execution path serves both entry points: [`XtraceEngine::run`] is
//! [`XtraceEngine::run_sweep`] over a sweep of one, and every flight
//! carries a [`SweepOutcome`]. Coalescing works at *both* hash
//! granularities: the sweep itself is keyed by its full config hash, and
//! the leader additionally opens per-target flights under each target's
//! standalone hash, so single-target callers arriving mid-sweep receive
//! their target's slice of the sweep instead of re-running the shared
//! prefix. Engine load is observable through the
//! `engine.in_flight` / `engine.waiting` gauges stamped into every
//! outcome's metrics (masked from golden comparisons, since they reflect
//! process load rather than the config).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use serde::{Deserialize, Serialize};
use xtrace_obs::{JournalSnapshot, ObsContext, Recorder, Snapshot};

use crate::config::PipelineConfig;
use crate::error::{Result, XtraceError};
use crate::pipeline::{Pipeline, PipelineReport, SweepReport};
use crate::stage::StageObserver;
use crate::store::ArtifactStore;

/// Everything one engine-run produced: the pipeline's report plus the
/// run's own observability snapshots. Serializable, so goldens and the
/// serve wire layer share this schema instead of assembling JSON ad hoc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineOutcome {
    /// The pipeline result.
    pub report: PipelineReport,
    /// Metrics snapshot of the execution that produced `report` — scoped
    /// to that run, no cross-session bleed.
    pub metrics: Snapshot,
    /// Event journal of the producing execution.
    pub journal: Option<JournalSnapshot>,
    /// `true` when this caller joined another caller's in-flight
    /// execution instead of running the pipeline itself.
    pub coalesced: bool,
}

/// Everything one engine-sweep produced: per-target reports over one
/// shared prefix execution, plus that execution's observability
/// snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// The sweep result: one [`PipelineReport`] per target.
    pub sweep: SweepReport,
    /// Metrics snapshot of the execution that produced `sweep`.
    pub metrics: Snapshot,
    /// Event journal of the producing execution.
    pub journal: Option<JournalSnapshot>,
    /// `true` when this caller joined another caller's in-flight
    /// execution instead of running the sweep itself.
    pub coalesced: bool,
}

impl EngineOutcome {
    /// The deterministic core of the outcome: the report's stage timings
    /// zeroed, the metrics snapshot masked
    /// ([`Snapshot::masked`]), and the journal masked
    /// ([`JournalSnapshot::masked`]). The `coalesced` flag is kept — it
    /// is part of the request's story, not of the run's timing. Golden
    /// tests and the serve wire layer both compare this form.
    pub fn masked(&self) -> EngineOutcome {
        EngineOutcome {
            report: self.report.masked(),
            metrics: self.metrics.masked(),
            journal: self.journal.as_ref().map(JournalSnapshot::masked),
            coalesced: self.coalesced,
        }
    }
}

impl From<SweepOutcome> for EngineOutcome {
    /// The first target's slice of a sweep: the whole outcome of a sweep
    /// of one, which is how [`XtraceEngine::run`] and the single-target
    /// front ends answer. The reports of any further targets are dropped.
    fn from(outcome: SweepOutcome) -> EngineOutcome {
        EngineOutcome {
            report: outcome
                .sweep
                .reports
                .into_iter()
                .next()
                .expect("a sweep has one report per target"),
            metrics: outcome.metrics,
            journal: outcome.journal,
            coalesced: outcome.coalesced,
        }
    }
}

impl SweepOutcome {
    /// The deterministic core of the sweep outcome; see
    /// [`EngineOutcome::masked`].
    pub fn masked(&self) -> SweepOutcome {
        SweepOutcome {
            sweep: self.sweep.masked(),
            metrics: self.metrics.masked(),
            journal: self.journal.as_ref().map(JournalSnapshot::masked),
            coalesced: self.coalesced,
        }
    }
}

/// One in-flight execution that followers can await.
#[derive(Default)]
struct Flight {
    /// `None` until the leader publishes; then the shared outcome
    /// (`coalesced` still `false` — followers flip their copy).
    slot: Mutex<Option<FlightResult>>,
    cv: Condvar,
    /// Callers currently parked on `cv` (observability for tests and
    /// load-shedding heuristics).
    waiters: AtomicUsize,
}

/// What a flight publishes: the leader's whole sweep, or its error text.
type FlightResult = std::result::Result<Arc<SweepOutcome>, String>;

impl Flight {
    /// Parks until the leader publishes, then returns a copy of the
    /// value. Decrements the waiter count registered at enqueue time.
    fn await_value(&self) -> FlightResult {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        while slot.is_none() {
            slot = self.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        self.waiters.fetch_sub(1, Ordering::AcqRel);
        slot.as_ref().expect("loop exits only when filled").clone()
    }

    /// Publishes the leader's result and wakes every parked follower.
    fn publish(&self, value: FlightResult) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        self.cv.notify_all();
    }
}

/// A process-wide pipeline service: shared cached store, per-run
/// observability contexts, and request coalescing keyed by config hash.
///
/// ```
/// use xtrace_core::{PipelineConfig, XtraceEngine};
///
/// let engine = XtraceEngine::new();
/// let cfg = PipelineConfig::builder("stencil3d", "opteron", vec![2, 4, 8], 32)
///     .fast_tracer(true)
///     .validate(false)
///     .build();
/// let outcome = engine.run(&cfg)?;
/// assert!(outcome.report.prediction.total_seconds > 0.0);
/// assert!(!outcome.coalesced);
/// // The run's metrics are its own:
/// assert!(outcome.metrics.counters["tracer.blocks_simulated"] > 0);
/// # Ok::<(), xtrace_core::XtraceError>(())
/// ```
pub struct XtraceEngine {
    store: Option<ArtifactStore>,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
}

impl Default for XtraceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl XtraceEngine {
    /// An engine with no artifact store: every cold run recomputes.
    pub fn new() -> Self {
        Self {
            store: None,
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches a shared artifact store rooted at `root`; its in-memory
    /// map lets concurrent sessions serve repeated artifacts from memory.
    pub fn with_store(mut self, root: impl Into<PathBuf>) -> Result<Self> {
        self.store = Some(ArtifactStore::open_shared(root)?);
        Ok(self)
    }

    /// The engine's shared store, when one is attached.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// Distinct config hashes currently executing.
    pub fn in_flight(&self) -> usize {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Callers currently parked waiting to coalesce onto another
    /// caller's execution.
    pub fn waiting(&self) -> usize {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|f| f.waiters.load(Ordering::Acquire))
            .sum()
    }

    /// Runs `config`'s one target through the pipeline, coalescing with
    /// any identical in-flight request: [`XtraceEngine::run_sweep`] over a
    /// sweep of one, as an [`EngineOutcome`].
    ///
    /// The first caller for a given config hash (the *leader*) executes
    /// the pipeline under a fresh journal-enabled [`ObsContext`]; callers
    /// that arrive while it is running await the same execution and get a
    /// clone of its outcome with [`EngineOutcome::coalesced`] set. Calls
    /// arriving after completion start a new flight — with a store
    /// attached, that re-run resolves as cache hits. A multi-target
    /// config is a usage error, raised before joining any flight.
    pub fn run(&self, config: &PipelineConfig) -> Result<EngineOutcome> {
        if config.effective_targets().len() > 1 {
            return Err(XtraceError::Usage(
                "config sweeps multiple targets; use run_sweep".into(),
            ));
        }
        self.run_sweep(config).map(EngineOutcome::from)
    }

    /// Runs every target of `config`'s sweep, coalescing at *both* hash
    /// granularities.
    ///
    /// The sweep's own flight is keyed by its full config hash, so
    /// identical concurrent sweeps share one execution. On top of that
    /// the leader registers one flight per target under that target's
    /// standalone config hash — a single-target [`XtraceEngine::run`]
    /// arriving mid-sweep parks there and receives that target's slice of
    /// the sweep when it lands, instead of redundantly re-collecting the
    /// shared prefix. (The converse is deliberate and simpler: a sweep
    /// never joins an in-flight single-target run — it skips any
    /// per-target key already occupied and still computes every target
    /// itself, warm from the store where possible.) A one-target sweep
    /// hashes identically to the plain single-target config, so the two
    /// spellings share one flight.
    pub fn run_sweep(&self, config: &PipelineConfig) -> Result<SweepOutcome> {
        self.run_sweep_with_observer(config, None)
    }

    /// [`XtraceEngine::run_sweep`] with a progress observer.
    ///
    /// The observer sees stage callbacks only if this caller becomes the
    /// leader; a coalesced caller returns without stage-level progress
    /// (its work happened on another caller's observer).
    pub fn run_sweep_with_observer(
        &self,
        config: &PipelineConfig,
        observer: Option<Box<dyn StageObserver>>,
    ) -> Result<SweepOutcome> {
        let targets = config.effective_targets();
        let key = config.config_hash();
        let (flight, leader) = self.join_or_lead(&key);
        if !leader {
            // The flight may be a wider sweep's per-target flight: keep
            // only this config's targets.
            let outcome = flight.await_value().map_err(|message| {
                XtraceError::Model(format!("coalesced pipeline failed: {message}"))
            })?;
            let reports = targets
                .iter()
                .map(|t| {
                    let i = outcome.sweep.targets.iter().position(|x| x == t);
                    i.map(|i| outcome.sweep.reports[i].clone())
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| XtraceError::Model("coalesced flight lacks a target".into()))?;
            return Ok(SweepOutcome {
                sweep: SweepReport {
                    prefix_hash: outcome.sweep.prefix_hash.clone(),
                    targets,
                    reports,
                    prefix_seconds: outcome.sweep.prefix_seconds,
                },
                metrics: outcome.metrics.clone(),
                journal: outcome.journal.clone(),
                coalesced: true,
            });
        }

        // Leader: additionally open one flight per target under its
        // standalone hash, so mid-sweep single-target callers coalesce.
        // Keys already in flight (a concurrent standalone run, or this
        // very flight for a sweep of one) are skipped, not joined.
        let mut keys = vec![key];
        let mut flights = vec![flight];
        {
            let mut map = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            for &t in &targets {
                let tkey = config.for_target(t).config_hash();
                if let std::collections::hash_map::Entry::Vacant(e) = map.entry(tkey.clone()) {
                    let f = Arc::new(Flight::default());
                    e.insert(Arc::clone(&f));
                    keys.push(tkey);
                    flights.push(f);
                }
            }
        }

        let result = self.execute(config, observer);
        // Retire the flights before publishing: a caller arriving now
        // starts a fresh flight (and, with a store, resumes warm) rather
        // than receiving a stale outcome forever.
        self.retire(&keys);
        let published = match &result {
            Ok(outcome) => Ok(Arc::new(outcome.clone())),
            Err(e) => Err(e.to_string()),
        };
        for f in &flights {
            f.publish(published.clone());
        }
        result
    }

    /// Joins the in-flight execution under `key` as a follower, or opens
    /// a new flight as its leader.
    fn join_or_lead(&self, key: &str) -> (Arc<Flight>, bool) {
        let mut map = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        match map.get(key) {
            Some(flight) => {
                // Registered before the map lock drops, so the leader
                // can observe every follower that will coalesce.
                flight.waiters.fetch_add(1, Ordering::AcqRel);
                (Arc::clone(flight), false)
            }
            None => {
                let flight = Arc::new(Flight::default());
                map.insert(key.to_string(), Arc::clone(&flight));
                (flight, true)
            }
        }
    }

    /// Removes retired flight keys so late arrivals start fresh flights.
    fn retire(&self, keys: &[String]) {
        let mut map = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        for key in keys {
            map.remove(key);
        }
    }

    /// A fresh journal-enabled recorder with the engine's load gauges
    /// (`engine.in_flight`, `engine.waiting`) stamped in — visible in
    /// every outcome's metrics, stripped by [`Snapshot::masked`] since
    /// they depend on concurrent process load, not on the config.
    fn session_recorder(&self) -> Arc<Recorder> {
        let recorder = Recorder::with_journal();
        let m = recorder.metrics();
        m.gauge("engine.in_flight").set(self.in_flight() as u64);
        m.gauge("engine.waiting").set(self.waiting() as u64);
        recorder
    }

    /// One cold execution under a fresh scoped context.
    fn execute(
        &self,
        config: &PipelineConfig,
        observer: Option<Box<dyn StageObserver>>,
    ) -> Result<SweepOutcome> {
        let recorder = self.session_recorder();
        let obs = ObsContext::with_recorder(Arc::clone(&recorder));
        let mut pipeline = Pipeline::new(config.clone())?.with_obs(obs);
        if let Some(store) = &self.store {
            pipeline = pipeline.with_store(store.clone());
        }
        if let Some(observer) = observer {
            pipeline = pipeline.with_observer(observer);
        }
        let sweep = pipeline.run_sweep()?;
        Ok(SweepOutcome {
            sweep,
            metrics: recorder.snapshot(),
            journal: recorder.journal_snapshot(),
            coalesced: false,
        })
    }
}

impl std::fmt::Debug for XtraceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XtraceEngine")
            .field("store", &self.store)
            .field("in_flight", &self.in_flight())
            .field("waiting", &self.waiting())
            .finish()
    }
}
