//! # xtrace-obs — structured observability for the xtrace pipeline
//!
//! The pipeline's scaling PRs (parallel collection, rank-class dedup,
//! memoized convolution) each earn their keep through counters — memo hit
//! rates, classes found, cache hits — that until now were only visible by
//! rerunning a bench binary. This crate makes that telemetry first-class:
//!
//! * **Spans** ([`Recorder`], [`SpanRecord`]): named, monotonic-timed
//!   scopes with by-name nesting (stage → phase → kernel), recorded in
//!   completion order.
//! * **Metrics** ([`Metrics`], [`Counter`], [`Gauge`], [`Histogram`]):
//!   a registry of named counters, gauges, and log2-bucketed histograms.
//!   Registration does the `String` work once; recording through a handle
//!   is a single relaxed atomic operation, cheap enough for hot kernels.
//! * **Exporters** ([`Snapshot`]): an in-memory snapshot for tests and
//!   benches, JSON for the CLI's `--metrics-out`, and a human-readable
//!   table.
//! * **Event journal** ([`Journal`], [`JournalEvent`]): an append-only,
//!   bounded, seq-numbered stream of fine-grained begin/end/instant
//!   events (per-count collects, per-element fit decisions, rank-class
//!   compute/exchange attribution), exportable as JSONL or — via
//!   [`chrome_trace`] — as a Chrome Trace Event Format `trace.json` for
//!   Perfetto. Off by default: only a [`Recorder::with_journal`]
//!   recorder buffers events; any other context vends the same
//!   one-relaxed-load no-op [`JournalHandle`].
//! * **Benchmark verdicts** ([`judge`], [`PerfbenchRun`], [`HistoryRow`]):
//!   robust z-score + sliding-median changepoint verdicts of perfbench
//!   runs against like-for-like `BENCH_history.jsonl` rows, with each
//!   metric's direction and bound from `BENCHMARK.json`, backing
//!   `xtrace bench-verdict`.
//! * **Fit diagnostics** ([`FitDiagnostics`]): the per-element
//!   canonical-form selection record (candidate SSE/R², residuals,
//!   extrapolation distance) persisted through the artifact store and
//!   rendered by `xtrace report`.
//!
//! ## Scoped contexts and the zero-cost default
//!
//! Observability is carried by an explicit [`ObsContext`] — a cheap-clone
//! handle bundling recorder + metrics + journal — threaded through the
//! pipeline and down into every emission site. Kernels fetch
//! [`ObsContext::metrics`] *once at entry* and carry the handles into
//! their loops. A disabled context makes every handle a no-op — the
//! `NullRecorder` fast path. Predictions are bit-identical with and
//! without a live recorder (`tests/observability.rs`), and every engine
//! run records, so perfbench's `op_p50_ms` bound gates the cost. Because contexts are plain values, N pipelines in one
//! process each record into their own snapshot with no shared state and
//! no test serialization:
//!
//! ```
//! use xtrace_obs::{ObsContext, Recorder};
//!
//! let obs = ObsContext::with_recorder(Recorder::new());
//! obs.metrics().counter("demo.events").add(2);
//! assert_eq!(obs.snapshot().unwrap().counters["demo.events"], 2);
//! assert!(!ObsContext::disabled().metrics().enabled());
//! ```
//!
//! There is no process-global recorder: the historical ambient
//! `install()`/`metrics()`/`journal()` shims went through their
//! deprecation cycle and are gone. Convenience wrappers that take no
//! context run with [`ObsContext::disabled`]; anything that should be
//! observed takes (or is run under) an explicit context.
//!
//! ## Naming conventions
//!
//! Dotted lowercase names, `<subsystem>.<what>`: `tracer.sig_memo.hits`,
//! `store.misses`, `extrap.fit_wins.logarithmic`, `spmd.rank_classes`,
//! `spmd.events_stepped`. Metrics whose values legitimately depend
//! on scheduling (parallel vs serial path, chunk counts) carry the
//! reserved [`SCHED_PREFIX`] (`sched.`) and are stripped by
//! [`Snapshot::masked`], so everything else must be bit-stable across
//! thread counts.

#![warn(missing_docs)]

mod anomaly;
mod chrome;
mod context;
mod diagnostics;
mod export;
mod journal;
mod metrics;
mod span;

pub use anomaly::{
    end_to_end_metrics, history_rows, judge, Better, EndToEndMetric, HistoryRow, PerfbenchRun,
    Verdict,
};
pub use chrome::chrome_trace;
pub use context::ObsContext;
pub use diagnostics::{CandidateFit, ElementDiagnostics, FitDiagnostics};
pub use export::{BucketCount, HistogramSnapshot, Snapshot};
pub use journal::{
    EventPhase, Journal, JournalEvent, JournalHandle, JournalSnapshot, DEFAULT_JOURNAL_CAPACITY,
    SCHED_EVENT_PREFIX,
};
pub use metrics::{Counter, Gauge, Histogram, Metrics, ENGINE_PREFIX, SCHED_PREFIX};
pub use span::{Recorder, SpanGuard, SpanRecord, STAGE_PARENT};
