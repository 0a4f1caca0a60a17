//! # xtrace-tracer — execution-driven application-signature collection
//!
//! This crate is the reproduction's PEBIL + on-the-fly cache simulation
//! pipeline (the paper's Figure 2): for a chosen MPI task it interprets the
//! rank's program, streams every memory reference through a cache hierarchy
//! configured like the *target* machine, and aggregates the results into
//! per-basic-block, per-instruction **feature vectors** — the application
//! signature:
//!
//! 1. amount and composition of floating-point work,
//! 2. number of memory operations (loads/stores),
//! 3. size of memory operations,
//! 4. cache hit rates in all levels of the target system,
//! 5. working-set size,
//!
//! (Section III-B's enumeration) plus execution counts and the block's ILP.
//!
//! Like the real pipeline, nothing is stored per access — the address
//! stream ("over 2 TB of data per hour" per process at full fidelity) is
//! consumed as it is produced. Long-running blocks are *sampled*: dynamic
//! operation counts are exact (they come from the program structure), and
//! hit rates are measured over a bounded prefix of the block's address
//! stream, which converges because blocks are in steady state after their
//! first region sweep.
//!
//! # Parallelism model
//!
//! The unit of parallel work is the **basic block**. Every folded block of
//! a rank owns a private [`xtrace_cache::CacheHierarchy`], so block
//! simulations share no mutable state and [`collect_task_trace`] fans out
//! over them with rayon; [`collect_ranks`] adds a second fan-out across
//! ranks. Results are deterministic at any thread count: the parallel
//! collects are ordered (output position is fixed by input position, not
//! completion time), every address stream is seeded from `(rank, block,
//! instruction)` alone, and the per-block sampling windows do not depend on
//! scheduling. The cost of giving each block a cold private cache is
//! absorbed by the existing warmup window, which was already discarding the
//! start-of-sample transient; the per-block and shared-cache formulations
//! agree within sampling tolerance (asserted in `collect`'s tests).
//!
//! On top of the fan-out sits [`SigMemo`], a content-addressed memo of
//! block simulations: SPMD ranks run structurally identical blocks, and
//! only `Random`-pattern instructions consume the per-rank stream seed, so
//! deterministic blocks are simulated once per job instead of once per
//! rank. Each memo key's simulation runs exactly once even under
//! contention, and a memo answer is bit-identical to recomputing, so
//! memoization is invisible in the output.
//!
//! Collection has one call per capability, each taking the memo and the
//! observability context explicitly: [`collect_signature_memo_obs`]
//! traces the most computationally demanding task (identified by the
//! `xtrace-spmd` profiling pass), [`collect_task_trace`] traces one given
//! rank (memo optional), and [`collect_ranks`] traces any subset of ranks
//! in parallel for the clustering extension. A one-off collection passes
//! `&SigMemo::new()` and `&ObsContext::disabled()`.

#![warn(missing_docs)]

pub mod codec;
pub mod collect;
pub mod columnar;
pub mod io;
pub mod memo;
pub mod sig;

pub use collect::{
    collect_ranks, collect_signature_memo_obs, collect_task_trace, rank_stream_seed,
    rank_stream_seed_for, TracerConfig,
};
pub use columnar::{FeatureMatrix, TraceColumns, SCALAR_FEATURES};
pub use io::{
    from_bytes, load_json, parse_json, save_json, to_bytes, to_bytes_obs, to_bytes_v1,
    trace_json_string, v1_encoded_len, CodecError, IoError, JSON_FORMAT, JSON_VERSION,
};
pub use memo::SigMemo;
pub use sig::{AppSignature, BlockRecord, FeatureId, FeatureVector, InstrRecord, TaskTrace};
