//! # xtrace-spmd — SPMD message-passing simulation and profiling
//!
//! The paper's applications are MPI programs on a Cray XT5; this crate is
//! the message-passing substrate of the reproduction. It provides:
//!
//! * [`event::RankProgram`] / [`event::RankEvent`] — the per-task execution
//!   script: compute segments (basic-block invocations, handled by
//!   `xtrace-ir`) interleaved with communication operations (halo
//!   exchanges, reductions, broadcasts, all-to-alls, barriers);
//! * [`event::SpmdApp`] — the interface proxy applications implement: a
//!   deterministic map from `(rank, nranks)` to a rank program;
//! * [`net::NetworkModel`] — a latency/bandwidth (α–β) network cost model
//!   with logarithmic-tree collective costs, the communication half of the
//!   PMaC machine profile;
//! * [`sim`] — a bulk-synchronous discrete-event engine that advances
//!   per-rank clocks through the event lists, synchronizing at
//!   communication points, given any [`compute::ComputeModel`];
//! * [`critical::CriticalPathReport`] — per-superstep critical-path
//!   attribution: which (rank-class, phase) segments bound the simulated
//!   clock, with blocking-partner edges and exact-10 000-bp path shares;
//! * [`profile()`] — the PSiNSTracer analog: a lightweight pass that finds
//!   "the MPI task that consumed the most computational time" (Section IV)
//!   and summarizes the communication events the prediction replays.
//!
//! The engine assumes SPMD alignment: every rank executes the same event
//! *shape* (kinds, in the same order), which holds for the proxy apps by
//! construction and is the same assumption trace-extrapolation work such as
//! ScalaExtrap makes.

#![warn(missing_docs)]

pub mod compute;
pub mod critical;
pub mod event;
pub mod net;
pub mod profile;
pub mod sim;

pub use compute::{ComputeModel, NominalComputeModel};
pub use critical::{
    BlockingEdge, CriticalPathReport, PathPhase, PathSegment, CRITICAL_PATH_VERSION,
};
pub use event::{RankEvent, RankProgram, SpmdApp};
pub use net::NetworkModel;
pub use profile::{profile, profile_attributed, CommEventRecord, CommKind, CommProfile};
pub use sim::{
    simulate, simulate_attributed, simulate_naive, simulate_timeline, RankClasses, RankTimes,
    SimError, SimReport, TimelineEntry,
};
