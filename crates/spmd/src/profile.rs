//! Lightweight MPI profiling — the PSiNSTracer analog.
//!
//! Section IV: "we focus on extrapolating the trace data from the MPI task
//! that consumed the most computational time … identified using a
//! lightweight MPI profiling library based on the PSiNSTracer package."
//! [`profile`] is that pass: it runs the cheap nominal-rate simulation
//! (no cache modeling) to rank tasks by compute demand, and records the
//! communication-event summary that the prediction later replays around the
//! convolved compute time.

use serde::{Deserialize, Serialize};
use xtrace_obs::ObsContext;

use crate::compute::NominalComputeModel;
use crate::critical::CriticalPathReport;
use crate::event::{RankEvent, SpmdApp};
use crate::net::NetworkModel;
use crate::sim::{simulate, simulate_attributed, RankClasses, SimReport};

/// Communication event classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommKind {
    /// Neighbor halo exchange.
    Exchange,
    /// Global reduction.
    Allreduce,
    /// One-to-all broadcast.
    Broadcast,
    /// Personalized all-to-all.
    Alltoall,
    /// Pure synchronization.
    Barrier,
}

/// One (folded) communication event of the profiled task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommEventRecord {
    /// Event class.
    pub kind: CommKind,
    /// Neighbor count (exchanges only; 0 otherwise).
    pub neighbors: u32,
    /// Payload bytes (per neighbor for exchanges, per pair for all-to-all).
    pub bytes: u64,
    /// Folded repetition count.
    pub repeats: u64,
}

/// Communication summary of an application run at one core count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommProfile {
    /// Core count profiled.
    pub nranks: u32,
    /// The most computationally demanding task.
    pub longest_rank: u32,
    /// That task's communication events, in order.
    pub events: Vec<CommEventRecord>,
    /// Max/mean compute-time ratio across ranks (load imbalance).
    pub compute_imbalance: f64,
}

impl CommProfile {
    /// Replays the recorded events through a network model, returning the
    /// communication seconds the profiled task spends.
    pub fn comm_seconds(&self, net: &NetworkModel) -> f64 {
        self.events
            .iter()
            .map(|e| {
                let once = match e.kind {
                    CommKind::Exchange => net.exchange(e.neighbors, e.bytes),
                    CommKind::Allreduce => net.allreduce(self.nranks, e.bytes),
                    CommKind::Broadcast => net.broadcast(self.nranks, e.bytes),
                    CommKind::Alltoall => net.alltoall(self.nranks, e.bytes),
                    CommKind::Barrier => net.barrier(self.nranks),
                };
                once * e.repeats as f64
            })
            .sum()
    }

    /// Total communication events after unfolding repeats.
    pub fn event_count(&self) -> u64 {
        self.events.iter().map(|e| e.repeats).sum()
    }
}

/// Profiles `app` at `nranks` through `net`, returning the communication
/// profile of the most computationally demanding task. The nominal-rate
/// simulation records into `obs`.
///
/// # Panics
///
/// Panics if `app` violates SPMD alignment (see [`SimError`]).
///
/// [`SimError`]: crate::SimError
pub fn profile(
    app: &dyn SpmdApp,
    nranks: u32,
    net: &NetworkModel,
    obs: &ObsContext,
) -> CommProfile {
    let report = RankClasses::try_from_app(app, nranks)
        .and_then(|classes| simulate(&classes, net, &mut NominalComputeModel::default(), obs))
        .expect("SPMD simulation failed");
    summarize(app, nranks, &report)
}

/// [`profile`] additionally returning the critical-path attribution of the
/// nominal-rate simulation. The [`CommProfile`] is bit-identical to the
/// unattributed pass (attribution never perturbs the simulation).
///
/// # Panics
///
/// Panics on the same SPMD violations as [`profile`].
pub fn profile_attributed(
    app: &dyn SpmdApp,
    nranks: u32,
    net: &NetworkModel,
    obs: &ObsContext,
) -> (CommProfile, CriticalPathReport) {
    let (report, critical) = RankClasses::try_from_app(app, nranks)
        .and_then(|classes| {
            simulate_attributed(&classes, net, &mut NominalComputeModel::default(), obs)
        })
        .expect("SPMD simulation failed");
    (summarize(app, nranks, &report), critical)
}

/// Folds a finished simulation into the communication profile of its
/// most computationally demanding task.
fn summarize(app: &dyn SpmdApp, nranks: u32, report: &SimReport) -> CommProfile {
    let longest = report.most_computational_rank();
    let program = app.rank_program(longest, nranks);
    let events = program
        .events
        .iter()
        .filter_map(|e| match e {
            RankEvent::Compute { .. } => None,
            RankEvent::Exchange {
                neighbors,
                bytes_per_neighbor,
                repeats,
            } => Some(CommEventRecord {
                kind: CommKind::Exchange,
                neighbors: neighbors.len() as u32,
                bytes: *bytes_per_neighbor,
                repeats: *repeats,
            }),
            RankEvent::Allreduce { bytes, repeats } => Some(CommEventRecord {
                kind: CommKind::Allreduce,
                neighbors: 0,
                bytes: *bytes,
                repeats: *repeats,
            }),
            RankEvent::Broadcast { bytes, repeats } => Some(CommEventRecord {
                kind: CommKind::Broadcast,
                neighbors: 0,
                bytes: *bytes,
                repeats: *repeats,
            }),
            RankEvent::Alltoall {
                bytes_per_pair,
                repeats,
            } => Some(CommEventRecord {
                kind: CommKind::Alltoall,
                neighbors: 0,
                bytes: *bytes_per_pair,
                repeats: *repeats,
            }),
            RankEvent::Barrier { repeats } => Some(CommEventRecord {
                kind: CommKind::Barrier,
                neighbors: 0,
                bytes: 0,
                repeats: *repeats,
            }),
        })
        .collect();
    CommProfile {
        nranks,
        longest_rank: longest,
        events,
        compute_imbalance: report.compute_imbalance(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RankProgram;
    use xtrace_ir::{AddressPattern, BasicBlock, BlockId, Instruction, MemOp, Program, SourceLoc};

    /// Rank `P-1` does double work; all ranks allreduce then exchange.
    struct LastRankHeavy;
    impl SpmdApp for LastRankHeavy {
        fn name(&self) -> &str {
            "heavy"
        }
        fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram {
            let mut b = Program::builder();
            let r = b.region("a", 4096, 8);
            let iters = if rank == nranks - 1 { 2000 } else { 1000 };
            let blk = b.block(BasicBlock::new(
                BlockId(0),
                "w",
                SourceLoc::new("t.c", 1, "f"),
                iters,
                vec![Instruction::mem(MemOp::Load, r, 8, AddressPattern::unit(8))],
            ));
            let right = (rank + 1) % nranks;
            RankProgram {
                program: b.build().unwrap(),
                events: vec![
                    RankEvent::Compute {
                        block: blk,
                        invocations: 1,
                    },
                    RankEvent::Allreduce {
                        bytes: 8,
                        repeats: 10,
                    },
                    RankEvent::Exchange {
                        neighbors: vec![right],
                        bytes_per_neighbor: 2048,
                        repeats: 5,
                    },
                ],
            }
        }
    }

    fn net() -> NetworkModel {
        NetworkModel::new(1e-6, 1e9)
    }

    #[test]
    fn finds_the_heavy_rank() {
        let prof = profile(&LastRankHeavy, 8, &net(), &ObsContext::disabled());
        assert_eq!(prof.longest_rank, 7);
        assert_eq!(prof.nranks, 8);
    }

    #[test]
    fn records_comm_events_in_order() {
        let prof = profile(&LastRankHeavy, 8, &net(), &ObsContext::disabled());
        assert_eq!(prof.events.len(), 2);
        assert_eq!(prof.events[0].kind, CommKind::Allreduce);
        assert_eq!(prof.events[0].repeats, 10);
        assert_eq!(prof.events[1].kind, CommKind::Exchange);
        assert_eq!(prof.events[1].neighbors, 1);
        assert_eq!(prof.event_count(), 15);
    }

    #[test]
    fn comm_seconds_replays_costs() {
        let prof = profile(&LastRankHeavy, 8, &net(), &ObsContext::disabled());
        let expected = net().allreduce(8, 8) * 10.0 + net().exchange(1, 2048) * 5.0;
        assert!((prof.comm_seconds(&net()) - expected).abs() < 1e-12);
    }

    #[test]
    fn imbalance_is_captured() {
        let prof = profile(&LastRankHeavy, 8, &net(), &ObsContext::disabled());
        // 7 ranks at 1.0, one at 2.0: mean 9/8, max 2 -> 16/9.
        assert!((prof.compute_imbalance - 16.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn attributed_profile_matches_plain_and_carries_the_path() {
        let plain = profile(&LastRankHeavy, 8, &net(), &ObsContext::disabled());
        let (prof, critical) =
            profile_attributed(&LastRankHeavy, 8, &net(), &ObsContext::disabled());
        assert_eq!(prof, plain, "attribution must not perturb the profile");
        assert_eq!(critical.nranks, 8);
        assert_eq!(critical.share_sum_bp(), 10_000);
        assert!(critical.bottleneck().is_some());
    }

    #[test]
    fn profile_serializes() {
        let prof = profile(&LastRankHeavy, 4, &net(), &ObsContext::disabled());
        let s = serde_json::to_string(&prof).unwrap();
        let back: CommProfile = serde_json::from_str(&s).unwrap();
        assert_eq!(back.events, prof.events);
        assert_eq!(back.nranks, prof.nranks);
        assert_eq!(back.longest_rank, prof.longest_rank);
        // Floats may shift by an ulp through JSON.
        assert!((back.compute_imbalance - prof.compute_imbalance).abs() < 1e-12);
    }
}
