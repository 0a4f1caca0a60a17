//! Rank programs: what one MPI task does, start to finish.

use serde::{Deserialize, Serialize};
use xtrace_ir::{BlockId, Program};

/// One step of a rank's execution script.
///
/// Communication events carry a `repeats` count so a timestep loop that
/// performs the same exchange thousands of times stays a single event; the
/// simulator charges `repeats` times the per-event cost but synchronizes
/// clocks once per event (a bulk-synchronous approximation that is exact
/// when the repeated phases are load-balanced).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RankEvent {
    /// Invoke a basic block of the rank's program `invocations` times.
    Compute {
        /// Block to run (an id in this rank's [`RankProgram::program`]).
        block: BlockId,
        /// Number of invocations.
        invocations: u64,
    },
    /// Halo exchange with a fixed neighbor set (sendrecv per neighbor).
    Exchange {
        /// Ranks exchanged with.
        neighbors: Vec<u32>,
        /// Bytes sent to (and received from) each neighbor.
        bytes_per_neighbor: u64,
        /// Occurrences folded into this event.
        repeats: u64,
    },
    /// Global reduction returning the result everywhere.
    Allreduce {
        /// Payload bytes.
        bytes: u64,
        /// Occurrences folded into this event.
        repeats: u64,
    },
    /// One-to-all broadcast.
    Broadcast {
        /// Payload bytes.
        bytes: u64,
        /// Occurrences folded into this event.
        repeats: u64,
    },
    /// Personalized all-to-all.
    Alltoall {
        /// Bytes each rank sends to each other rank.
        bytes_per_pair: u64,
        /// Occurrences folded into this event.
        repeats: u64,
    },
    /// Pure synchronization.
    Barrier {
        /// Occurrences folded into this event.
        repeats: u64,
    },
}

impl RankEvent {
    /// True for communication (non-compute) events.
    pub fn is_comm(&self) -> bool {
        !matches!(self, RankEvent::Compute { .. })
    }

    /// Discriminant used to check SPMD alignment across ranks.
    pub fn kind_tag(&self) -> u8 {
        match self {
            RankEvent::Compute { .. } => 0,
            RankEvent::Exchange { .. } => 1,
            RankEvent::Allreduce { .. } => 2,
            RankEvent::Broadcast { .. } => 3,
            RankEvent::Alltoall { .. } => 4,
            RankEvent::Barrier { .. } => 5,
        }
    }
}

/// Everything one MPI task executes: its memory image and block set
/// (`program`) plus the ordered event script (`events`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankProgram {
    /// The rank's code and data (regions sized for *this* rank at *this*
    /// core count — where strong scaling lives).
    pub program: Program,
    /// Ordered execution script.
    pub events: Vec<RankEvent>,
}

impl RankProgram {
    /// Checks internal consistency: every `Compute` event must reference a
    /// block of this rank's program, and every communication event must
    /// have sane parameters. Returns a description of the first violation.
    pub fn validate(&self, nranks: u32) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            match e {
                RankEvent::Compute { block, .. }
                    if block.index() >= self.program.blocks().len() =>
                {
                    return Err(format!(
                        "event {i}: Compute references unknown block {block}"
                    ));
                }
                RankEvent::Exchange { neighbors, .. } => {
                    for &n in neighbors {
                        if n >= nranks {
                            return Err(format!(
                                "event {i}: Exchange neighbor {n} out of range for {nranks}"
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Total dynamic memory references the script generates.
    pub fn total_mem_refs(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                RankEvent::Compute { block, invocations } => {
                    self.program.block(*block).mem_refs_per_invocation() * invocations
                }
                _ => 0,
            })
            .sum()
    }

    /// Total dynamic FLOPs the script generates.
    pub fn total_flops(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                RankEvent::Compute { block, invocations } => {
                    self.program.block(*block).flops_per_invocation() * invocations
                }
                _ => 0,
            })
            .sum()
    }
}

/// A deterministic SPMD application: proxy apps implement this, and the
/// tracer/profiler/simulator drive it.
///
/// `rank_program(rank, nranks)` must return the same value every time it is
/// called with the same arguments, and every rank's event list must have the
/// same shape (length and [`RankEvent::kind_tag`] sequence).
///
/// `Sync` is a supertrait so rank programs can be materialized and replayed
/// from a rayon fan-out; implementors are plain problem descriptions, so
/// this costs nothing.
pub trait SpmdApp: Sync {
    /// Application name, used to label traces and experiment output.
    fn name(&self) -> &str;

    /// Builds the program rank `rank` of `nranks` executes.
    fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram;

    /// Optional cheap rank-equivalence key enabling class deduplication in
    /// the engine (`sim::RankClasses`).
    ///
    /// Contract: two ranks returning equal `Some` keys must produce
    /// [`SpmdApp::rank_program`]s that are identical *except* for the
    /// neighbor lists of their `Exchange` events (which come from
    /// [`SpmdApp::exchange_partners`] instead). Keys are opaque — only
    /// equality matters. Return `None` (the default) to opt out; the
    /// engine then falls back to materializing every rank's program and
    /// grouping by structural equality, which is still correct but costs
    /// O(nranks) program builds.
    ///
    /// In debug builds the engine cross-checks the key against fully
    /// materialized programs, so a key that merges unequal ranks fails
    /// loudly rather than silently mispredicting.
    fn rank_class(&self, _rank: u32, _nranks: u32) -> Option<u64> {
        None
    }

    /// Every rank's `Exchange` neighbor lists for a job of `nranks`: the
    /// outer vector is indexed by rank, and each rank's entry holds one
    /// list per `Exchange` event in script order.
    ///
    /// This is the only part of a rank's script allowed to differ within a
    /// [`SpmdApp::rank_class`] equivalence class, so the engine asks for it
    /// separately, once per job — a decomposition that is set up per job
    /// (say, factoring the process grid) is paid once, not once per rank.
    /// The default extracts the lists from a full [`SpmdApp::rank_program`]
    /// build of every rank — correct, but it defeats the point of class
    /// dedup; override it (cheaply) together with `rank_class`.
    fn exchange_partners(&self, nranks: u32) -> Vec<Vec<Vec<u32>>> {
        (0..nranks)
            .map(|rank| exchange_lists(&self.rank_program(rank, nranks)))
            .collect()
    }
}

/// The `Exchange` neighbor lists of a program, in script order.
pub(crate) fn exchange_lists(p: &RankProgram) -> Vec<Vec<u32>> {
    p.events
        .iter()
        .filter_map(|e| match e {
            RankEvent::Exchange { neighbors, .. } => Some(neighbors.clone()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace_ir::{AddressPattern, BasicBlock, FpOp, Instruction, MemOp, SourceLoc};

    fn sample() -> RankProgram {
        let mut b = Program::builder();
        let r = b.region("field", 1 << 12, 8);
        let blk = b.block(BasicBlock::new(
            BlockId(0),
            "sweep",
            SourceLoc::new("app.f90", 10, "step"),
            8,
            vec![
                Instruction::mem(MemOp::Load, r, 8, AddressPattern::unit(8)),
                Instruction::fp(FpOp::Fma).with_repeat(2),
            ],
        ));
        RankProgram {
            program: b.build().unwrap(),
            events: vec![
                RankEvent::Compute {
                    block: blk,
                    invocations: 5,
                },
                RankEvent::Exchange {
                    neighbors: vec![1],
                    bytes_per_neighbor: 1024,
                    repeats: 5,
                },
                RankEvent::Allreduce {
                    bytes: 8,
                    repeats: 5,
                },
            ],
        }
    }

    #[test]
    fn totals_accumulate_over_events() {
        let rp = sample();
        // 5 invocations × 8 iterations × 1 mem instr.
        assert_eq!(rp.total_mem_refs(), 40);
        // 5 × 8 × 2 FMA × 2 flops.
        assert_eq!(rp.total_flops(), 160);
    }

    #[test]
    fn comm_classification() {
        let rp = sample();
        assert!(!rp.events[0].is_comm());
        assert!(rp.events[1].is_comm());
        assert!(rp.events[2].is_comm());
        assert_eq!(rp.events[0].kind_tag(), 0);
        assert_ne!(rp.events[1].kind_tag(), rp.events[2].kind_tag());
    }

    #[test]
    fn validate_accepts_well_formed_programs() {
        sample().validate(4).unwrap();
    }

    #[test]
    fn validate_rejects_dangling_block() {
        let mut rp = sample();
        rp.events[0] = RankEvent::Compute {
            block: BlockId(99),
            invocations: 1,
        };
        assert!(rp.validate(4).unwrap_err().contains("unknown block"));
    }

    #[test]
    fn validate_rejects_out_of_range_neighbor() {
        let rp = sample();
        // Neighbor 1 is invalid in a 1-rank world.
        assert!(rp.validate(1).unwrap_err().contains("out of range"));
    }

    #[test]
    fn serde_roundtrip() {
        let rp = sample();
        let s = serde_json::to_string(&rp).unwrap();
        let back: RankProgram = serde_json::from_str(&s).unwrap();
        assert_eq!(back, rp);
    }
}
