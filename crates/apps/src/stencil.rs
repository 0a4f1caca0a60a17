//! A minimal 3-D Jacobi relaxation proxy.
//!
//! Two blocks (a stencil sweep and a residual reduction), one halo
//! exchange, one allreduce. Used by examples, tests, and benches that need
//! a strong-scaling SPMD app without the full SPECFEM/UH3D structure.

use serde::{Deserialize, Serialize};
use xtrace_ir::{
    AddressPattern, BasicBlock, BlockId, FpOp, Instruction, MemOp, Program, SourceLoc,
};
use xtrace_spmd::{RankEvent, RankProgram, SpmdApp};

use crate::decomp::{factor3, neighbors6, scaled_share, ScalingMode};
/// Global problem description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StencilConfig {
    /// Total grid cells.
    pub grid_cells: u64,
    /// Sweeps (timesteps).
    pub timesteps: u64,
    /// Strong (fixed global grid) or weak (fixed per-rank grid) scaling.
    pub scaling: ScalingMode,
}

/// The proxy application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StencilProxy {
    /// Problem description.
    pub cfg: StencilConfig,
}

impl StencilProxy {
    /// A mid-sized configuration (64 MiB of state).
    pub fn medium() -> Self {
        Self {
            cfg: StencilConfig {
                grid_cells: 8 * 1024 * 1024,
                timesteps: 10,
                scaling: ScalingMode::Strong,
            },
        }
    }

    /// Tiny configuration for tests.
    pub fn small() -> Self {
        Self {
            cfg: StencilConfig {
                grid_cells: 4096,
                timesteps: 3,
                scaling: ScalingMode::Strong,
            },
        }
    }
}

impl SpmdApp for StencilProxy {
    fn name(&self) -> &str {
        "stencil3d-proxy"
    }

    fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram {
        let cells = scaled_share(self.cfg.grid_cells, rank, nranks, self.cfg.scaling).max(1);
        let nx = (cells as f64).cbrt().ceil() as u64;

        let mut b = Program::builder();
        let grid = b.region("grid", cells * 8, 8);
        let next = b.region("next", cells * 8, 8);

        let sweep = b.block(
            BasicBlock::new(
                BlockId(0),
                "jacobi-sweep",
                SourceLoc::new("jacobi.c", 41, "sweep"),
                cells,
                vec![
                    Instruction::mem(
                        MemOp::Load,
                        grid,
                        8,
                        AddressPattern::Stencil {
                            points: 7,
                            plane: nx * 8,
                        },
                    )
                    .with_repeat(7),
                    Instruction::fp(FpOp::Add).with_repeat(6),
                    Instruction::fp(FpOp::Mul),
                    Instruction::mem(MemOp::Store, next, 8, AddressPattern::unit(8)),
                ],
            )
            .with_ilp(3.0),
        );

        let residual = b.block(
            BasicBlock::new(
                BlockId(0),
                "residual",
                SourceLoc::new("jacobi.c", 77, "residual"),
                cells,
                vec![
                    Instruction::mem(MemOp::Load, grid, 8, AddressPattern::unit(8)),
                    Instruction::mem(MemOp::Load, next, 8, AddressPattern::unit(8)),
                    Instruction::fp(FpOp::Fma),
                ],
            )
            .with_ilp(2.0),
        );

        let program = b.build().expect("stencil proxy program is valid");
        let ts = self.cfg.timesteps;
        RankProgram {
            program,
            events: vec![
                RankEvent::Compute {
                    block: sweep,
                    invocations: ts,
                },
                RankEvent::Exchange {
                    neighbors: neighbors6(rank, factor3(nranks)),
                    bytes_per_neighbor: nx * nx * 8,
                    repeats: ts,
                },
                RankEvent::Compute {
                    block: residual,
                    invocations: ts,
                },
                RankEvent::Allreduce {
                    bytes: 8,
                    repeats: ts,
                },
            ],
        }
    }

    /// Programs depend only on the rank's cell share, which takes at most
    /// two values (remainder ranks get one extra cell).
    fn rank_class(&self, rank: u32, nranks: u32) -> Option<u64> {
        let cells = scaled_share(self.cfg.grid_cells, rank, nranks, self.cfg.scaling).max(1);
        let last = scaled_share(self.cfg.grid_cells, nranks - 1, nranks, self.cfg.scaling).max(1);
        Some(u64::from(cells != last))
    }

    fn exchange_partners(&self, nranks: u32) -> Vec<Vec<Vec<u32>>> {
        let dims = factor3(nranks);
        (0..nranks)
            .map(|rank| vec![neighbors6(rank, dims)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_rank_cells_shrink_with_p() {
        let app = StencilProxy::medium();
        let c2 = app.rank_program(0, 2).program.footprint_bytes();
        let c16 = app.rank_program(0, 16).program.footprint_bytes();
        assert!((c2 as f64 / c16 as f64 - 8.0).abs() < 0.1);
    }

    #[test]
    fn program_has_two_blocks() {
        let prog = StencilProxy::small().rank_program(0, 4).program;
        assert!(prog.block_by_name("jacobi-sweep").is_some());
        assert!(prog.block_by_name("residual").is_some());
    }

    #[test]
    fn total_work_is_independent_of_p_up_to_remainders() {
        let app = StencilProxy::medium();
        let total = |p: u32| -> u64 {
            (0..p)
                .map(|r| app.rank_program(r, p).total_mem_refs())
                .sum()
        };
        let t4 = total(4);
        let t8 = total(8);
        let rel = (t4 as f64 - t8 as f64).abs() / t4 as f64;
        assert!(rel < 0.01, "strong scaling conserves total work: {rel}");
    }

    #[test]
    fn rank_classes_match_materialized_grouping() {
        use crate::test_support::assert_classes_match_materialized;
        let app = StencilProxy::small();
        // 4096 cells over 7, 80, 96 or 384 ranks leaves a remainder.
        for p in [1u32, 2, 7, 8, 80, 96, 384] {
            let fast = assert_classes_match_materialized(&app, p);
            assert!(fast.num_classes() <= 2, "p={p}");
        }
    }
}
