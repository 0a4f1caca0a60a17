//! UH3D proxy: hybrid particle-in-cell magnetosphere simulation.
//!
//! UH3D "treats the ions as particles and the electrons as a fluid"; the
//! proxy mirrors that hybrid structure:
//!
//! 1. **`particle-push`** — ion advance: strided particle reads/writes,
//!    random E/B field gathers, and a random gather into the per-rank slice
//!    of a plasma-moment table. Under strong scaling the gathered regions
//!    shrink like `1/P`, so the gathers' cache hit rates *rise roughly
//!    linearly with the core count* — the behaviour the paper's Figure 4
//!    fits with the linear canonical form.
//! 2. **`current-deposit`** — scatter of particle currents onto the grid.
//! 3. **`field-stencil`** — the electron-fluid / electromagnetic field
//!    update: a multi-plane stencil sweep over the field arrays mixed with
//!    an irregular boundary lookup. This is the Table II block: its
//!    footprint drops through L3 and L2 as the core count grows.
//! 4. **`particle-sort`** — bucket exchange whose trip count grows with
//!    ⌈log₂ P⌉ (tree-staged binning); its memory-operation count follows
//!    the logarithmic form, the paper's Figure 5.
//! 5. **`diag-energy`** — field-energy diagnostic sweep.
//! 6. **`master-viz`** — the master rank's aggregation of per-task moment
//!    summaries for visualization output (the UH3D reference describes
//!    exactly this pipeline: "visualization strategies for analysis of very
//!    large multi-variate data sets"). Its trip count grows *linearly with
//!    P* — aggregating from every task — over a constant-footprint staging
//!    buffer, making rank 0 the most computationally demanding task at
//!    every core count with element behaviour squarely inside the span of
//!    the four canonical forms (see the `specfem` module docs for why the
//!    longest task must look like this for the methodology to work).
//!
//! Communication per step: particle migration and field halo exchanges with
//! the six face neighbors, plus a diagnostics allreduce.

use serde::{Deserialize, Serialize};
use xtrace_ir::{
    AddressPattern, BasicBlock, BlockId, FpOp, Instruction, MemOp, Program, SourceLoc,
};
use xtrace_spmd::{NetworkModel, RankEvent, RankProgram, SpmdApp};

use crate::decomp::{factor3, neighbors6, scaled_share, ScalingMode};
/// Global problem description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Uh3dConfig {
    /// Total ion macro-particles.
    pub total_particles: u64,
    /// Total field grid cells.
    pub grid_cells: u64,
    /// Total bytes of the plasma-moment lookup table (domain-decomposed
    /// like the grid).
    pub moment_table_bytes: u64,
    /// Timesteps simulated.
    pub timesteps: u64,
    /// Base trip count of the `particle-sort` block (scaled by ⌈log₂ P⌉).
    pub sort_base: u64,
    /// Per-task trips of the master's `master-viz` block (total trips =
    /// `viz_per_rank × P`).
    pub viz_per_rank: u64,
    /// Master visualization staging buffer bytes (constant in P).
    pub viz_buf_bytes: u64,
    /// Strong (fixed global problem) or weak (fixed per-rank problem)
    /// scaling.
    pub scaling: ScalingMode,
}

/// The proxy application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Uh3dProxy {
    /// Problem description.
    pub cfg: Uh3dConfig,
}

/// Bytes per macro-particle (position, velocity, weight, species).
const PARTICLE_BYTES: u64 = 64;
/// Bytes per grid cell across the six E/B field components.
const FIELD_CELL_BYTES: u64 = 48;
/// Bytes per grid cell of the current-density array (three components).
const CURRENT_CELL_BYTES: u64 = 24;

impl Uh3dProxy {
    /// Full-scale configuration (traced at 1024/2048/4096, evaluated at
    /// 8192 — the paper's Table I row).
    pub fn paper_scale() -> Self {
        Self {
            cfg: Uh3dConfig {
                total_particles: 1 << 31,    // ~2.1e9 ions
                grid_cells: 1 << 29,         // ~5.4e8 cells -> 24 GiB of fields
                moment_table_bytes: 4 << 30, // 4 GiB moment table
                timesteps: 212,
                sort_base: 1 << 21,
                viz_per_rank: 1 << 17,
                viz_buf_bytes: 64 * 1024 * 1024,
                scaling: ScalingMode::Strong,
            },
        }
    }

    /// Tiny configuration for tests and examples.
    pub fn small() -> Self {
        Self {
            cfg: Uh3dConfig {
                total_particles: 4096,
                grid_cells: 2048,
                moment_table_bytes: 256 * 1024,
                timesteps: 4,
                sort_base: 32,
                viz_per_rank: 16,
                viz_buf_bytes: 128 * 1024,
                scaling: ScalingMode::Strong,
            },
        }
    }

    /// Particles owned by a rank.
    pub fn particles_of(&self, rank: u32, nranks: u32) -> u64 {
        scaled_share(self.cfg.total_particles, rank, nranks, self.cfg.scaling).max(1)
    }

    /// Grid cells owned by a rank.
    pub fn cells_of(&self, rank: u32, nranks: u32) -> u64 {
        scaled_share(self.cfg.grid_cells, rank, nranks, self.cfg.scaling).max(1)
    }
}

impl SpmdApp for Uh3dProxy {
    fn name(&self) -> &str {
        "uh3d-proxy"
    }

    fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram {
        let cfg = &self.cfg;
        let parts = self.particles_of(rank, nranks);
        let cells = self.cells_of(rank, nranks);
        let moment_bytes = match cfg.scaling {
            ScalingMode::Strong => (cfg.moment_table_bytes / u64::from(nranks)).max(4096),
            ScalingMode::Weak => cfg.moment_table_bytes.max(4096),
        };
        // Subgrid edge length (cells are a near-cube).
        let nx = (cells as f64).cbrt().ceil() as u64;

        let mut b = Program::builder();
        let particles = b.region("particles", parts * PARTICLE_BYTES, 8);
        let field = b.region("field", cells * FIELD_CELL_BYTES, 8);
        let current = b.region("current", cells * CURRENT_CELL_BYTES, 8);
        let moments = b.region("moments", moment_bytes, 8);
        let viz_buf = b.region("viz-buf", cfg.viz_buf_bytes, 8);
        // Radix staging buckets for the particle sort: sized by the bin
        // count, not the particle population — constant in P.
        let sort_buckets = b.region("sort-buckets", 32 * 1024 * 1024, 8);

        let unit = AddressPattern::unit(8);
        let particle_stride = AddressPattern::Strided {
            stride: PARTICLE_BYTES,
        };

        let push = b.block(
            BasicBlock::new(
                BlockId(0),
                "particle-push",
                SourceLoc::new("push.f90", 205, "push_ions"),
                parts,
                vec![
                    Instruction::mem(MemOp::Load, particles, 8, particle_stride).with_repeat(2),
                    Instruction::mem(MemOp::Load, field, 8, AddressPattern::Random).with_repeat(2),
                    Instruction::mem(MemOp::Load, moments, 8, AddressPattern::Random),
                    Instruction::fp(FpOp::Fma).with_repeat(12),
                    Instruction::fp(FpOp::Div),
                    Instruction::mem(MemOp::Store, particles, 8, particle_stride).with_repeat(2),
                ],
            )
            .with_ilp(2.0),
        );

        let deposit = b.block(
            BasicBlock::new(
                BlockId(0),
                "current-deposit",
                SourceLoc::new("deposit.f90", 77, "deposit_current"),
                parts,
                vec![
                    Instruction::mem(MemOp::Load, particles, 8, particle_stride),
                    Instruction::mem(MemOp::Store, current, 8, AddressPattern::Random)
                        .with_repeat(3),
                    Instruction::fp(FpOp::Add).with_repeat(3),
                    Instruction::fp(FpOp::Mul).with_repeat(2),
                ],
            )
            .with_ilp(1.5),
        );

        let stencil = b.block(
            BasicBlock::new(
                BlockId(0),
                "field-stencil",
                SourceLoc::new("field.f90", 410, "advance_fields"),
                cells,
                vec![
                    Instruction::mem(
                        MemOp::Load,
                        field,
                        8,
                        AddressPattern::Stencil {
                            points: 6,
                            plane: nx * 8,
                        },
                    )
                    .with_repeat(6),
                    Instruction::mem(MemOp::Load, field, 8, AddressPattern::Random),
                    Instruction::mem(MemOp::Load, current, 8, unit),
                    Instruction::fp(FpOp::Fma).with_repeat(6),
                    Instruction::fp(FpOp::Mul).with_repeat(2),
                    Instruction::mem(MemOp::Store, field, 8, unit),
                ],
            )
            .with_ilp(2.5),
        );

        // Tree-staged bucket binning: one particle sweep per tree stage.
        let log_p = u64::from(NetworkModel::tree_depth(nranks)).max(1);
        let sort = b.block(
            BasicBlock::new(
                BlockId(0),
                "particle-sort",
                SourceLoc::new("sort.f90", 33, "bin_particles"),
                cfg.sort_base * log_p,
                vec![
                    Instruction::mem(MemOp::Load, sort_buckets, 8, unit),
                    Instruction::mem(MemOp::Store, sort_buckets, 8, unit),
                    Instruction::fp(FpOp::Add),
                ],
            )
            .with_ilp(1.0),
        );

        let diag = b.block(
            BasicBlock::new(
                BlockId(0),
                "diag-energy",
                SourceLoc::new("diagnostics.f90", 19, "field_energy"),
                cells,
                vec![
                    Instruction::mem(MemOp::Load, field, 8, unit).with_repeat(2),
                    Instruction::fp(FpOp::Fma).with_repeat(2),
                ],
            )
            .with_ilp(3.0),
        );

        // Master-rank visualization aggregation: work linear in P over a
        // constant staging buffer. Workers run a single token trip.
        let viz = b.block(
            BasicBlock::new(
                BlockId(0),
                "master-viz",
                SourceLoc::new("viz.f90", 152, "aggregate_moments"),
                if rank == 0 {
                    cfg.viz_per_rank * u64::from(nranks)
                } else {
                    1
                },
                vec![
                    Instruction::mem(MemOp::Load, viz_buf, 8, unit),
                    Instruction::fp(FpOp::Fma).with_repeat(4),
                    Instruction::mem(MemOp::Store, viz_buf, 8, unit),
                ],
            )
            .with_ilp(2.0),
        );

        let program = b.build().expect("uh3d proxy program is valid");

        let neighbors = neighbors6(rank, factor3(nranks));
        // Particle migration: surface particles leave each step.
        let migration_bytes = ((parts as f64).powf(2.0 / 3.0).ceil() as u64) * PARTICLE_BYTES;
        // Field halo: one face of the subgrid.
        let halo_bytes = nx * nx * FIELD_CELL_BYTES;
        let ts = cfg.timesteps;
        RankProgram {
            program,
            events: vec![
                RankEvent::Compute {
                    block: push,
                    invocations: ts,
                },
                RankEvent::Compute {
                    block: deposit,
                    invocations: ts,
                },
                RankEvent::Exchange {
                    neighbors: neighbors.clone(),
                    bytes_per_neighbor: migration_bytes,
                    repeats: ts,
                },
                RankEvent::Compute {
                    block: stencil,
                    invocations: ts,
                },
                RankEvent::Exchange {
                    neighbors,
                    bytes_per_neighbor: halo_bytes,
                    repeats: ts,
                },
                RankEvent::Compute {
                    block: sort,
                    invocations: ts,
                },
                RankEvent::Compute {
                    block: diag,
                    invocations: ts,
                },
                RankEvent::Compute {
                    block: viz,
                    invocations: ts,
                },
                RankEvent::Allreduce {
                    bytes: 64,
                    repeats: ts,
                },
            ],
        }
    }

    /// Programs are a function of the particle share, the cell share, and
    /// mastership; each share takes at most two values (remainder ranks
    /// carry one extra unit), encoded as "differs from the last rank".
    fn rank_class(&self, rank: u32, nranks: u32) -> Option<u64> {
        let last = nranks - 1;
        let pe = self.particles_of(rank, nranks) != self.particles_of(last, nranks);
        let ce = self.cells_of(rank, nranks) != self.cells_of(last, nranks);
        Some(u64::from(pe) << 2 | u64::from(ce) << 1 | u64::from(rank == 0))
    }

    /// Migration and halo both exchange with the six face neighbors.
    fn exchange_partners(&self, nranks: u32) -> Vec<Vec<Vec<u32>>> {
        let dims = factor3(nranks);
        (0..nranks)
            .map(|rank| {
                let n = neighbors6(rank, dims);
                vec![n.clone(), n]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_footprint_halves_per_doubling() {
        let app = Uh3dProxy::paper_scale();
        let field_bytes = |p: u32| {
            let prog = app.rank_program(0, p).program;
            prog.regions()
                .iter()
                .find(|r| r.name == "field")
                .unwrap()
                .bytes
        };
        let f1024 = field_bytes(1024);
        let f2048 = field_bytes(2048);
        let f8192 = field_bytes(8192);
        assert!((f1024 as f64 / f2048 as f64 - 2.0).abs() < 0.01);
        assert!((f1024 as f64 / f8192 as f64 - 8.0).abs() < 0.01);
        // Table II setup: at 8192 the field slice sits near the L3 capacity
        // of the target machines (a few MB).
        assert!(f8192 > 1 << 21 && f8192 < 1 << 23, "f8192 = {f8192}");
    }

    #[test]
    fn sort_block_grows_logarithmically() {
        let app = Uh3dProxy::paper_scale();
        let iters = |p: u32| {
            app.rank_program(0, p)
                .program
                .block_by_name("particle-sort")
                .unwrap()
                .iterations
        };
        let base = 1u64 << 21;
        assert_eq!(iters(1024), base * 10);
        assert_eq!(iters(2048), base * 11);
        assert_eq!(iters(4096), base * 12);
        assert_eq!(iters(8192), base * 13);
    }

    #[test]
    fn sort_memops_match_figure5_magnitude() {
        // Figure 5 plots ~2e9..1.6e10 memory operations for the log-model
        // instruction; the proxy's totals must land in that decade.
        let app = Uh3dProxy::paper_scale();
        let prog = app.rank_program(0, 8192);
        let blk = prog.program.block_by_name("particle-sort").unwrap();
        let total = blk.mem_refs_per_invocation() * app.cfg.timesteps;
        assert!(
            (1e9..1e11).contains(&(total as f64)),
            "total sort memops {total:e}"
        );
    }

    #[test]
    fn moment_table_slice_shrinks_linearly() {
        let app = Uh3dProxy::paper_scale();
        let bytes = |p: u32| {
            app.rank_program(0, p)
                .program
                .regions()
                .iter()
                .find(|r| r.name == "moments")
                .unwrap()
                .bytes
        };
        assert_eq!(bytes(1024), 4 * 1024 * 1024);
        assert_eq!(bytes(8192), 512 * 1024);
    }

    #[test]
    fn six_blocks_with_stable_names() {
        let prog = Uh3dProxy::small().rank_program(0, 4).program;
        for name in [
            "particle-push",
            "current-deposit",
            "field-stencil",
            "particle-sort",
            "diag-energy",
            "master-viz",
        ] {
            assert!(prog.block_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn master_viz_is_linear_in_p_and_rank_zero_only() {
        let app = Uh3dProxy::paper_scale();
        let iters = |rank: u32, p: u32| {
            app.rank_program(rank, p)
                .program
                .block_by_name("master-viz")
                .unwrap()
                .iterations
        };
        assert_eq!(iters(0, 2048), 2 * iters(0, 1024));
        assert_eq!(iters(0, 8192), 8 * iters(0, 1024));
        assert_eq!(iters(7, 8192), 1, "workers run a token trip");
    }

    #[test]
    fn rank_zero_is_always_the_longest_task() {
        use xtrace_obs::ObsContext;
        let app = Uh3dProxy::small();
        for p in [2u32, 8, 24] {
            let prof =
                xtrace_spmd::profile(&app, p, &crate::profiling_net(), &ObsContext::disabled());
            assert_eq!(prof.longest_rank, 0, "p={p}");
        }
    }

    #[test]
    fn shrinking_kernels_fall_below_influence_threshold_at_target() {
        let app = Uh3dProxy::paper_scale();
        let prog = app.rank_program(0, 8192).program;
        let total: f64 = prog
            .blocks()
            .iter()
            .map(|b| b.mem_refs_per_invocation() as f64)
            .sum();
        for name in [
            "particle-push",
            "current-deposit",
            "field-stencil",
            "diag-energy",
        ] {
            let blk = prog.block_by_name(name).unwrap();
            for ins in &blk.instrs {
                if ins.is_mem() {
                    let refs = (blk.iterations * u64::from(ins.repeat)) as f64;
                    assert!(
                        refs / total < 0.001,
                        "{name} instruction influence {} >= 0.1%",
                        refs / total
                    );
                }
            }
        }
        // The log-growing sort block stays influential (Figure 5's subject).
        let sort = prog.block_by_name("particle-sort").unwrap();
        let sort_refs = sort.mem_refs_per_invocation() as f64;
        assert!(
            sort_refs / total > 0.001,
            "sort influence {}",
            sort_refs / total
        );
    }

    #[test]
    fn events_include_two_exchanges_and_allreduce() {
        let rp = Uh3dProxy::small().rank_program(0, 8);
        let n_exchange = rp
            .events
            .iter()
            .filter(|e| matches!(e, RankEvent::Exchange { .. }))
            .count();
        assert_eq!(n_exchange, 2, "migration + halo");
        assert!(rp
            .events
            .iter()
            .any(|e| matches!(e, RankEvent::Allreduce { .. })));
    }

    #[test]
    fn small_config_is_cheap_to_trace() {
        let rp = Uh3dProxy::small().rank_program(0, 2);
        assert!(rp.total_mem_refs() < 1_000_000);
    }

    #[test]
    fn rank_classes_match_materialized_grouping() {
        use crate::test_support::assert_classes_match_materialized;
        let app = Uh3dProxy::small();
        // 4096 particles / 2048 cells over 96 ranks: both shares carry
        // remainders, at different rank boundaries.
        for p in [1u32, 2, 7, 8, 96, 384] {
            let fast = assert_classes_match_materialized(&app, p);
            assert!(fast.num_classes() <= 5, "p={p}: {}", fast.num_classes());
        }
    }
}
