//! # xtrace-apps — strong-scaling proxy applications
//!
//! The paper evaluates on two production codes: SPECFEM3D_GLOBE ("a
//! spectral-element application enabling the simulation of global seismic
//! wave propagation") and UH3D ("a global code to model the Earth's
//! magnetosphere … that treats the ions as particles and the electrons as a
//! fluid"). Neither code — nor the Cray XT5 they ran on — is available
//! here, so this crate provides *proxy applications*: IR-level programs
//! with the same kernel structure, data-movement patterns, and
//! strong-scaling behaviour.
//!
//! * [`SpecfemProxy`] — spectral-element wave propagation: per-element
//!   dense operator application (FMA-heavy, mixed strided/indirect access),
//!   a constant-footprint element workspace (the paper's Table III block),
//!   boundary gather/scatter, a Newmark time-integration sweep, a
//!   reduction block whose work grows with ⌈log₂ P⌉, six-neighbor halo
//!   exchange, and a per-step allreduce.
//! * [`Uh3dProxy`] — hybrid particle-in-cell: particle push with random
//!   field gathers, current deposition scatter, an electromagnetic field
//!   stencil sweep (the Table II block whose footprint drops through the
//!   cache levels as P grows), a ⌈log₂ P⌉ particle-sort block, particle
//!   migration, and diagnostics reductions.
//! * [`StencilProxy`] — a minimal 3-D Jacobi relaxation, used by examples
//!   and tests where a two-block app suffices.
//!
//! All three implement [`xtrace_spmd::SpmdApp`]. By default every
//! application **strong-scales**: global problem sizes are fixed in the
//! config, and per-rank region sizes / trip counts are derived from
//! `(rank, nranks)`, so the per-core working set and work shrink as the
//! core count rises — "the effect of this … is
//! that, as the core count increases, the work and data footprint per core
//! begins to decrease for most computational phases" (Section V). Setting
//! [`ScalingMode::Weak`] instead fixes the per-rank problem (the
//! Section-VI future-work mode).

#![warn(missing_docs)]

pub mod decomp;
pub mod specfem;
pub mod stencil;
pub mod uh3d;

pub use decomp::{ceil_div, factor3, neighbors6, scaled_share, share_of, ScalingMode};
pub use specfem::{SpecfemConfig, SpecfemProxy};
pub use stencil::{StencilConfig, StencilProxy};
pub use uh3d::{Uh3dConfig, Uh3dProxy};

use xtrace_spmd::NetworkModel;

/// Network model used when profiling communication: the base system's
/// interconnect (Kraken-like defaults).
pub fn profiling_net() -> NetworkModel {
    NetworkModel::new(6.0e-6, 1.6e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace_obs::ObsContext;
    use xtrace_spmd::SpmdApp;

    fn shape_of(app: &dyn SpmdApp, nranks: u32) -> Vec<u8> {
        app.rank_program(0, nranks)
            .events
            .iter()
            .map(|e| e.kind_tag())
            .collect()
    }

    /// Every proxy must be SPMD-aligned at representative core counts.
    #[test]
    fn all_apps_are_spmd_aligned() {
        let apps: Vec<Box<dyn SpmdApp>> = vec![
            Box::new(SpecfemProxy::small()),
            Box::new(Uh3dProxy::small()),
            Box::new(StencilProxy::small()),
        ];
        for app in &apps {
            for p in [1u32, 2, 8, 24] {
                let shape = shape_of(app.as_ref(), p);
                for r in 0..p {
                    let prog = app.rank_program(r, p);
                    let s: Vec<u8> = prog.events.iter().map(|e| e.kind_tag()).collect();
                    assert_eq!(s, shape, "{} rank {r}/{p}", app.name());
                }
            }
        }
    }

    #[test]
    fn rank_programs_are_deterministic() {
        let app = SpecfemProxy::small();
        assert_eq!(app.rank_program(3, 8), app.rank_program(3, 8));
    }

    #[test]
    fn profiling_identifies_a_longest_task() {
        let app = Uh3dProxy::small();
        let prof = xtrace_spmd::profile(&app, 8, &profiling_net(), &ObsContext::disabled());
        assert_eq!(prof.nranks, 8);
        assert!(prof.longest_rank < 8);
        assert!(!prof.events.is_empty());
    }
}
