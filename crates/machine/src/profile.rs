//! The machine profile: everything the convolution knows about a target.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use xtrace_cache::HierarchyConfig;
use xtrace_spmd::NetworkModel;

use crate::fp::FpRates;
use crate::memcost::MemoryCostModel;
use crate::multimaps::{measure_surface, BandwidthSurface, SweepConfig};
use crate::power::PowerModel;

/// Why a machine profile could not be constructed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MachineError {
    /// The cache hierarchy violates a structural invariant.
    InvalidHierarchy(String),
    /// The floating-point rates are not usable.
    InvalidFpRates(String),
    /// The energy model is not usable.
    InvalidPower(String),
    /// The clock frequency is not positive.
    InvalidClock(f64),
    /// The memory/FP overlap factor is outside `[0, 1]`.
    InvalidOverlap(f64),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::InvalidHierarchy(m) => write!(f, "invalid cache hierarchy: {m}"),
            MachineError::InvalidFpRates(m) => write!(f, "invalid FP rates: {m}"),
            MachineError::InvalidPower(m) => write!(f, "invalid power model: {m}"),
            MachineError::InvalidClock(hz) => write!(f, "clock must be positive, got {hz}"),
            MachineError::InvalidOverlap(v) => {
                write!(f, "fp/mem overlap must be a fraction in [0, 1], got {v}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// A target (or base) system: cache structure, clock, FP rates, network,
/// per-access memory cost parameters, and the lazily measured MultiMAPS
/// surface.
///
/// Signatures are collected *against* a profile's hierarchy (the simulator
/// mimics "the structure of the system being predicted"), and predictions
/// are convolved with the same profile's surface — so a profile plays both
/// the machine-description and benchmark-results roles of the PMaC
/// framework.
#[derive(Debug)]
pub struct MachineProfile {
    /// Machine name (e.g. `"bluewaters-phase1"`).
    pub name: String,
    /// Cache hierarchy the tracer simulates.
    pub hierarchy: HierarchyConfig,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Floating-point throughputs.
    pub fp: FpRates,
    /// Network α–β model.
    pub net: NetworkModel,
    /// Per-access memory cost parameters.
    pub mem_cost: MemoryCostModel,
    /// Sweep used when measuring the surface.
    pub sweep: SweepConfig,
    /// Fraction of the smaller of (memory time, FP time) hidden under the
    /// larger when combining them into computation time (Section III-B:
    /// "with some overlap of memory and floating-point work").
    pub fp_mem_overlap: f64,
    /// Per-operation energy costs.
    pub power: PowerModel,
    surface: OnceLock<BandwidthSurface>,
}

impl Clone for MachineProfile {
    fn clone(&self) -> Self {
        let surface = OnceLock::new();
        if let Some(s) = self.surface.get() {
            let _ = surface.set(s.clone());
        }
        Self {
            name: self.name.clone(),
            hierarchy: self.hierarchy.clone(),
            clock_hz: self.clock_hz,
            fp: self.fp,
            net: self.net,
            mem_cost: self.mem_cost,
            sweep: self.sweep.clone(),
            fp_mem_overlap: self.fp_mem_overlap,
            power: self.power,
            surface,
        }
    }
}

impl MachineProfile {
    /// Creates a validated profile; the surface is measured on first use.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        hierarchy: HierarchyConfig,
        clock_hz: f64,
        fp: FpRates,
        net: NetworkModel,
        mem_cost: MemoryCostModel,
        sweep: SweepConfig,
        fp_mem_overlap: f64,
    ) -> Result<Self, MachineError> {
        hierarchy
            .validate()
            .map_err(MachineError::InvalidHierarchy)?;
        fp.validate().map_err(MachineError::InvalidFpRates)?;
        if clock_hz.is_nan() || clock_hz <= 0.0 {
            return Err(MachineError::InvalidClock(clock_hz));
        }
        if !(0.0..=1.0).contains(&fp_mem_overlap) {
            return Err(MachineError::InvalidOverlap(fp_mem_overlap));
        }
        Ok(Self {
            name: name.into(),
            hierarchy,
            clock_hz,
            fp,
            net,
            mem_cost,
            sweep,
            fp_mem_overlap,
            power: PowerModel::generic(),
            surface: OnceLock::new(),
        })
    }

    /// Replaces the energy model (builder style).
    pub fn with_power(mut self, power: PowerModel) -> Result<Self, MachineError> {
        power.validate().map_err(MachineError::InvalidPower)?;
        self.power = power;
        Ok(self)
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.hierarchy.depth()
    }

    /// The MultiMAPS surface, measured on first call and cached.
    pub fn surface(&self) -> &BandwidthSurface {
        self.surface.get_or_init(|| {
            measure_surface(&self.hierarchy, self.clock_hz, &self.mem_cost, &self.sweep)
        })
    }

    /// The MultiMAPS surface if it has been measured (or adopted from a
    /// spec) already; never measures it.
    pub fn measured_surface(&self) -> Option<&BandwidthSurface> {
        self.surface.get()
    }

    /// Combines memory and FP time with the profile's overlap factor.
    pub fn combine_times(&self, memory_s: f64, fp_s: f64) -> f64 {
        let hi = memory_s.max(fp_s);
        let lo = memory_s.min(fp_s);
        hi + (1.0 - self.fp_mem_overlap) * lo
    }

    /// Serializable snapshot of this profile, including the measured
    /// MultiMAPS surface (measuring it first if needed) — the on-disk
    /// "machine profile" artifact the PMaC framework ships between the
    /// benchmarking and prediction steps.
    pub fn to_spec(&self) -> MachineProfileSpec {
        MachineProfileSpec {
            name: self.name.clone(),
            hierarchy: self.hierarchy.clone(),
            clock_hz: self.clock_hz,
            fp: self.fp,
            net: self.net,
            mem_cost: self.mem_cost,
            sweep: self.sweep.clone(),
            fp_mem_overlap: self.fp_mem_overlap,
            power: self.power,
            surface: self.surface().clone(),
        }
    }

    /// Rebuilds a profile from a snapshot; the embedded surface is adopted
    /// verbatim (no re-measurement).
    pub fn from_spec(spec: MachineProfileSpec) -> Result<Self, MachineError> {
        let profile = Self::new(
            spec.name,
            spec.hierarchy,
            spec.clock_hz,
            spec.fp,
            spec.net,
            spec.mem_cost,
            spec.sweep,
            spec.fp_mem_overlap,
        )?
        .with_power(spec.power)?;
        let _ = profile.surface.set(spec.surface);
        Ok(profile)
    }
}

/// The serializable form of a [`MachineProfile`]: configuration plus the
/// measured bandwidth surface. Machine profiles are collected once (on or
/// for a target machine) and shipped to wherever predictions run — this is
/// the file format for that hand-off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineProfileSpec {
    /// Machine name.
    pub name: String,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Floating-point throughputs.
    pub fp: crate::fp::FpRates,
    /// Network model.
    pub net: NetworkModel,
    /// Per-access memory cost parameters.
    pub mem_cost: MemoryCostModel,
    /// Sweep the surface was measured with.
    pub sweep: SweepConfig,
    /// Memory/FP overlap factor.
    pub fp_mem_overlap: f64,
    /// Energy model.
    pub power: crate::power::PowerModel,
    /// The measured MultiMAPS surface.
    pub surface: BandwidthSurface,
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace_cache::CacheLevelConfig;

    fn profile() -> MachineProfile {
        MachineProfile::new(
            "test",
            HierarchyConfig::new(
                vec![
                    CacheLevelConfig::lru("L1", 32 * 1024, 64, 8, 2.0),
                    CacheLevelConfig::lru("L2", 512 * 1024, 64, 8, 12.0),
                ],
                170.0,
            )
            .unwrap(),
            2.0e9,
            FpRates::generic(),
            NetworkModel::new(1.5e-6, 5e9),
            MemoryCostModel::default(),
            SweepConfig::coarse(),
            0.8,
        )
        .unwrap()
    }

    #[test]
    fn surface_is_lazy_and_cached() {
        let p = profile();
        assert!(p.measured_surface().is_none(), "nothing measured yet");
        let s1 = p.surface() as *const _;
        assert_eq!(p.measured_surface().map(|s| s as *const _), Some(s1));
        let s2 = p.surface() as *const _;
        assert_eq!(s1, s2, "second call returns the cached surface");
        assert!(!p.surface().points.is_empty());
    }

    #[test]
    fn clone_preserves_measured_surface() {
        let p = profile();
        let _ = p.surface();
        let q = p.clone();
        assert_eq!(q.surface(), p.surface());
    }

    #[test]
    fn combine_times_overlaps() {
        let p = profile();
        // overlap 0.8: 10 + 0.2*4 = 10.8
        assert!((p.combine_times(10.0, 4.0) - 10.8).abs() < 1e-12);
        assert!((p.combine_times(4.0, 10.0) - 10.8).abs() < 1e-12);
        assert_eq!(p.combine_times(0.0, 0.0), 0.0);
    }

    #[test]
    fn spec_roundtrip_preserves_surface_without_remeasuring() {
        let p = profile();
        let spec = p.to_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back_spec: MachineProfileSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back_spec, spec, "the spec round-trips bit for bit");
        let q = MachineProfile::from_spec(back_spec).unwrap();
        assert_eq!(q.name, p.name);
        assert_eq!(q.hierarchy, p.hierarchy);
        // The surface was adopted, not re-measured.
        assert_eq!(q.measured_surface(), Some(p.surface()));
    }

    #[test]
    fn with_power_replaces_the_energy_model() {
        use crate::power::PowerModel;
        let mut pm = PowerModel::generic();
        pm.static_watts = 7.5;
        let p = profile().with_power(pm).unwrap();
        assert_eq!(p.power.static_watts, 7.5);
    }

    #[test]
    fn bad_overlap_is_a_typed_error() {
        let p = profile();
        let err = MachineProfile::new(
            "bad",
            p.hierarchy.clone(),
            1e9,
            FpRates::generic(),
            p.net,
            MemoryCostModel::default(),
            SweepConfig::coarse(),
            1.5,
        )
        .unwrap_err();
        assert_eq!(err, MachineError::InvalidOverlap(1.5));
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn bad_clock_is_a_typed_error() {
        let p = profile();
        let err = MachineProfile::new(
            "bad",
            p.hierarchy.clone(),
            0.0,
            FpRates::generic(),
            p.net,
            MemoryCostModel::default(),
            SweepConfig::coarse(),
            0.5,
        )
        .unwrap_err();
        assert_eq!(err, MachineError::InvalidClock(0.0));
    }
}
