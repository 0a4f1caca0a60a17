//! MultiMAPS: measured memory bandwidth as a function of cache hit rates.
//!
//! "MultiMAPS probes a given system to generate a series of memory bandwidth
//! measurements across a variety of stride and working set sizes, which …
//! is reflected by varying cache hit rates" (Section III-A, Figure 1). The
//! benchmark here is the same loop structure — strided and random sweeps
//! over working sets from cache-resident to memory-resident — run against
//! the *simulated* target: each access goes through the cache hierarchy
//! simulator and is charged by the [`MemoryCostModel`]. Every sweep point
//! records its observed cumulative hit rates and achieved bandwidth,
//! yielding the [`BandwidthSurface`] the convolution interpolates.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use xtrace_cache::{CacheHierarchy, HierarchyConfig, LevelCounts, MEMORY_LEVEL_CAP};

use crate::memcost::{MemoryCostModel, PrefetchState};

/// Sweep parameters for the benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Working-set sizes in bytes.
    pub working_sets: Vec<u64>,
    /// Strides in bytes (element-granular walks).
    pub strides: Vec<u64>,
    /// Also measure a random-access point per working set.
    pub include_random: bool,
    /// Timed references per sweep point (after an equal-length warmup).
    pub accesses_per_point: u64,
    /// Element size of the benchmark array.
    pub elem_bytes: u32,
}

impl Default for SweepConfig {
    /// 4 KiB – 128 MiB working sets in ×1.3 steps (dense enough that every
    /// partial-residency hit-rate regime has nearby measured points),
    /// strides from unit to page-ish, plus random, 64 Ki references per
    /// point.
    fn default() -> Self {
        let mut working_sets = Vec::new();
        let mut ws = 4.0 * 1024.0f64;
        while ws <= 128.0 * 1024.0 * 1024.0 {
            // Element-align the size.
            working_sets.push((ws / 8.0).round() as u64 * 8);
            ws *= 1.3;
        }
        Self {
            working_sets,
            strides: vec![8, 64, 256, 2048],
            include_random: true,
            accesses_per_point: 64 * 1024,
            elem_bytes: 8,
        }
    }
}

impl SweepConfig {
    /// A coarse, fast sweep for unit tests.
    pub fn coarse() -> Self {
        Self {
            working_sets: vec![8 * 1024, 64 * 1024, 1024 * 1024, 16 * 1024 * 1024],
            strides: vec![8, 512],
            include_random: true,
            accesses_per_point: 8 * 1024,
            elem_bytes: 8,
        }
    }
}

/// One measured sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurfacePoint {
    /// Working-set size in bytes.
    pub working_set: u64,
    /// Stride in bytes, or `None` for the random-access point.
    pub stride: Option<u64>,
    /// True when the point's misses form hardware-prefetchable streams
    /// (stride within one cache line). Large-stride and random points are
    /// both non-streaming: they pay full miss latency.
    pub streaming: bool,
    /// Observed cumulative hit rates, `hit_rates[i]` = fraction of
    /// references satisfied at or before cache level `i` (entries beyond
    /// the hierarchy depth are 1.0).
    pub hit_rates: [f64; MEMORY_LEVEL_CAP],
    /// Achieved bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

/// The measured surface: the memory half of a machine profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthSurface {
    /// Cache depth of the hierarchy the surface was measured on.
    pub depth: usize,
    /// All sweep points.
    pub points: Vec<SurfacePoint>,
}

impl BandwidthSurface {
    /// Interpolates the bandwidth for a reference mix with the given
    /// cumulative hit rates (`rates[i]` for cache level `i`; shorter slices
    /// are padded with 1.0).
    ///
    /// Inverse-distance weighting over the 4 nearest sweep points in
    /// hit-rate space — the "appropriate location on the MultiMAPS curve"
    /// lookup of Section III-B.
    pub fn lookup(&self, rates: &[f64]) -> f64 {
        assert!(!self.points.is_empty(), "empty surface");
        let mut coord = [1.0f64; MEMORY_LEVEL_CAP];
        for (i, c) in coord.iter_mut().enumerate().take(self.depth) {
            *c = rates.get(i).copied().unwrap_or(1.0).clamp(0.0, 1.0);
        }
        // Distances to every point.
        let mut best: [(f64, f64); 4] = [(f64::INFINITY, 0.0); 4]; // (dist2, bw)
        for p in &self.points {
            let mut d2 = 0.0;
            for (c, h) in coord.iter().zip(&p.hit_rates).take(self.depth) {
                let d = c - h;
                d2 += d * d;
            }
            if d2 < best[3].0 {
                best[3] = (d2, p.bandwidth_bps);
                best.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
            }
        }
        const EPS: f64 = 1e-9;
        let mut wsum = 0.0;
        let mut acc = 0.0;
        for &(d2, bw) in best.iter().filter(|(d2, _)| d2.is_finite()) {
            let w = 1.0 / (d2 + EPS);
            wsum += w;
            acc += w * bw;
        }
        acc / wsum
    }

    /// Interpolates like [`Self::lookup`], but restricted to sweep points
    /// of the given reference class — streaming points (unit/short-stride,
    /// prefetch-friendly) for strided/stencil references, non-streaming
    /// points (random or line-skipping strides, full miss latency) for
    /// irregular ones.
    ///
    /// This is PMaC's "type of memory reference": "Where a block falls on
    /// the MultiMAPS curve — its working set and access pattern as
    /// expressed through its cache hit rate — is encompassed in its type"
    /// (Section III-B). Two references with equal hit rates but different
    /// patterns achieve very different bandwidths (prefetchers hide
    /// streaming-miss latency only), and the class keeps them apart.
    pub fn lookup_class(&self, rates: &[f64], streaming: bool) -> f64 {
        let any_of_class = self.points.iter().any(|p| p.streaming == streaming);
        if !any_of_class {
            return self.lookup(rates);
        }
        let mut coord = [1.0f64; MEMORY_LEVEL_CAP];
        for (i, c) in coord.iter_mut().enumerate().take(self.depth) {
            *c = rates.get(i).copied().unwrap_or(1.0).clamp(0.0, 1.0);
        }
        let mut best: [(f64, f64); 4] = [(f64::INFINITY, 0.0); 4];
        for p in self.points.iter().filter(|p| p.streaming == streaming) {
            let mut d2 = 0.0;
            for (c, h) in coord.iter().zip(&p.hit_rates).take(self.depth) {
                let d = c - h;
                d2 += d * d;
            }
            if d2 < best[3].0 {
                best[3] = (d2, p.bandwidth_bps);
                best.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
            }
        }
        const EPS: f64 = 1e-9;
        let mut wsum = 0.0;
        let mut acc = 0.0;
        for &(d2, bw) in best.iter().filter(|(d2, _)| d2.is_finite()) {
            let w = 1.0 / (d2 + EPS);
            wsum += w;
            acc += w * bw;
        }
        acc / wsum
    }

    /// The point whose hit rates are nearest to `rates` (for reporting).
    pub fn nearest(&self, rates: &[f64]) -> &SurfacePoint {
        self.points
            .iter()
            .min_by(|a, b| {
                let d = |p: &SurfacePoint| -> f64 {
                    (0..self.depth)
                        .map(|i| {
                            let r = rates.get(i).copied().unwrap_or(1.0);
                            (r - p.hit_rates[i]).powi(2)
                        })
                        .sum()
                };
                d(a).partial_cmp(&d(b)).expect("finite")
            })
            .expect("nonempty surface")
    }

    /// Minimum and maximum measured bandwidth (sanity reporting).
    pub fn bandwidth_range(&self) -> (f64, f64) {
        let min = self
            .points
            .iter()
            .map(|p| p.bandwidth_bps)
            .fold(f64::INFINITY, f64::min);
        let max = self
            .points
            .iter()
            .map(|p| p.bandwidth_bps)
            .fold(0.0, f64::max);
        (min, max)
    }
}

/// Tiny inline generator for the benchmark's random points (independent of
/// `xtrace-ir` to keep the crate graph a DAG).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one sweep point and returns (hit counts, total cycles).
fn run_point(
    hierarchy: &HierarchyConfig,
    cost: &MemoryCostModel,
    working_set: u64,
    stride: Option<u64>,
    cfg: &SweepConfig,
) -> (LevelCounts, f64) {
    let elem = u64::from(cfg.elem_bytes);
    let elems = (working_set / elem).max(1);
    let mut cache = CacheHierarchy::try_new(hierarchy.clone())
        .expect("machine profile carries a valid hierarchy");
    let mut state = PrefetchState::default();
    let addr_of = |k: u64| -> u64 {
        let idx = match stride {
            Some(s) => {
                let stride_elems = (s / elem).max(1);
                (k.wrapping_mul(stride_elems)) % elems
            }
            None => mix64(k) % elems,
        };
        idx * elem
    };
    // Warmup pass: populate the cache, charge nothing.
    for k in 0..cfg.accesses_per_point {
        cache.access(addr_of(k), cfg.elem_bytes);
    }
    state.reset();
    // Timed pass continues the walk.
    let mut counts = LevelCounts::default();
    let mut cycles = 0.0;
    for k in cfg.accesses_per_point..2 * cfg.accesses_per_point {
        let addr = addr_of(k);
        let lvl = cache.access(addr, cfg.elem_bytes);
        counts.record(lvl);
        cycles += cost.cycles(hierarchy, &mut state, lvl, addr, false);
    }
    (counts, cycles)
}

/// Measures the full surface for a hierarchy clocked at `clock_hz`.
///
/// Sweep points are independent, so they run in parallel (rayon).
pub fn measure_surface(
    hierarchy: &HierarchyConfig,
    clock_hz: f64,
    cost: &MemoryCostModel,
    cfg: &SweepConfig,
) -> BandwidthSurface {
    assert!(clock_hz > 0.0, "clock must be positive");
    hierarchy.validate().expect("invalid hierarchy");
    let mut jobs: Vec<(u64, Option<u64>)> = Vec::new();
    for &ws in &cfg.working_sets {
        for &s in &cfg.strides {
            jobs.push((ws, Some(s)));
        }
        if cfg.include_random {
            jobs.push((ws, None));
        }
    }
    let depth = hierarchy.depth();
    let points: Vec<SurfacePoint> = jobs
        .par_iter()
        .map(|&(ws, stride)| {
            let (counts, cycles) = run_point(hierarchy, cost, ws, stride, cfg);
            let mut hit_rates = [1.0f64; MEMORY_LEVEL_CAP];
            for (i, rate) in hit_rates.iter_mut().enumerate().take(depth) {
                *rate = counts.hit_rate_cum(i);
            }
            let seconds = cycles / clock_hz;
            let bytes = counts.accesses * u64::from(cfg.elem_bytes);
            SurfacePoint {
                working_set: ws,
                stride,
                streaming: stride.is_some_and(|s| s <= u64::from(hierarchy.levels[0].line_bytes)),
                hit_rates,
                bandwidth_bps: bytes as f64 / seconds.max(1e-30),
            }
        })
        .collect();
    BandwidthSurface { depth, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace_cache::CacheLevelConfig;

    fn hierarchy() -> HierarchyConfig {
        HierarchyConfig::new(
            vec![
                CacheLevelConfig::lru("L1", 64 * 1024, 64, 2, 3.0),
                CacheLevelConfig::lru("L2", 1024 * 1024, 64, 16, 12.0),
            ],
            150.0,
        )
        .unwrap()
    }

    fn surface() -> BandwidthSurface {
        measure_surface(
            &hierarchy(),
            2.2e9,
            &MemoryCostModel::default(),
            &SweepConfig::coarse(),
        )
    }

    #[test]
    fn cache_resident_points_have_high_hit_rates() {
        let s = surface();
        let p = s
            .points
            .iter()
            .find(|p| p.working_set == 8 * 1024 && p.stride == Some(8))
            .unwrap();
        assert!(p.hit_rates[0] > 0.99, "8 KiB unit stride lives in L1");
    }

    #[test]
    fn memory_resident_points_miss() {
        let s = surface();
        let p = s
            .points
            .iter()
            .find(|p| p.working_set == 16 * 1024 * 1024 && p.stride.is_none())
            .unwrap();
        assert!(p.hit_rates[1] < 0.3, "16 MiB random mostly misses L2");
    }

    #[test]
    fn bandwidth_decreases_as_hit_rates_fall() {
        let s = surface();
        let resident = s
            .points
            .iter()
            .find(|p| p.working_set == 8 * 1024 && p.stride == Some(8))
            .unwrap();
        let thrashing = s
            .points
            .iter()
            .find(|p| p.working_set == 16 * 1024 * 1024 && p.stride.is_none())
            .unwrap();
        assert!(
            resident.bandwidth_bps > 5.0 * thrashing.bandwidth_bps,
            "resident {} vs thrashing {}",
            resident.bandwidth_bps,
            thrashing.bandwidth_bps
        );
    }

    #[test]
    fn streaming_beats_random_at_same_footprint() {
        let s = surface();
        let ws = 16 * 1024 * 1024;
        let unit = s
            .points
            .iter()
            .find(|p| p.working_set == ws && p.stride == Some(8))
            .unwrap();
        let rand = s
            .points
            .iter()
            .find(|p| p.working_set == ws && p.stride.is_none())
            .unwrap();
        assert!(unit.bandwidth_bps > rand.bandwidth_bps);
    }

    #[test]
    fn lookup_interpolates_between_extremes() {
        let s = surface();
        let (min, max) = s.bandwidth_range();
        let hi = s.lookup(&[1.0, 1.0]);
        let lo = s.lookup(&[0.0, 0.0]);
        assert!(hi > lo);
        assert!(hi <= max * 1.0001 && lo >= min * 0.9999);
    }

    #[test]
    fn lookup_of_a_measured_point_recovers_its_bandwidth() {
        let s = surface();
        // Use an extreme point that is geometrically isolated.
        let p = s
            .points
            .iter()
            .max_by(|a, b| a.hit_rates[0].partial_cmp(&b.hit_rates[0]).unwrap())
            .unwrap();
        let got = s.lookup(&p.hit_rates[..s.depth]);
        let rel = (got - p.bandwidth_bps).abs() / p.bandwidth_bps;
        assert!(rel < 0.5, "IDW estimate within 50% of the exact point");
    }

    #[test]
    fn class_lookup_separates_streaming_from_random() {
        // Needs the dense default sweep so both classes have measured
        // points near the probe.
        let s = measure_surface(
            &hierarchy(),
            2.2e9,
            &MemoryCostModel::default(),
            &SweepConfig::default(),
        );
        // The unit-stride spatial floor: both classes have points with
        // these rates, but only streaming misses are prefetched.
        let probe = [0.875, 1.0];
        let streaming = s.lookup_class(&probe, true);
        let irregular = s.lookup_class(&probe, false);
        assert!(
            streaming > 1.15 * irregular,
            "streaming {streaming} must beat irregular {irregular}"
        );
    }

    #[test]
    fn streaming_classification_follows_line_size() {
        let s = surface();
        for p in &s.points {
            match p.stride {
                Some(st) if st <= 64 => assert!(p.streaming),
                _ => assert!(!p.streaming, "stride {:?}", p.stride),
            }
        }
    }

    #[test]
    fn class_lookup_falls_back_when_class_missing() {
        let mut s = surface();
        s.points.retain(|p| p.streaming);
        let a = s.lookup_class(&[0.5, 0.5], false);
        let b = s.lookup(&[0.5, 0.5]);
        assert_eq!(a, b, "no irregular points -> full-surface fallback");
    }

    #[test]
    fn nearest_returns_closest_point() {
        let s = surface();
        let p = s.nearest(&[1.0, 1.0]);
        assert!(p.hit_rates[0] > 0.9);
    }

    #[test]
    fn surfaces_are_deterministic() {
        let a = surface();
        let b = surface();
        assert_eq!(a, b);
    }

    #[test]
    fn surface_serializes() {
        let s = surface();
        let json = serde_json::to_string(&s).unwrap();
        let back: BandwidthSurface = serde_json::from_str(&json).unwrap();
        // Bit-exact both ways: every float survives the text round trip.
        assert_eq!(back, s);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
