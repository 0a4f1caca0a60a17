//! Domain decomposition helpers shared by the proxies.
//!
//! All three proxy apps decompose a fixed global problem across `P` ranks:
//! a near-cubic 3-D process grid for neighbor topology, and a
//! remainder-aware split of global counts so the first `total mod P` ranks
//! own one extra unit. The uneven split is deliberate — it creates the load
//! imbalance that gives "the MPI task that consumed the most computational
//! time" (Section IV) a well-defined identity.

use serde::{Deserialize, Serialize};

/// How a proxy's global problem maps onto ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScalingMode {
    /// Fixed global problem: per-rank share shrinks as `1/P` (the paper's
    /// evaluation mode: "Each application was scaled using strong scaling").
    #[default]
    Strong,
    /// Fixed per-rank problem: the config's global counts are interpreted
    /// *per rank*, so footprints and trip counts are constant in P while
    /// the global problem grows (the Section-VI future-work mode).
    Weak,
}

/// Per-rank share of `total` units under the given scaling mode (under weak
/// scaling, `total` is already the per-rank amount).
#[inline]
pub fn scaled_share(total: u64, rank: u32, nranks: u32, mode: ScalingMode) -> u64 {
    match mode {
        ScalingMode::Strong => share_of(total, rank, nranks),
        ScalingMode::Weak => {
            assert!(rank < nranks, "rank {rank} out of range for {nranks}");
            total
        }
    }
}

/// Ceiling division for positive counts.
#[inline]
pub fn ceil_div(total: u64, parts: u64) -> u64 {
    assert!(parts > 0, "cannot split across zero parts");
    total.div_ceil(parts)
}

/// The number of units rank `rank` of `nranks` owns when `total` units are
/// block-distributed with remainders going to the lowest ranks.
#[inline]
pub fn share_of(total: u64, rank: u32, nranks: u32) -> u64 {
    assert!(nranks > 0);
    assert!(rank < nranks, "rank {rank} out of range for {nranks}");
    let p = u64::from(nranks);
    let base = total / p;
    let rem = total % p;
    base + u64::from(u64::from(rank) < rem)
}

/// Factors `p` into a near-cubic 3-D grid `(px, py, pz)` with
/// `px·py·pz == p` and `px ≥ py ≥ pz`.
pub fn factor3(p: u32) -> (u32, u32, u32) {
    assert!(p > 0);
    let mut best = (p, 1, 1);
    let mut best_score = u64::MAX;
    let mut z = 1u32;
    while z * z * z <= p {
        if p.is_multiple_of(z) {
            let rest = p / z;
            let mut y = z;
            while y * y <= rest {
                if rest.is_multiple_of(y) {
                    let x = rest / y;
                    // Lower surface-to-volume = more cubic.
                    let score = u64::from(x) * u64::from(y)
                        + u64::from(y) * u64::from(z)
                        + u64::from(x) * u64::from(z);
                    if score < best_score {
                        best_score = score;
                        best = (x, y, z);
                    }
                }
                y += 1;
            }
        }
        z += 1;
    }
    best
}

/// The six face neighbors (±x, ±y, ±z, periodic) of `rank` in the
/// `(px, py, pz)` process grid `dims` (as [`factor3`] returns it),
/// deduplicated and excluding self (so small grids with wraparound
/// self-edges still produce valid neighbor lists).
///
/// Taking the factored grid rather than the rank count lets a caller that
/// visits every rank factor once per job instead of once per rank.
pub fn neighbors6(rank: u32, dims: (u32, u32, u32)) -> Vec<u32> {
    let (px, py, pz) = dims;
    assert!(rank < px * py * pz);
    let x = rank % px;
    let y = (rank / px) % py;
    let z = rank / (px * py);
    let idx = |x: u32, y: u32, z: u32| z * px * py + y * px + x;
    let mut out = Vec::with_capacity(6);
    let candidates = [
        idx((x + 1) % px, y, z),
        idx((x + px - 1) % px, y, z),
        idx(x, (y + 1) % py, z),
        idx(x, (y + py - 1) % py, z),
        idx(x, y, (z + 1) % pz),
        idx(x, y, (z + pz - 1) % pz),
    ];
    for c in candidates {
        if c != rank && !out.contains(&c) {
            out.push(c);
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_div_rounds_up() {
        assert_eq!(ceil_div(10, 3), 4);
        assert_eq!(ceil_div(9, 3), 3);
        assert_eq!(ceil_div(0, 3), 0);
        assert_eq!(ceil_div(1, 100), 1);
    }

    #[test]
    fn shares_sum_to_total() {
        for total in [0u64, 1, 7, 100, 12345] {
            for p in [1u32, 2, 3, 8, 96] {
                let sum: u64 = (0..p).map(|r| share_of(total, r, p)).sum();
                assert_eq!(sum, total, "total {total} over {p}");
            }
        }
    }

    #[test]
    fn shares_differ_by_at_most_one_and_front_load() {
        let shares: Vec<u64> = (0..5).map(|r| share_of(17, r, 5)).collect();
        assert_eq!(shares, vec![4, 4, 3, 3, 3]);
    }

    #[test]
    fn factor3_is_exact_and_ordered() {
        for p in [1u32, 2, 6, 8, 96, 384, 1024, 1536, 4096, 6144, 8192] {
            let (x, y, z) = factor3(p);
            assert_eq!(x * y * z, p, "p={p}");
            assert!(x >= y && y >= z);
        }
    }

    #[test]
    fn factor3_prefers_cubic_shapes() {
        assert_eq!(factor3(8), (2, 2, 2));
        assert_eq!(factor3(64), (4, 4, 4));
        assert_eq!(factor3(96), (6, 4, 4));
        assert_eq!(factor3(6144), (24, 16, 16));
        assert_eq!(factor3(8192), (32, 16, 16));
    }

    #[test]
    fn neighbors_are_valid_and_symmetric() {
        for p in [2u32, 6, 8, 24, 96] {
            let dims = factor3(p);
            for r in 0..p {
                let ns = neighbors6(r, dims);
                assert!(!ns.is_empty(), "rank {r}/{p} has neighbors");
                assert!(ns.len() <= 6);
                for &n in &ns {
                    assert!(n < p);
                    assert_ne!(n, r);
                    assert!(
                        neighbors6(n, dims).contains(&r),
                        "asymmetric edge {r}<->{n} at p={p}"
                    );
                }
            }
        }
    }

    /// `neighbors6` against an independent all-pairs scan: `q` is a
    /// neighbor of `r` iff their grid coordinates differ on exactly one
    /// axis, by ±1 modulo that axis's extent. Covers a prime count, axes
    /// of extent 1 and 2 (self-edges and duplicate wraparounds), and
    /// non-cubic grids.
    #[test]
    fn neighbors_match_brute_force_periodic_adjacency() {
        for p in [1u32, 2, 7, 8, 96, 384, 6144] {
            let dims @ (px, py, pz) = factor3(p);
            let coords: Vec<[u32; 3]> = (0..p)
                .map(|r| [r % px, (r / px) % py, r / (px * py)])
                .collect();
            let extents = [px, py, pz];
            for r in 0..p {
                let a = coords[r as usize];
                let expected: Vec<u32> = (0..p)
                    .filter(|&q| {
                        let b = coords[q as usize];
                        let mut differing = (0..3).filter(|&k| a[k] != b[k]);
                        match (differing.next(), differing.next()) {
                            (Some(k), None) => {
                                let d = (b[k] + extents[k] - a[k]) % extents[k];
                                d == 1 || d == extents[k] - 1
                            }
                            _ => false,
                        }
                    })
                    .collect();
                assert_eq!(neighbors6(r, dims), expected, "rank {r} of {p}");
            }
        }
    }

    #[test]
    fn interior_rank_of_large_grid_has_six_neighbors() {
        // 4x4x4 grid, interior-ish rank.
        let ns = neighbors6(21, factor3(64));
        assert_eq!(ns.len(), 6);
    }

    #[test]
    fn two_rank_grid_has_single_neighbor() {
        assert_eq!(neighbors6(0, factor3(2)), vec![1]);
        assert_eq!(neighbors6(1, factor3(2)), vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn share_of_rejects_bad_rank() {
        share_of(10, 5, 5);
    }

    #[test]
    fn weak_share_is_constant_in_p() {
        for p in [1u32, 2, 96, 6144] {
            assert_eq!(scaled_share(1000, 0, p, ScalingMode::Weak), 1000);
            assert_eq!(scaled_share(1000, p - 1, p, ScalingMode::Weak), 1000);
        }
    }

    #[test]
    fn strong_share_matches_share_of() {
        assert_eq!(
            scaled_share(17, 2, 5, ScalingMode::Strong),
            share_of(17, 2, 5)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn weak_share_rejects_bad_rank() {
        scaled_share(10, 5, 5, ScalingMode::Weak);
    }
}
