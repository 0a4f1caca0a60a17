//! Seeded workload inputs: every config and op order a run uses is a
//! pure function of `--seed`, so one seed always replays the same ops.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated into independent `stream`s (one
    /// per client or per input kind).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Targets the `paper-cold` ops draw from (SPECFEM3D, paper scale,
/// trained at 96/384/1536).
pub const PAPER_COLD_TARGETS: [u32; 3] = [6144, 12288, 24576];

/// Targets the `sweep-extend` triples draw from (UH3D, paper scale,
/// trained at 1024/2048/4096).
pub const SWEEP_TARGETS: [u32; 4] = [8192, 16384, 32768, 65536];

/// Machines of the `serve-warm` working set: two configs each.
pub const SERVE_MACHINES: [&str; 5] = [
    "opteron",
    "cray-xt5",
    "bluewaters-phase1",
    "system-a",
    "system-b",
];

/// Targets the `serve-warm` configs draw from.
pub const SERVE_TARGETS: [u32; 4] = [192, 384, 768, 1536];

/// The golden config: its prediction is pinned in the repository.
pub const GOLDEN: (&str, u32) = ("cray-xt5", 384);

/// Input streams, so adding one never shifts another.
const STREAM_OPS: u64 = 1;
const STREAM_SET: u64 = 2;

/// `n` ops over `items`, in seeded rounds: each round is a fresh seeded
/// permutation of every item, so any stretch of ops holds every item
/// about equally often and a run's cost does not hinge on its seed.
fn rounds<T: Clone>(rng: &mut Rng, items: &[T], n: usize) -> Vec<T> {
    let mut ops = Vec::with_capacity(n + items.len());
    while ops.len() < n {
        let mut round = items.to_vec();
        rng.shuffle(&mut round);
        ops.extend(round);
    }
    ops.truncate(n);
    ops
}

/// `n` seeded `paper-cold` targets.
pub fn paper_cold_ops(seed: u64, n: usize) -> Vec<u32> {
    rounds(&mut Rng::new(seed, STREAM_OPS), &PAPER_COLD_TARGETS, n)
}

/// `n` seeded `sweep-extend` target triples: rounds over the four
/// 3-subsets of the pool, each triple in seeded order.
pub fn sweep_ops(seed: u64, n: usize) -> Vec<[u32; 3]> {
    let mut rng = Rng::new(seed, STREAM_OPS);
    let subsets: Vec<usize> = (0..SWEEP_TARGETS.len()).collect();
    rounds(&mut rng, &subsets, n)
        .into_iter()
        .map(|skip| {
            let mut triple: Vec<u32> = (0..SWEEP_TARGETS.len())
                .filter(|&i| i != skip)
                .map(|i| SWEEP_TARGETS[i])
                .collect();
            rng.shuffle(&mut triple);
            [triple[0], triple[1], triple[2]]
        })
        .collect()
}

/// The seeded `serve-warm` working set, as the two clients' disjoint
/// halves of (machine, target) pairs. Every machine gets two distinct
/// seeded targets, one per half, so both halves carry the same machine
/// mix whatever the seed; the golden config is always one of the pairs.
pub fn serve_working_set(seed: u64) -> [Vec<(&'static str, u32)>; 2] {
    let mut rng = Rng::new(seed, STREAM_SET);
    let mut halves: [Vec<(&'static str, u32)>; 2] = [Vec::new(), Vec::new()];
    for machine in SERVE_MACHINES {
        let mut targets = SERVE_TARGETS;
        rng.shuffle(&mut targets);
        let mut pair = [(machine, targets[0]), (machine, targets[1])];
        if machine == GOLDEN.0 && !pair.contains(&GOLDEN) {
            pair[0] = GOLDEN;
        }
        rng.shuffle(&mut pair);
        halves[0].push(pair[0]);
        halves[1].push(pair[1]);
    }
    halves
}

/// Client `client`'s seeded stream of `n` indices into its half (of
/// `len` configs).
pub fn serve_ops(seed: u64, client: u64, len: usize, n: usize) -> Vec<usize> {
    let idx: Vec<usize> = (0..len).collect();
    rounds(&mut Rng::new(seed, STREAM_OPS + 16 * (client + 1)), &idx, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequences_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(paper_cold_ops(7, 64), paper_cold_ops(7, 64));
        assert_ne!(paper_cold_ops(7, 64), paper_cold_ops(8, 64));
        assert_eq!(sweep_ops(7, 32), sweep_ops(7, 32));
        assert_ne!(sweep_ops(7, 32), sweep_ops(8, 32));
        assert_eq!(serve_working_set(7), serve_working_set(7));
        assert_ne!(serve_working_set(7), serve_working_set(8));
        assert_eq!(serve_ops(7, 0, 3, 64), serve_ops(7, 0, 3, 64));
        assert_ne!(serve_ops(7, 0, 3, 64), serve_ops(8, 0, 3, 64));
        // The two clients draw independent streams.
        assert_ne!(serve_ops(7, 0, 3, 64), serve_ops(7, 1, 3, 64));
    }

    #[test]
    fn generated_inputs_are_well_formed() {
        for seed in 0..50 {
            for triple in sweep_ops(seed, 8) {
                assert!(triple[0] != triple[1] && triple[1] != triple[2] && triple[0] != triple[2]);
            }
            let [a, b] = serve_working_set(seed);
            assert_eq!(
                (a.len(), b.len()),
                (SERVE_MACHINES.len(), SERVE_MACHINES.len())
            );
            assert!(a.contains(&GOLDEN) || b.contains(&GOLDEN));
            assert!(a.iter().all(|c| !b.contains(c)), "halves are disjoint");
            // Every round of ops covers every input once.
            let mut round = paper_cold_ops(seed, 6);
            round.sort_unstable();
            assert_eq!(round, [6144, 6144, 12288, 12288, 24576, 24576]);
            let mut skipped: Vec<u32> = sweep_ops(seed, 4)
                .iter()
                .map(|t| {
                    SWEEP_TARGETS
                        .iter()
                        .copied()
                        .find(|x| !t.contains(x))
                        .unwrap()
                })
                .collect();
            skipped.sort_unstable();
            assert_eq!(skipped, SWEEP_TARGETS);
        }
    }
}
