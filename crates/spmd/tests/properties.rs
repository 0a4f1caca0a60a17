//! Property tests for the SPMD engine and network model.

use proptest::prelude::*;
use xtrace_ir::{AddressPattern, BasicBlock, BlockId, Instruction, MemOp, Program, SourceLoc};
use xtrace_obs::{ObsContext, Recorder};
use xtrace_spmd::{
    simulate, simulate_naive, NetworkModel, NominalComputeModel, RankClasses, RankEvent,
    RankProgram, SimError, SimReport, SpmdApp,
};

fn try_sim(app: &dyn SpmdApp, nranks: u32, net: &NetworkModel) -> Result<SimReport, SimError> {
    let classes = RankClasses::try_from_app(app, nranks)?;
    simulate(
        &classes,
        net,
        &mut NominalComputeModel::default(),
        &ObsContext::disabled(),
    )
}

fn sim(app: &dyn SpmdApp, nranks: u32, net: &NetworkModel) -> SimReport {
    try_sim(app, nranks, net).expect("simulate")
}

/// App where rank r's compute weight is `weights[r]`, ending in a barrier.
struct Weighted {
    weights: Vec<u64>,
}

impl SpmdApp for Weighted {
    fn name(&self) -> &str {
        "weighted"
    }
    fn rank_program(&self, rank: u32, _nranks: u32) -> RankProgram {
        let mut b = Program::builder();
        let r = b.region("a", 4096, 8);
        let blk = b.block(BasicBlock::new(
            BlockId(0),
            "w",
            SourceLoc::new("t.c", 1, "f"),
            self.weights[rank as usize].max(1),
            vec![Instruction::mem(MemOp::Load, r, 8, AddressPattern::unit(8))],
        ));
        RankProgram {
            program: b.build().unwrap(),
            events: vec![
                RankEvent::Compute {
                    block: blk,
                    invocations: 1,
                },
                RankEvent::Barrier { repeats: 1 },
            ],
        }
    }
}

/// Randomized master/worker app: ranks below `split` run `master_iters`
/// block iterations, the rest `worker_iters`; the script is compute → ring
/// exchange → allreduce. When `with_keys`, exact class keys are provided
/// (masters and workers as two classes) so the engine takes the
/// O(classes) fast path; otherwise it groups materialized programs
/// structurally.
struct SplitApp {
    split: u32,
    master_iters: u64,
    worker_iters: u64,
    bytes: u64,
    with_keys: bool,
}

impl SplitApp {
    fn iters_of(&self, rank: u32) -> u64 {
        if rank < self.split {
            self.master_iters
        } else {
            self.worker_iters
        }
    }
}

impl SpmdApp for SplitApp {
    fn name(&self) -> &str {
        "split"
    }
    fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram {
        let mut b = Program::builder();
        let r = b.region("a", 4096, 8);
        let blk = b.block(BasicBlock::new(
            BlockId(0),
            "w",
            SourceLoc::new("t.c", 1, "f"),
            self.iters_of(rank).max(1),
            vec![Instruction::mem(MemOp::Load, r, 8, AddressPattern::unit(8))],
        ));
        let ring = vec![(rank + nranks - 1) % nranks, (rank + 1) % nranks];
        RankProgram {
            program: b.build().unwrap(),
            events: vec![
                RankEvent::Compute {
                    block: blk,
                    invocations: 1,
                },
                RankEvent::Exchange {
                    neighbors: ring,
                    bytes_per_neighbor: self.bytes,
                    repeats: 1,
                },
                RankEvent::Allreduce {
                    bytes: 8,
                    repeats: 1,
                },
            ],
        }
    }
    fn rank_class(&self, rank: u32, _nranks: u32) -> Option<u64> {
        self.with_keys.then(|| u64::from(rank < self.split))
    }
}

proptest! {
    /// The class-deduplicated engine is bit-identical to the frozen naive
    /// per-rank walk on randomized master/worker splits — with and without
    /// app-provided class keys.
    #[test]
    fn dedup_matches_naive_on_random_splits(
        nranks in 2u32..24,
        split_seed in 0u32..1024,
        master_iters in 1u64..100_000,
        worker_iters in 1u64..100_000,
        bytes in 1u64..1_000_000,
    ) {
        // A non-uniform master/worker boundary: anywhere from a single
        // master to all-but-one masters.
        let split = 1 + split_seed % (nranks - 1);
        let net = NetworkModel::new(1e-6, 1e9);
        let keyless = SplitApp { split, master_iters, worker_iters, bytes, with_keys: false };
        let keyed = SplitApp { with_keys: true, ..keyless };

        let programs: Vec<RankProgram> =
            (0..nranks).map(|r| keyless.rank_program(r, nranks)).collect();
        let naive =
            simulate_naive(&programs, &net, &mut NominalComputeModel::default())
                .expect("naive walk");
        let structural = try_sim(&keyless, nranks, &net).expect("structural dedup");
        let fast = try_sim(&keyed, nranks, &net).expect("keyed dedup");
        prop_assert_eq!(&structural, &naive);
        prop_assert_eq!(&fast, &naive);
    }

    /// Parallel bulk-synchronous stepping reassembles chunks in rank order:
    /// at the engine's rank threshold a 4-thread pool takes the chunked
    /// path, a 1-thread pool the serial one, and the reports are
    /// bit-identical.
    #[test]
    fn parallel_stepping_is_thread_invariant(
        nranks in 256u32..1024,
        split_seed in 0u32..1024,
        master_iters in 1u64..100_000,
        worker_iters in 1u64..100_000,
        bytes in 1u64..1_000_000,
    ) {
        // A non-uniform master/worker boundary: anywhere from a single
        // master to all-but-one masters.
        let split = 1 + split_seed % (nranks - 1);
        let net = NetworkModel::new(1e-6, 1e9);
        let app = SplitApp { split, master_iters, worker_iters, bytes, with_keys: true };
        let classes = RankClasses::try_from_app(&app, nranks).expect("classes build");

        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let obs = ObsContext::with_recorder(Recorder::new());
            let report = pool
                .install(|| simulate(&classes, &net, &mut NominalComputeModel::default(), &obs))
                .expect("stepping");
            (report, obs.snapshot().expect("recording context").counters)
        };
        let (serial, serial_counters) = run(1);
        let (parallel, par_counters) = run(4);
        prop_assert_eq!(serial_counters.get("sched.spmd.serial_sims"), Some(&1));
        prop_assert_eq!(par_counters.get("sched.spmd.parallel_sims"), Some(&1));
        prop_assert_eq!(&parallel, &serial);
    }
}

proptest! {
    /// Total runtime is at least the slowest rank's compute time, and every
    /// rank finishes together after a trailing collective.
    #[test]
    fn total_bounded_below_by_slowest_compute(
        weights in proptest::collection::vec(1u64..100_000, 1..24),
    ) {
        let app = Weighted { weights: weights.clone() };
        let net = NetworkModel::new(1e-6, 1e9);
        let report = sim(&app, weights.len() as u32, &net);
        let max_compute = report
            .ranks
            .iter()
            .map(|r| r.compute_s)
            .fold(0.0f64, f64::max);
        prop_assert!(report.total_seconds >= max_compute);
        for r in &report.ranks {
            prop_assert!((r.finish_s - report.total_seconds).abs() < 1e-12);
            prop_assert!(r.comm_s >= 0.0);
            prop_assert!(r.compute_s >= 0.0);
        }
    }

    /// The most computational rank is an argmax of the weights (first one
    /// on ties).
    #[test]
    fn longest_rank_is_the_heaviest(
        weights in proptest::collection::vec(1u64..100_000, 1..24),
    ) {
        let app = Weighted { weights: weights.clone() };
        let net = NetworkModel::new(1e-6, 1e9);
        let report = sim(&app, weights.len() as u32, &net);
        let longest = report.most_computational_rank() as usize;
        let max = *weights.iter().max().unwrap();
        prop_assert_eq!(weights[longest], max);
        // First-max tie break.
        let first_max = weights.iter().position(|&w| w == max).unwrap();
        prop_assert_eq!(longest, first_max);
    }

    /// Network costs are monotone in payload and participant count.
    #[test]
    fn network_costs_are_monotone(
        bytes_small in 0u64..1_000_000,
        extra in 1u64..1_000_000,
        p_small in 2u32..4096,
        p_factor in 2u32..8,
    ) {
        let net = NetworkModel::new(2e-6, 5e9);
        let bytes_large = bytes_small + extra;
        let p_large = p_small * p_factor;
        prop_assert!(net.p2p(bytes_large) > net.p2p(bytes_small));
        prop_assert!(net.allreduce(p_large, bytes_small) >= net.allreduce(p_small, bytes_small));
        prop_assert!(net.broadcast(p_small, bytes_large) > net.broadcast(p_small, bytes_small));
        prop_assert!(net.alltoall(p_large, bytes_small) > net.alltoall(p_small, bytes_small));
        prop_assert!(net.barrier(p_large) >= net.barrier(p_small));
    }

    /// Tree depth is exactly ceil(log2 P).
    #[test]
    fn tree_depth_is_ceil_log2(p in 1u32..1_000_000) {
        let d = NetworkModel::tree_depth(p);
        prop_assert!(1u64 << d >= u64::from(p));
        if d > 0 {
            prop_assert!(1u64 << (d - 1) < u64::from(p));
        }
    }

    /// Simulation is deterministic.
    #[test]
    fn simulation_is_deterministic(
        weights in proptest::collection::vec(1u64..10_000, 2..12),
    ) {
        let app = Weighted { weights: weights.clone() };
        let net = NetworkModel::new(1e-6, 1e9);
        let a = sim(&app, weights.len() as u32, &net);
        let b = sim(&app, weights.len() as u32, &net);
        prop_assert_eq!(a, b);
    }
}
