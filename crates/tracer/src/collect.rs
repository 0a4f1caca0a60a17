//! Trace collection: interpret a rank's program against a target cache.
//!
//! The Figure-2 pipeline, end to end: rank program → address stream →
//! on-the-fly cache simulation → per-instruction feature vectors. Dynamic
//! counts (executions, memory ops, FP ops) are exact, derived from the
//! program structure; hit rates are measured by streaming a bounded sample
//! of each block's references through the simulator (blocks reach steady
//! state within their first region sweep, so a multi-million-reference
//! sample pins the rates while keeping full-scale traces tractable).
//!
//! Each block is simulated against its **own** [`CacheHierarchy`]: blocks
//! are independent units of work, which lets [`collect_task_trace`] fan out
//! over them with rayon and lets [`SigMemo`] reuse one block's simulation
//! wherever the identical block recurs (other ranks, other core counts).
//! The warmup window that already guards sampled blocks against
//! compulsory-miss bias equally amortizes the per-block cold start, so
//! per-block hit rates agree with the shared-cache formulation within
//! sampling tolerance (asserted by this module's tests).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use rayon::prelude::*;
use xtrace_cache::{CacheHierarchy, LevelCounts};
use xtrace_ir::{AccessRing, AccessStream, BlockId, InstrKind, MemOp};
use xtrace_machine::MachineProfile;
use xtrace_obs::ObsContext;
use xtrace_spmd::{RankEvent, RankProgram, SpmdApp};

use crate::memo::{block_sim_key, SigMemo};
use crate::sig::{AppSignature, BlockRecord, FeatureVector, InstrRecord, TaskTrace};

/// Collection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerConfig {
    /// Maximum references streamed through the cache simulator per block.
    /// Counts stay exact regardless; only hit-rate estimation is sampled.
    pub max_sampled_refs_per_block: u64,
    /// Base seed for random address patterns (mixed with the rank so
    /// different tasks gather different, reproducible, streams).
    pub seed: u64,
    /// Capacity, in references, of the bounded ring buffer between address
    /// generation and cache simulation ([`xtrace_ir::AccessRing`]). The
    /// stream is produced and consumed chunk-at-a-time, so a block's peak
    /// buffered footprint is this capacity no matter how many references
    /// it generates; results are bit-identical at any setting because
    /// chunking preserves access order exactly. `0` selects the direct
    /// unbuffered sink path (the reference formulation, kept for
    /// equivalence tests). A chunk always holds at least one whole
    /// iteration, so blocks with more references per iteration than this
    /// capacity still make progress.
    pub stream_chunk_refs: u64,
}

impl Default for TracerConfig {
    /// 8 Mi references per block: the sampled window's streamed footprint
    /// (tens of MB) comfortably exceeds any last-level cache in the machine
    /// presets, so capacity thrashing on large regions is visible in the
    /// sampled hit rates, not hidden by a window that fits in cache.
    /// The 32 Ki-reference ring keeps the generator/simulator hand-off
    /// bounded (sub-MB per in-flight block) without measurable overhead.
    fn default() -> Self {
        Self {
            max_sampled_refs_per_block: 1 << 23,
            seed: 0x5EED,
            stream_chunk_refs: 1 << 15,
        }
    }
}

impl TracerConfig {
    /// A light configuration for tests. The small ring makes even short
    /// sampled windows span several fill/drain chunks, so tests exercise
    /// the chunk boundary logic.
    pub fn fast() -> Self {
        Self {
            max_sampled_refs_per_block: 1 << 16,
            seed: 0x5EED,
            stream_chunk_refs: 1 << 12,
        }
    }
}

/// Collects the full application signature at `nranks`: runs the
/// lightweight MPI profiling pass to find the most computationally
/// demanding task, then traces that task against `machine`'s hierarchy.
///
/// Block simulations are answered from the caller-owned [`SigMemo`], so a
/// training sweep over several core counts reuses identical block
/// simulations across calls (memoization never changes the result — the
/// key covers every simulation input); a one-off collection passes a fresh
/// memo.
pub fn collect_signature_memo_obs(
    app: &dyn SpmdApp,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
    memo: &SigMemo,
    obs: &ObsContext,
) -> AppSignature {
    // Journal: one wall-clock duration per collected core count. Emitted
    // from this serial entry point (never from the per-block rayon
    // fan-out below it), so the event order is deterministic.
    let journal = obs.journal();
    let (hits_before, misses_before) = (memo.hits(), memo.misses());
    if journal.enabled() {
        journal.begin(
            &format!("p{nranks}"),
            "collect",
            &[("nranks", f64::from(nranks))],
        );
    }
    let comm = xtrace_spmd::profile(app, nranks, &machine.net, obs);
    let trace = collect_task_trace(
        app,
        comm.longest_rank,
        nranks,
        machine,
        cfg,
        Some(memo),
        obs,
    );
    if journal.enabled() {
        // The memo burst this count contributed. Totals are scheduling-
        // invariant (see the pipeline's Collect stage), so this survives
        // masking.
        journal.instant(
            "tracer.memo.burst",
            "collect",
            &[
                ("hits", (memo.hits() - hits_before) as f64),
                ("misses", (memo.misses() - misses_before) as f64),
            ],
        );
        journal.end(
            &format!("p{nranks}"),
            "collect",
            &[
                ("longest_rank", f64::from(comm.longest_rank)),
                ("blocks", trace.blocks.len() as f64),
            ],
        );
    }
    AppSignature {
        traces: vec![trace],
        comm,
    }
}

/// Traces several ranks in parallel (used by the Section-VI clustering
/// extension, which needs more than the longest task), deduplicating
/// identical block simulations through the shared, caller-owned
/// [`SigMemo`] — so repeated collections (e.g. the training sweep over
/// several core counts) reuse block simulations across calls and the
/// caller can read the hit/miss counters. `obs` is shared across the rank
/// fan-out (`ObsContext` is `Sync`).
pub fn collect_ranks(
    app: &(dyn SpmdApp + Sync),
    ranks: &[u32],
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
    memo: &SigMemo,
    obs: &ObsContext,
) -> Vec<TaskTrace> {
    ranks
        .par_iter()
        .map(|&r| collect_task_trace(app, r, nranks, machine, cfg, Some(memo), obs))
        .collect()
}

/// The seed rank `rank`'s address streams are generated from when the app
/// provides no rank-equivalence keys — shared with the ground-truth
/// simulator so both walk bit-identical streams.
pub fn rank_stream_seed(cfg: &TracerConfig, rank: u32) -> u64 {
    cfg.seed ^ xtrace_ir::rng::SplitMix64::mix(u64::from(rank) << 20)
}

/// Class-aware stream seed: the seed actually used by collection and
/// ground truth.
///
/// Ranks the engine already treats as interchangeable — equal
/// [`SpmdApp::rank_class`] keys, meaning identical programs up to exchange
/// neighbor lists — walk bit-identical synthetic address streams, seeded
/// from the lowest rank of their class. Random-pattern block simulations
/// then memoize across a whole class instead of being re-simulated per
/// rank, which is what lets wide collection (many ranks per core count)
/// scale with the number of *classes* rather than ranks. Apps that opt
/// out of class keys keep the per-rank [`rank_stream_seed`], and a rank
/// that is its class's lowest member (every singleton class, e.g. a
/// master rank) is seeded exactly as before.
pub fn rank_stream_seed_for(app: &dyn SpmdApp, cfg: &TracerConfig, rank: u32, nranks: u32) -> u64 {
    rank_stream_seed(cfg, class_seed_rank(app, rank, nranks))
}

/// The lowest rank sharing `rank`'s equivalence class (the class's seed
/// donor), or `rank` itself without class keys. Class keys are O(1)
/// arithmetic for the proxy apps, so the scan is cheap.
fn class_seed_rank(app: &dyn SpmdApp, rank: u32, nranks: u32) -> u32 {
    let Some(key) = app.rank_class(rank, nranks) else {
        return rank;
    };
    (0..rank)
        .find(|&r| app.rank_class(r, nranks) == Some(key))
        .unwrap_or(rank)
}

/// Traces a single MPI task: the core of the signature pipeline. Block
/// simulations are answered from `memo` when one is supplied; memoization
/// never changes the result, since the key covers every input of the
/// simulation (see [`crate::memo`]). Block-simulation telemetry goes to
/// `obs`.
pub fn collect_task_trace(
    app: &dyn SpmdApp,
    rank: u32,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
    memo: Option<&SigMemo>,
    obs: &ObsContext,
) -> TaskTrace {
    let rp = app.rank_program(rank, nranks);
    let depth = machine.depth();

    // Fold repeated Compute events per block, preserving first-appearance
    // order.
    let mut order: Vec<(BlockId, u64)> = Vec::new();
    let mut slot: HashMap<BlockId, usize> = HashMap::new();
    for ev in &rp.events {
        if let RankEvent::Compute { block, invocations } = ev {
            match slot.entry(*block) {
                Entry::Occupied(e) => order[*e.get()].1 += invocations,
                Entry::Vacant(e) => {
                    e.insert(order.len());
                    order.push((*block, *invocations));
                }
            }
        }
    }

    let rank_seed = rank_stream_seed_for(app, cfg, rank, nranks);
    // Blocks own their simulator state, so they trace independently; the
    // rayon collect is ordered, keeping block order (and therefore the
    // trace) identical at any thread count.
    let blocks = order
        .par_iter()
        .map(|&(block_id, inv)| trace_block(&rp, block_id, inv, machine, cfg, rank_seed, memo, obs))
        .collect();

    TaskTrace {
        app: app.name().to_string(),
        rank,
        nranks,
        machine: machine.name.clone(),
        depth,
        blocks,
    }
}

/// Traces one folded block: sampled cache simulation (possibly memoized)
/// plus exact dynamic counts.
#[allow(clippy::too_many_arguments)]
fn trace_block(
    rp: &RankProgram,
    block_id: BlockId,
    inv: u64,
    machine: &MachineProfile,
    cfg: &TracerConfig,
    rank_seed: u64,
    memo: Option<&SigMemo>,
    obs: &ObsContext,
) -> BlockRecord {
    let depth = machine.depth();
    let blk = rp.program.block(block_id);
    let refs_per_iter: u64 = blk
        .instrs
        .iter()
        .filter(|i| i.is_mem())
        .map(|i| u64::from(i.repeat))
        .sum();
    let total_iters = blk.iterations.saturating_mul(inv);

    // Sample: bounded number of iterations streamed through the cache.
    // A warmup window runs first (uncounted) whenever the block's full
    // run extends beyond the sample, so compulsory misses — amortized
    // to nothing over the real run — do not bias the sampled rates.
    // Fully simulated blocks get no warmup: their cold misses are real.
    let per_instr: Arc<Vec<LevelCounts>> = if refs_per_iter > 0 && total_iters > 0 {
        let sample_iters = total_iters.min((cfg.max_sampled_refs_per_block / refs_per_iter).max(1));
        let warmup_iters = sample_iters.min(total_iters - sample_iters);
        let simulate = || {
            // Observability: one registration per block *simulation* (a
            // memo hit never reaches this closure), so the per-reference
            // loop below stays untouched. Totals are scheduling-invariant:
            // the memo computes each unique key exactly once.
            let metrics = obs.metrics();
            metrics.counter("tracer.blocks_simulated").incr();
            metrics
                .histogram("tracer.block_sample_refs")
                .record(sample_iters.saturating_mul(refs_per_iter));
            let mut cache = CacheHierarchy::try_new(machine.hierarchy.clone())
                .expect("machine profile carries a valid hierarchy");
            let mut counts = vec![LevelCounts::default(); blk.instrs.len()];
            let mut stream = AccessStream::new(&rp.program, block_id, rank_seed);
            if cfg.stream_chunk_refs == 0 {
                // Reference formulation: every access goes straight from
                // the generator into the simulator, nothing buffered.
                stream.run_iterations(warmup_iters, &mut |a| {
                    cache.access(a.addr, a.bytes);
                });
                stream.run_iterations(sample_iters, &mut |a| {
                    let lvl = cache.access(a.addr, a.bytes);
                    counts[a.instr.index()].record(lvl);
                });
            } else {
                // Streaming formulation: fill a bounded ring with whole
                // iterations, drain it through the simulator as one flat
                // contiguous slice, repeat. Order — and therefore every
                // count — is identical to the direct path; peak buffered
                // memory is the ring capacity. The floor of one iteration
                // guarantees progress for wide blocks.
                let cap = cfg.stream_chunk_refs.max(refs_per_iter) as usize;
                let mut ring = AccessRing::with_capacity(cap);
                let mut left = warmup_iters;
                while left > 0 {
                    left -= stream.fill_ring(&mut ring, left);
                    cache.warm(ring.as_slice().iter().map(|a| (a.addr, a.bytes)));
                    ring.clear();
                }
                let mut left = sample_iters;
                while left > 0 {
                    left -= stream.fill_ring(&mut ring, left);
                    for a in ring.as_slice() {
                        let lvl = cache.access(a.addr, a.bytes);
                        counts[a.instr.index()].record(lvl);
                    }
                    ring.clear();
                }
                // High-water marks for the bounded-memory CI assertion.
                // Deterministic: occupancy depends only on the block's
                // geometry and the configured capacity, never scheduling.
                metrics
                    .gauge("tracer.ring.peak_refs")
                    .set_max(ring.peak() as u64);
                metrics
                    .gauge("tracer.ring.capacity_refs")
                    .set_max(cap as u64);
            }
            counts
        };
        match memo {
            Some(m) => {
                // Same derivation as AccessStream's per-instruction seed.
                let key = block_sim_key(
                    &rp.program,
                    blk,
                    machine,
                    warmup_iters,
                    sample_iters,
                    |idx| {
                        xtrace_ir::rng::SplitMix64::mix(
                            rank_seed ^ (u64::from(block_id.0) << 32) ^ idx as u64,
                        )
                    },
                );
                m.get_or_compute(key, simulate)
            }
            None => Arc::new(simulate()),
        }
    } else {
        Arc::new(vec![LevelCounts::default(); blk.instrs.len()])
    };

    let instrs = blk
        .instrs
        .iter()
        .enumerate()
        .map(|(idx, ins)| {
            let exec = total_iters as f64 * f64::from(ins.repeat);
            let mut f = FeatureVector {
                exec_count: exec,
                ilp: blk.ilp,
                ..Default::default()
            };
            let pattern;
            match ins.kind {
                InstrKind::Mem {
                    op,
                    region,
                    bytes,
                    pattern: pat,
                } => {
                    pattern = pat.label().to_string();
                    f.mem_ops = exec;
                    match op {
                        MemOp::Load => f.loads = exec,
                        MemOp::Store => f.stores = exec,
                    }
                    f.bytes_per_ref = f64::from(bytes);
                    f.working_set = rp.program.region(region).bytes as f64;
                    let counts = &per_instr[idx];
                    if counts.accesses > 0 {
                        for (l, rate) in f.hit_rates.iter_mut().enumerate().take(depth) {
                            *rate = counts.hit_rate_cum(l);
                        }
                        for rate in f.hit_rates.iter_mut().skip(depth) {
                            *rate = 1.0;
                        }
                    }
                }
                InstrKind::Fp { op } => {
                    pattern = "fp".to_string();
                    match op {
                        xtrace_ir::FpOp::Add => f.fp_add = exec,
                        xtrace_ir::FpOp::Mul => f.fp_mul = exec,
                        xtrace_ir::FpOp::Div => f.fp_div = exec,
                        xtrace_ir::FpOp::Sqrt => f.fp_sqrt = exec,
                        xtrace_ir::FpOp::Fma => f.fp_fma = exec,
                    }
                }
            }
            InstrRecord {
                instr: idx as u32,
                pattern,
                features: f,
            }
        })
        .collect();

    BlockRecord {
        name: blk.name.clone(),
        source: blk.source.clone(),
        invocations: inv,
        iterations: blk.iterations,
        instrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace_cache::{CacheLevelConfig, HierarchyConfig};
    use xtrace_ir::{AddressPattern, BasicBlock, BlockId, FpOp, Instruction, Program, SourceLoc};
    use xtrace_machine::{FpRates, MemoryCostModel, SweepConfig};
    use xtrace_spmd::{NetworkModel, RankProgram};

    fn machine() -> MachineProfile {
        MachineProfile::new(
            "test-machine",
            HierarchyConfig::new(
                vec![
                    CacheLevelConfig::lru("L1", 4 * 1024, 64, 4, 2.0),
                    CacheLevelConfig::lru("L2", 64 * 1024, 64, 8, 12.0),
                ],
                160.0,
            )
            .unwrap(),
            2e9,
            FpRates::generic(),
            NetworkModel::new(1e-6, 1e9),
            MemoryCostModel::default(),
            SweepConfig::coarse(),
            0.8,
        )
        .expect("valid test machine")
    }

    /// One block: resident unit-stride loads into a 2 KiB region plus FMAs,
    /// non-resident random loads into a 1 MiB region.
    struct TwoRegion;
    impl SpmdApp for TwoRegion {
        fn name(&self) -> &str {
            "two-region"
        }
        fn rank_program(&self, _rank: u32, _nranks: u32) -> RankProgram {
            let mut b = Program::builder();
            let hot = b.region("hot", 2 * 1024, 8);
            let cold = b.region("cold", 1024 * 1024, 8);
            let blk = b.block(BasicBlock::new(
                BlockId(0),
                "mixed",
                SourceLoc::new("t.c", 1, "f"),
                4096,
                vec![
                    Instruction::mem(xtrace_ir::MemOp::Load, hot, 8, AddressPattern::unit(8)),
                    Instruction::mem(xtrace_ir::MemOp::Load, cold, 8, AddressPattern::Random),
                    Instruction::mem(xtrace_ir::MemOp::Store, hot, 8, AddressPattern::unit(8)),
                    Instruction::fp(FpOp::Fma).with_repeat(3),
                ],
            ));
            RankProgram {
                program: b.build().unwrap(),
                events: vec![
                    RankEvent::Compute {
                        block: blk,
                        invocations: 5,
                    },
                    RankEvent::Compute {
                        block: blk,
                        invocations: 5,
                    },
                    RankEvent::Barrier { repeats: 1 },
                ],
            }
        }
    }

    /// Two long-running strided blocks over separate regions — no random
    /// patterns, so its simulations are seed-independent.
    struct TwoBlocks;
    impl SpmdApp for TwoBlocks {
        fn name(&self) -> &str {
            "two-blocks"
        }
        fn rank_program(&self, _rank: u32, _nranks: u32) -> RankProgram {
            let mut b = Program::builder();
            let ra = b.region("a", 16 * 1024, 8);
            let rb = b.region("b", 128 * 1024, 8);
            let b0 = b.block(BasicBlock::new(
                BlockId(0),
                "sweep-a",
                SourceLoc::new("t.c", 10, "fa"),
                8192,
                vec![Instruction::mem(
                    xtrace_ir::MemOp::Load,
                    ra,
                    8,
                    AddressPattern::unit(8),
                )],
            ));
            let b1 = b.block(BasicBlock::new(
                BlockId(1),
                "sweep-b",
                SourceLoc::new("t.c", 20, "fb"),
                8192,
                vec![Instruction::mem(
                    xtrace_ir::MemOp::Store,
                    rb,
                    8,
                    AddressPattern::Strided { stride: 64 },
                )],
            ));
            RankProgram {
                program: b.build().unwrap(),
                events: vec![
                    RankEvent::Compute {
                        block: b0,
                        invocations: 8,
                    },
                    RankEvent::Compute {
                        block: b1,
                        invocations: 8,
                    },
                ],
            }
        }
    }

    /// Traces `rank` of a 4-rank job on the test machine, unmemoized.
    fn trace(app: &dyn SpmdApp, rank: u32, cfg: &TracerConfig) -> TaskTrace {
        collect_task_trace(app, rank, 4, &machine(), cfg, None, &ObsContext::disabled())
    }

    #[test]
    fn counts_are_exact_and_events_fold() {
        let t = trace(&TwoRegion, 0, &TracerConfig::fast());
        assert_eq!(t.blocks.len(), 1);
        let b = &t.blocks[0];
        assert_eq!(b.invocations, 10, "two Compute events folded");
        // exec = 10 invocations × 4096 iterations.
        let exec = 10.0 * 4096.0;
        assert_eq!(b.instrs[0].features.mem_ops, exec);
        assert_eq!(b.instrs[0].features.loads, exec);
        assert_eq!(b.instrs[2].features.stores, exec);
        assert_eq!(b.instrs[3].features.fp_fma, exec * 3.0);
        assert_eq!(b.instrs[3].features.mem_ops, 0.0);
    }

    #[test]
    fn hit_rates_reflect_residency() {
        let t = trace(&TwoRegion, 0, &TracerConfig::fast());
        let b = &t.blocks[0];
        let hot = &b.instrs[0].features;
        let cold = &b.instrs[1].features;
        // The unit-stride walk hits at least the spatial-locality floor
        // (7/8 for 8-byte elements on 64-byte lines); the interleaved
        // random stream evicts the region between revisits, so full
        // residency is not expected.
        assert!(hot.hit_rates[0] >= 0.87, "hot L1 {}", hot.hit_rates[0]);
        assert!(
            hot.hit_rates[0] > cold.hit_rates[0] + 0.5,
            "strided must beat random: {} vs {}",
            hot.hit_rates[0],
            cold.hit_rates[0]
        );
        // 1 MiB random in a 64 KiB L2: mostly misses everywhere.
        assert!(cold.hit_rates[1] < 0.2, "cold L2 {}", cold.hit_rates[1]);
        // Cumulative monotonicity.
        assert!(cold.hit_rates[0] <= cold.hit_rates[1] + 1e-12);
    }

    #[test]
    fn working_set_is_region_footprint() {
        let t = trace(&TwoRegion, 0, &TracerConfig::fast());
        let b = &t.blocks[0];
        assert_eq!(b.instrs[0].features.working_set, 2048.0);
        assert_eq!(b.instrs[1].features.working_set, 1048576.0);
        assert_eq!(b.instrs[3].features.working_set, 0.0);
    }

    #[test]
    fn pattern_labels_recorded() {
        let t = trace(&TwoRegion, 0, &TracerConfig::fast());
        let b = &t.blocks[0];
        assert_eq!(b.instrs[0].pattern, "strided");
        assert_eq!(b.instrs[1].pattern, "random");
        assert_eq!(b.instrs[3].pattern, "fp");
    }

    #[test]
    fn collection_is_deterministic() {
        let a = trace(&TwoRegion, 0, &TracerConfig::fast());
        let b = trace(&TwoRegion, 0, &TracerConfig::fast());
        assert_eq!(a, b);
    }

    #[test]
    fn different_ranks_get_different_random_streams_but_same_counts() {
        let cfg = TracerConfig::fast();
        let a = trace(&TwoRegion, 0, &cfg);
        let b = trace(&TwoRegion, 1, &cfg);
        assert_eq!(
            a.blocks[0].instrs[0].features.mem_ops,
            b.blocks[0].instrs[0].features.mem_ops
        );
    }

    /// [`TwoRegion`] with rank-equivalence keys: even and odd ranks form
    /// two classes. Every rank's program is identical, so any grouping
    /// honors the [`SpmdApp::rank_class`] contract.
    struct ClassyTwoRegion;
    impl SpmdApp for ClassyTwoRegion {
        fn name(&self) -> &str {
            "classy-two-region"
        }
        fn rank_program(&self, rank: u32, nranks: u32) -> RankProgram {
            TwoRegion.rank_program(rank, nranks)
        }
        fn rank_class(&self, rank: u32, _nranks: u32) -> Option<u64> {
            Some(u64::from(rank % 2))
        }
    }

    #[test]
    fn same_class_ranks_walk_identical_streams_and_memoize() {
        let m = machine();
        let cfg = TracerConfig::fast();
        // Ranks 1 and 3 share a class: both are seeded from the class's
        // lowest rank (1), so their traces match and rank 3's block
        // simulations are answered entirely from the memo.
        let memo = SigMemo::new();
        let a = collect_task_trace(
            &ClassyTwoRegion,
            1,
            4,
            &m,
            &cfg,
            Some(&memo),
            &ObsContext::disabled(),
        );
        let misses_after_first = memo.misses();
        let b = collect_task_trace(
            &ClassyTwoRegion,
            3,
            4,
            &m,
            &cfg,
            Some(&memo),
            &ObsContext::disabled(),
        );
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(memo.misses(), misses_after_first, "rank 3 should only hit");
        // A rank of the other class draws a different random stream.
        let c = collect_task_trace(
            &ClassyTwoRegion,
            2,
            4,
            &m,
            &cfg,
            Some(&memo),
            &ObsContext::disabled(),
        );
        assert_ne!(a.blocks, c.blocks);
        // The class's lowest member is seeded exactly like the keyless app,
        // so opting in to classes never changes a representative's trace.
        let plain = trace(&TwoRegion, 1, &cfg);
        assert_eq!(a.blocks, plain.blocks);
    }

    #[test]
    fn signature_contains_longest_task() {
        let m = machine();
        let sig = collect_signature_memo_obs(
            &TwoRegion,
            4,
            &m,
            &TracerConfig::fast(),
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        assert_eq!(sig.traces.len(), 1);
        let t = sig.longest_task();
        assert_eq!(t.rank, sig.comm.longest_rank);
        assert_eq!(t.machine, "test-machine");
        assert_eq!(t.depth, 2);
    }

    #[test]
    fn collect_ranks_traces_each_requested_rank() {
        let m = machine();
        let traces = collect_ranks(
            &TwoRegion,
            &[0, 2, 3],
            4,
            &m,
            &TracerConfig::fast(),
            &SigMemo::new(),
            &ObsContext::disabled(),
        );
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].rank, 0);
        assert_eq!(traces[1].rank, 2);
        assert_eq!(traces[2].rank, 3);
    }

    #[test]
    fn sampling_cap_does_not_change_counts() {
        let small = trace(
            &TwoRegion,
            0,
            &TracerConfig {
                max_sampled_refs_per_block: 1 << 10,
                seed: 1,
                ..TracerConfig::default()
            },
        );
        let large = trace(
            &TwoRegion,
            0,
            &TracerConfig {
                max_sampled_refs_per_block: 1 << 20,
                seed: 1,
                ..TracerConfig::default()
            },
        );
        assert_eq!(
            small.blocks[0].instrs[0].features.mem_ops,
            large.blocks[0].instrs[0].features.mem_ops
        );
        // Hit rates close (sampling convergence).
        let d = (small.blocks[0].instrs[0].features.hit_rates[0]
            - large.blocks[0].instrs[0].features.hit_rates[0])
            .abs();
        assert!(d < 0.05, "sampled hit rate off by {d}");
    }

    #[test]
    fn hit_rates_beyond_depth_stay_one() {
        let t = trace(&TwoRegion, 0, &TracerConfig::fast());
        for b in &t.blocks {
            for i in &b.instrs {
                assert_eq!(i.features.hit_rates[2], 1.0);
                assert_eq!(i.features.hit_rates[3], 1.0);
            }
        }
    }

    /// The per-block-cache formulation must agree with the historical
    /// shared-cache formulation (one hierarchy threaded through all blocks
    /// in order) within sampling tolerance: warmup absorbs the per-block
    /// cold start.
    #[test]
    fn per_block_caches_match_shared_cache_within_tolerance() {
        let m = machine();
        let cfg = TracerConfig::fast();
        let t = trace(&TwoBlocks, 0, &cfg);

        // Shared-cache reference: replicate the sampling windows with one
        // hierarchy carried across blocks.
        let rp = TwoBlocks.rank_program(0, 4);
        let rank_seed = rank_stream_seed(&cfg, 0);
        let mut cache = CacheHierarchy::try_new(m.hierarchy.clone()).unwrap();
        let mut shared_l1 = Vec::new();
        for (block_id, inv) in [(BlockId(0), 8u64), (BlockId(1), 8u64)] {
            let blk = rp.program.block(block_id);
            let refs_per_iter: u64 = blk
                .instrs
                .iter()
                .filter(|i| i.is_mem())
                .map(|i| u64::from(i.repeat))
                .sum();
            let total_iters = blk.iterations * inv;
            let sample_iters =
                total_iters.min((cfg.max_sampled_refs_per_block / refs_per_iter).max(1));
            let warmup_iters = sample_iters.min(total_iters - sample_iters);
            let mut counts = vec![LevelCounts::default(); blk.instrs.len()];
            let mut stream = AccessStream::new(&rp.program, block_id, rank_seed);
            stream.run_iterations(warmup_iters, &mut |a| {
                cache.access(a.addr, a.bytes);
            });
            stream.run_iterations(sample_iters, &mut |a| {
                let lvl = cache.access(a.addr, a.bytes);
                counts[a.instr.index()].record(lvl);
            });
            shared_l1.push(counts[0].hit_rate_cum(0));
        }

        for (b, shared) in t.blocks.iter().zip(&shared_l1) {
            let got = b.instrs[0].features.hit_rates[0];
            assert!(
                (got - shared).abs() < 0.02,
                "block {}: per-block {} vs shared {}",
                b.name,
                got,
                shared
            );
        }
    }

    /// Chunked ring-buffer streaming must be invisible: at any capacity —
    /// including ones far smaller than a block's sampled window — the
    /// collected trace is bit-identical to the direct unbuffered path.
    #[test]
    fn streaming_chunks_are_bit_identical_to_direct() {
        let direct = TracerConfig {
            stream_chunk_refs: 0,
            ..TracerConfig::fast()
        };
        let ref_two_region = trace(&TwoRegion, 0, &direct);
        let ref_two_blocks = trace(&TwoBlocks, 1, &direct);
        for chunk in [1u64, 7, 1 << 6, 1 << 12, 1 << 22] {
            let cfg = TracerConfig {
                stream_chunk_refs: chunk,
                ..TracerConfig::fast()
            };
            assert_eq!(
                trace(&TwoRegion, 0, &cfg),
                ref_two_region,
                "chunk {chunk} perturbed TwoRegion"
            );
            assert_eq!(
                trace(&TwoBlocks, 1, &cfg),
                ref_two_blocks,
                "chunk {chunk} perturbed TwoBlocks"
            );
        }
    }

    /// The ring's high-water occupancy never exceeds the effective
    /// capacity (configured, or one whole iteration for wide blocks).
    #[test]
    fn ring_occupancy_is_bounded_by_capacity() {
        let m = machine();
        let obs = ObsContext::with_recorder(xtrace_obs::Recorder::new());
        let metrics = obs.metrics();
        let cfg = TracerConfig {
            stream_chunk_refs: 64,
            ..TracerConfig::fast()
        };
        let _ = collect_task_trace(&TwoRegion, 0, 4, &m, &cfg, None, &obs);
        let peak = metrics.gauge("tracer.ring.peak_refs").get();
        let cap = metrics.gauge("tracer.ring.capacity_refs").get();
        assert!(peak > 0, "streaming path must report an occupancy");
        assert!(peak <= cap, "peak {peak} exceeds capacity {cap}");
    }

    #[test]
    fn memo_reuses_identical_simulations_without_changing_results() {
        let m = machine();
        let cfg = TracerConfig::fast();
        let (memo, obs) = (SigMemo::new(), ObsContext::disabled());
        let plain = trace(&TwoRegion, 0, &cfg);
        let first = collect_task_trace(&TwoRegion, 0, 4, &m, &cfg, Some(&memo), &obs);
        let second = collect_task_trace(&TwoRegion, 0, 4, &m, &cfg, Some(&memo), &obs);
        assert_eq!(first, plain, "memoized collection must be bit-identical");
        assert_eq!(second, plain);
        assert_eq!(memo.misses(), 1, "one unique block simulated once");
        assert_eq!(memo.hits(), 1, "second collection answered from memo");
        assert_eq!(memo.len(), 1);
        assert!((memo.hit_rate() - 0.5).abs() < 1e-12);
        // A one-off signature collection through a fresh memo equals the
        // unmemoized composition: profile, then trace the longest rank.
        for app in [&TwoRegion as &dyn SpmdApp, &TwoBlocks] {
            let sig = collect_signature_memo_obs(app, 4, &m, &cfg, &SigMemo::new(), &obs);
            let comm = xtrace_spmd::profile(app, 4, &m.net, &obs);
            let longest = trace(app, comm.longest_rank, &cfg);
            assert_eq!(
                sig,
                AppSignature {
                    traces: vec![longest],
                    comm
                },
                "{}",
                app.name()
            );
        }
    }

    #[test]
    fn memo_dedups_deterministic_blocks_across_ranks() {
        let m = machine();
        let cfg = TracerConfig::fast();
        let memo = SigMemo::new();
        // TwoBlocks has no Random patterns: the per-rank seed does not
        // reach any address, so other ranks replay rank 0's simulations.
        let traces = collect_ranks(
            &TwoBlocks,
            &[0, 1, 2, 3],
            4,
            &m,
            &cfg,
            &memo,
            &ObsContext::disabled(),
        );
        assert_eq!(traces.len(), 4);
        assert_eq!(memo.len(), 2, "two unique blocks in the whole job");
        assert_eq!(memo.misses(), 2);
        assert_eq!(memo.hits(), 6, "3 further ranks × 2 blocks each");
        for t in &traces[1..] {
            assert_eq!(
                t.blocks[0].instrs[0].features.hit_rates,
                traces[0].blocks[0].instrs[0].features.hit_rates
            );
        }
    }

    #[test]
    fn memo_keeps_random_blocks_rank_specific() {
        let m = machine();
        let cfg = TracerConfig::fast();
        let memo = SigMemo::new();
        let _ = collect_ranks(
            &TwoRegion,
            &[0, 1],
            4,
            &m,
            &cfg,
            &memo,
            &ObsContext::disabled(),
        );
        // The single block contains a Random-pattern load, whose stream
        // depends on the rank seed: no cross-rank sharing.
        assert_eq!(memo.misses(), 2);
        assert_eq!(memo.hits(), 0);
    }
}
