//! **Regression bench: parallel, memoized signature collection.**
//!
//! Times full-signature collection for the SPECFEM3D proxy over the three
//! paper training core counts, three ways:
//!
//! 1. `seed_serial`    — the frozen pre-optimization path
//!    ([`xtrace_bench::seed_cache`]): per-access `AddressPattern::offset`
//!    address generation into one shared stamp-based hierarchy per rank,
//!    blocks streamed sequentially. This is the baseline the ≥3×
//!    acceptance number is measured against.
//! 2. `current_serial` — today's recency-ordered kernel driven through
//!    the **direct (unbuffered) sink**, still one thread and no memo
//!    (isolates the kernel speedup, and anchors the bit-equality asserts
//!    that certify the streaming ring path below against it).
//! 3. `parallel_memo`  — today's kernel with the ring-buffered streaming
//!    sink, the rayon rank × block fan-out, and a shared [`SigMemo`]
//!    deduplicating structurally identical block simulations across ranks
//!    and counts.
//! 4. `streaming_wide` — the streaming + memo path at ≥64 ranks per
//!    training count (the wide-collection shape `--ranks-per-count`
//!    enables), reporting peak RSS, ring high-water occupancy, and
//!    compressed-vs-raw stored-trace bytes alongside wall time.
//!
//! Each count traces the profiler-identified longest task plus a spread of
//! worker ranks (the Section-VI clustering signature shape). The harness
//! then verifies the speedups changed nothing: per-element features of the
//! serial and memoized runs must agree bit-for-bit, and the extrapolated
//! target-count predictions must match exactly.
//!
//! Emits `BENCH_collect.json`. Run with:
//! `cargo run --release -p xtrace-bench --bin bench_collect [-- --threads N --out F]`
//! Set `XTRACE_BENCH_QUICK=1` for a tiny smoke configuration.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use serde::Serialize;
use xtrace_apps::{profiling_net, SpecfemProxy};
use xtrace_bench::seed_cache::{SeedAccessStream, SeedCacheHierarchy};
use xtrace_bench::{target_machine, SPECFEM_TARGET, SPECFEM_TRAINING};
use xtrace_cache::LevelCounts;
use xtrace_core::{Pipeline, PipelineConfig};
use xtrace_extrap::{element_errors, extrapolate_signature, ExtrapolationConfig};
use xtrace_ir::BlockId;
use xtrace_machine::MachineProfile;
use xtrace_obs::ObsContext;
use xtrace_psins::{relative_error, try_predict_runtime};
use xtrace_spmd::{profile, RankEvent, SpmdApp};
use xtrace_tracer::{
    collect_ranks, collect_task_trace, rank_stream_seed, to_bytes, v1_encoded_len, SigMemo,
    TaskTrace, TracerConfig,
};

#[derive(Serialize)]
struct Leg {
    wall_s: f64,
    /// Logical sampled references delivered per second of wall time (the
    /// memoized leg "delivers" memo answers without streaming them).
    refs_per_sec: f64,
}

#[derive(Serialize)]
struct StreamingWide {
    wall_s: f64,
    /// Logical sampled references delivered per second of wall time.
    refs_per_sec: f64,
    /// Logical sampled references across every wide-collected rank.
    sampled_refs: u64,
    /// Process peak RSS (`VmHWM`) after the wide leg, in bytes. Bounded
    /// ring buffers keep this sub-linear in ranks-per-count.
    peak_rss_bytes: u64,
    /// High-water ring occupancy observed by the tracer (refs).
    ring_peak_refs: u64,
    /// Configured ring capacity (refs); peak must never exceed it.
    ring_capacity_refs: u64,
    /// Bytes the wide training set would occupy in the v1 envelope.
    bytes_stored_raw: u64,
    /// Bytes it occupies in the compressed v2 envelope.
    bytes_stored_compressed: u64,
    /// raw / compressed.
    compression_ratio: f64,
    /// Relative error of the wide-leg extrapolated prediction vs the
    /// direct serial leg (must be exactly 0: streaming is bit-identical).
    prediction_rel_err: f64,
}

#[derive(Serialize)]
struct MemoStats {
    hits: u64,
    misses: u64,
    hit_rate: f64,
    entries: usize,
}

#[derive(Serialize)]
struct CollectBench {
    app: String,
    machine: String,
    quick: bool,
    threads: usize,
    /// Hardware threads on the bench host; on a 1-core host the fan-out
    /// contributes nothing and the speedup comes from the kernel, the
    /// incremental stream cursors, and memo deduplication alone.
    host_cores: usize,
    training: Vec<u32>,
    target: u32,
    ranks_per_count: usize,
    /// Ranks per count for the `streaming_wide` leg (saturates at the
    /// count itself for small training counts).
    wide_ranks_per_count: usize,
    sampled_refs: u64,
    seed_serial: Leg,
    current_serial: Leg,
    parallel_memo: Leg,
    streaming_wide: StreamingWide,
    /// The acceptance number: seed serial wall / parallel+memo wall.
    speedup_vs_seed: f64,
    /// Single-thread component: cache kernel + incremental stream cursors.
    speedup_kernel_and_gen: f64,
    /// Fan-out + memo component of the speedup.
    speedup_vs_current_serial: f64,
    memo: MemoStats,
    /// Max per-element relative feature error, serial vs memoized traces.
    max_element_rel_err: f64,
    /// Relative error between target-count runtime predictions extrapolated
    /// from the serial and from the memoized training traces.
    prediction_rel_err: f64,
    /// Pipeline-engine cold run: collect + fit + synthesize + convolve,
    /// populating the artifact store on the way out.
    store_cold_s: f64,
    /// Identical config, warm store: every artifact resumes as a cache hit.
    store_resume_s: f64,
    /// Cold wall / warm wall — the store-resume acceptance number.
    store_resume_speedup: f64,
    store_cache_hits: usize,
    /// Relative error between the engine's warm and cold predictions
    /// (must be exactly 0: a cache hit returns the stored artifact).
    store_prediction_rel_err: f64,
}

/// The profiler's longest rank first, then worker ranks spread across the
/// job (distinct, all `< nranks`).
fn sample_ranks(nranks: u32, longest: u32, k: usize) -> Vec<u32> {
    let mut ranks = vec![longest];
    let step = (nranks / k.max(1) as u32).max(1);
    let mut r = 1;
    while ranks.len() < k && r < nranks {
        if !ranks.contains(&r) {
            ranks.push(r);
        }
        r += step;
    }
    ranks
}

/// Folds a rank's Compute events per block in first-appearance order —
/// the same folding `collect_task_trace` performs.
fn folded_blocks(events: &[RankEvent]) -> Vec<(BlockId, u64)> {
    let mut order: Vec<(BlockId, u64)> = Vec::new();
    let mut slot: HashMap<BlockId, usize> = HashMap::new();
    for ev in events {
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
    order
}

/// Replays the seed's serial collection path for one rank: one shared
/// stamp-kernel hierarchy, blocks in order, identical warmup/sample
/// windows to `collect_task_trace`. Returns references streamed.
fn seed_collect_rank(
    app: &dyn SpmdApp,
    rank: u32,
    nranks: u32,
    machine: &MachineProfile,
    cfg: &TracerConfig,
) -> u64 {
    let rp = app.rank_program(rank, nranks);
    let rank_seed = rank_stream_seed(cfg, rank);
    let mut cache = SeedCacheHierarchy::new(machine.hierarchy.clone());
    let mut refs = 0u64;
    for (block_id, inv) in folded_blocks(&rp.events) {
        let blk = rp.program.block(block_id);
        let refs_per_iter: u64 = blk
            .instrs
            .iter()
            .filter(|i| i.is_mem())
            .map(|i| u64::from(i.repeat))
            .sum();
        let total_iters = blk.iterations.saturating_mul(inv);
        if refs_per_iter == 0 || total_iters == 0 {
            continue;
        }
        let sample_iters = total_iters.min((cfg.max_sampled_refs_per_block / refs_per_iter).max(1));
        let warmup_iters = sample_iters.min(total_iters - sample_iters);
        let mut counts = vec![LevelCounts::default(); blk.instrs.len()];
        let mut stream = SeedAccessStream::new(&rp.program, block_id, rank_seed);
        stream.run_iterations(warmup_iters, &mut |a| {
            cache.access(a.addr, a.bytes);
        });
        stream.run_iterations(sample_iters, &mut |a| {
            let lvl = cache.access(a.addr, a.bytes);
            counts[a.instr.index()].record(lvl);
        });
        refs += (warmup_iters + sample_iters).saturating_mul(refs_per_iter);
        std::hint::black_box(&counts);
    }
    refs
}

/// Logical sampled references (warmup + sample windows) that
/// `collect_task_trace` streams for one rank, computed analytically from
/// the program structure — the same window math `seed_collect_rank`
/// replays, without running a simulator.
fn logical_refs(app: &dyn SpmdApp, rank: u32, nranks: u32, cfg: &TracerConfig) -> u64 {
    let rp = app.rank_program(rank, nranks);
    let mut refs = 0u64;
    for (block_id, inv) in folded_blocks(&rp.events) {
        let blk = rp.program.block(block_id);
        let refs_per_iter: u64 = blk
            .instrs
            .iter()
            .filter(|i| i.is_mem())
            .map(|i| u64::from(i.repeat))
            .sum();
        let total_iters = blk.iterations.saturating_mul(inv);
        if refs_per_iter == 0 || total_iters == 0 {
            continue;
        }
        let sample_iters = total_iters.min((cfg.max_sampled_refs_per_block / refs_per_iter).max(1));
        let warmup_iters = sample_iters.min(total_iters - sample_iters);
        refs += (warmup_iters + sample_iters).saturating_mul(refs_per_iter);
    }
    refs
}

/// Process high-water resident set (`VmHWM`) in bytes; 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .split_whitespace()
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// Extrapolates the longest-task training traces to `target` and predicts
/// its runtime on `machine`.
fn predict_target(
    app: &SpecfemProxy,
    longest_traces: &[TaskTrace],
    target: u32,
    machine: &MachineProfile,
) -> f64 {
    let extrapolated =
        extrapolate_signature(longest_traces, target, &ExtrapolationConfig::default())
            .expect("valid training ladder");
    let comm = profile(app, target, &profiling_net(), &ObsContext::disabled());
    try_predict_runtime(&extrapolated, &comm, machine)
        .unwrap()
        .total_seconds
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let threads: usize = flag("--threads")
        .map(|v| v.parse().expect("--threads must be an integer"))
        .unwrap_or(4);
    let out = flag("--out").unwrap_or_else(|| "BENCH_collect.json".into());
    let quick = std::env::var("XTRACE_BENCH_QUICK").is_ok_and(|v| v == "1");

    let (app, cfg, training, target, ranks_per_count) = if quick {
        (
            SpecfemProxy::small(),
            TracerConfig::fast(),
            vec![4u32, 8, 16],
            32u32,
            3usize,
        )
    } else {
        (
            SpecfemProxy::paper_scale(),
            TracerConfig::default(),
            SPECFEM_TRAINING.to_vec(),
            SPECFEM_TARGET,
            8usize,
        )
    };
    let machine = target_machine();
    let threads = threads.max(2);
    let obs = ObsContext::disabled();

    // Rank selection (untimed; identical for every leg).
    let longest_ranks: Vec<(u32, u32)> = training
        .iter()
        .map(|&p| {
            let comm = profile(&app, p, &machine.net, &obs);
            (p, comm.longest_rank)
        })
        .collect();
    let rank_sets: Vec<(u32, Vec<u32>)> = longest_ranks
        .iter()
        .map(|&(p, l)| (p, sample_ranks(p, l, ranks_per_count)))
        .collect();
    let wide_ranks_per_count = 64usize;
    let wide_rank_sets: Vec<(u32, Vec<u32>)> = longest_ranks
        .iter()
        .map(|&(p, l)| (p, sample_ranks(p, l, wide_ranks_per_count)))
        .collect();
    eprintln!(
        "bench_collect: {} on {}, counts {:?}, {} ranks/count, {} threads{}",
        SpmdApp::name(&app),
        machine.name,
        training,
        ranks_per_count,
        threads,
        if quick { " (quick)" } else { "" }
    );

    // Leg 1: seed serial path (frozen kernel, shared cache per rank).
    let t0 = Instant::now();
    let mut sampled_refs = 0u64;
    for (p, ranks) in &rank_sets {
        for &r in ranks {
            sampled_refs += seed_collect_rank(&app, r, *p, &machine, &cfg);
        }
    }
    let seed_wall = t0.elapsed().as_secs_f64();
    eprintln!("  seed serial    : {seed_wall:.2} s ({sampled_refs} sampled refs)");

    // Leg 2: current kernel through the direct (unbuffered) sink, one
    // thread, no memo. The later legs stream through the bounded ring;
    // the bit-equality asserts below certify the two sinks agree.
    let direct_cfg = TracerConfig {
        stream_chunk_refs: 0,
        ..cfg
    };
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let t0 = Instant::now();
    let serial_traces: Vec<Vec<TaskTrace>> = one.install(|| {
        rank_sets
            .iter()
            .map(|(p, ranks)| {
                ranks
                    .iter()
                    .map(|&r| collect_task_trace(&app, r, *p, &machine, &direct_cfg, None, &obs))
                    .collect()
            })
            .collect()
    });
    let serial_wall = t0.elapsed().as_secs_f64();
    eprintln!("  current serial : {serial_wall:.2} s (direct sink)");

    // Leg 3: current kernel, rayon fan-out, shared memo across counts.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    let memo = SigMemo::new();
    let t0 = Instant::now();
    let memo_traces: Vec<Vec<TaskTrace>> = pool.install(|| {
        rank_sets
            .iter()
            .map(|(p, ranks)| collect_ranks(&app, ranks, *p, &machine, &cfg, &memo, &obs))
            .collect()
    });
    let parallel_wall = t0.elapsed().as_secs_f64();
    eprintln!(
        "  parallel+memo  : {parallel_wall:.2} s (memo: {} hits / {} misses)",
        memo.hits(),
        memo.misses()
    );

    // Leg 4: the streaming + memo path at wide ranks-per-count, under a
    // scoped recorder context so the tracer's ring gauges are captured.
    let recorder = xtrace_obs::Recorder::new();
    let wide_metrics = recorder.metrics();
    let wide_obs = ObsContext::with_recorder(recorder);
    let wide_memo = SigMemo::new();
    let t0 = Instant::now();
    let wide_traces: Vec<Vec<TaskTrace>> = pool.install(|| {
        wide_rank_sets
            .iter()
            .map(|(p, ranks)| collect_ranks(&app, ranks, *p, &machine, &cfg, &wide_memo, &wide_obs))
            .collect()
    });
    let wide_wall = t0.elapsed().as_secs_f64();
    let wide_refs: u64 = wide_rank_sets
        .iter()
        .map(|(p, ranks)| {
            ranks
                .iter()
                .map(|&r| logical_refs(&app, r, *p, &cfg))
                .sum::<u64>()
        })
        .sum();
    let ring_peak_refs = wide_metrics.gauge("tracer.ring.peak_refs").get();
    let ring_capacity_refs = wide_metrics.gauge("tracer.ring.capacity_refs").get();
    let (mut bytes_stored_raw, mut bytes_stored_compressed) = (0u64, 0u64);
    for t in wide_traces.iter().flatten() {
        bytes_stored_raw += v1_encoded_len(t);
        bytes_stored_compressed += to_bytes(t).len() as u64;
    }
    let wide_nranks: usize = wide_traces.iter().map(Vec::len).sum();
    eprintln!(
        "  streaming wide : {wide_wall:.2} s ({wide_nranks} ranks, ring peak {ring_peak_refs}/{ring_capacity_refs} refs, {bytes_stored_compressed}/{bytes_stored_raw} stored bytes)"
    );

    // Verification: the fast path must not change any answer.
    let mut max_rel_err = 0.0f64;
    for (a, b) in serial_traces
        .iter()
        .flatten()
        .zip(memo_traces.iter().flatten())
    {
        for e in element_errors(a, b) {
            max_rel_err = max_rel_err.max(e.rel_err);
        }
    }
    let longest =
        |legs: &[Vec<TaskTrace>]| -> Vec<TaskTrace> { legs.iter().map(|v| v[0].clone()).collect() };
    let pred_serial = predict_target(&app, &longest(&serial_traces), target, &machine);
    let pred_memo = predict_target(&app, &longest(&memo_traces), target, &machine);
    let prediction_rel_err = relative_error(pred_memo, pred_serial);
    let pred_wide = predict_target(&app, &longest(&wide_traces), target, &machine);
    let wide_prediction_rel_err = relative_error(pred_wide, pred_serial);

    // Legs 4+5: the xtrace-core pipeline engine, cold (populating a fresh
    // artifact store) then warm (every artifact resumes as a cache hit).
    let mut pcfg = PipelineConfig::new("specfem3d", machine.name.clone(), training.clone(), target);
    pcfg.scale = if quick { "small" } else { "paper" }.into();
    pcfg.fast_tracer = quick;
    pcfg.validate = false;
    let store_dir = std::env::temp_dir().join(format!("xtrace-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let engine_run = || {
        let t0 = Instant::now();
        let report = Pipeline::new(pcfg.clone())
            .expect("valid bench config")
            .with_store(&store_dir)
            .expect("store opens")
            .run()
            .expect("pipeline runs");
        (t0.elapsed().as_secs_f64(), report)
    };
    let (store_cold_s, cold_report) = engine_run();
    let (store_resume_s, warm_report) = engine_run();
    let _ = std::fs::remove_dir_all(&store_dir);
    eprintln!(
        "  engine cold    : {store_cold_s:.2} s\n  engine resume  : {store_resume_s:.2} s ({} artifacts reused)",
        warm_report.cache_hits
    );
    let store_prediction_rel_err = relative_error(
        warm_report.prediction.total_seconds,
        cold_report.prediction.total_seconds,
    );

    let report = CollectBench {
        app: SpmdApp::name(&app).to_string(),
        machine: machine.name.clone(),
        quick,
        threads,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        training,
        target,
        ranks_per_count,
        wide_ranks_per_count,
        sampled_refs,
        seed_serial: Leg {
            wall_s: seed_wall,
            refs_per_sec: sampled_refs as f64 / seed_wall,
        },
        current_serial: Leg {
            wall_s: serial_wall,
            refs_per_sec: sampled_refs as f64 / serial_wall,
        },
        parallel_memo: Leg {
            wall_s: parallel_wall,
            refs_per_sec: sampled_refs as f64 / parallel_wall,
        },
        streaming_wide: StreamingWide {
            wall_s: wide_wall,
            refs_per_sec: wide_refs as f64 / wide_wall,
            sampled_refs: wide_refs,
            peak_rss_bytes: peak_rss_bytes(),
            ring_peak_refs,
            ring_capacity_refs,
            bytes_stored_raw,
            bytes_stored_compressed,
            compression_ratio: bytes_stored_raw as f64 / bytes_stored_compressed.max(1) as f64,
            prediction_rel_err: wide_prediction_rel_err,
        },
        speedup_vs_seed: seed_wall / parallel_wall,
        speedup_kernel_and_gen: seed_wall / serial_wall,
        speedup_vs_current_serial: serial_wall / parallel_wall,
        memo: MemoStats {
            hits: memo.hits(),
            misses: memo.misses(),
            hit_rate: memo.hit_rate(),
            entries: memo.len(),
        },
        max_element_rel_err: max_rel_err,
        prediction_rel_err,
        store_cold_s,
        store_resume_s,
        store_resume_speedup: store_cold_s / store_resume_s,
        store_cache_hits: warm_report.cache_hits,
        store_prediction_rel_err,
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .expect("write report");

    println!(
        "speedup vs seed serial: {:.2}x  (kernel+gen {:.2}x, fan-out+memo {:.2}x)\n\
         memo hit rate: {:.1}%  max element err: {:.3e}  prediction err: {:.3e}\n\
         streaming wide: {:.0} refs/s at {} ranks/count, {:.2}x trace compression, peak RSS {:.1} MiB\n\
         store resume: {:.2}x ({} artifacts reused)\n\
         wrote {out}",
        report.speedup_vs_seed,
        report.speedup_kernel_and_gen,
        report.speedup_vs_current_serial,
        100.0 * report.memo.hit_rate,
        report.max_element_rel_err,
        report.prediction_rel_err,
        report.streaming_wide.refs_per_sec,
        report.wide_ranks_per_count,
        report.streaming_wide.compression_ratio,
        report.streaming_wide.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        report.store_resume_speedup,
        report.store_cache_hits
    );
    assert!(
        report.max_element_rel_err == 0.0,
        "memoized collection changed per-element features"
    );
    assert!(
        report.prediction_rel_err == 0.0,
        "streaming/memoized collection changed the extrapolated prediction"
    );
    assert!(
        report.streaming_wide.prediction_rel_err == 0.0,
        "wide streaming collection changed the extrapolated prediction"
    );
    assert!(
        report.streaming_wide.ring_peak_refs > 0
            && report.streaming_wide.ring_peak_refs <= report.streaming_wide.ring_capacity_refs,
        "ring occupancy must stay within its configured capacity (peak {} / cap {})",
        report.streaming_wide.ring_peak_refs,
        report.streaming_wide.ring_capacity_refs
    );
    assert!(
        report.streaming_wide.bytes_stored_compressed < report.streaming_wide.bytes_stored_raw,
        "v2 envelope must beat the v1 size on collected traces ({} vs {})",
        report.streaming_wide.bytes_stored_compressed,
        report.streaming_wide.bytes_stored_raw
    );
    assert!(
        report.store_prediction_rel_err == 0.0,
        "store resume changed the prediction"
    );
    // Quick mode asserts reuse, not wall-clock: class-seeded memoization
    // makes even the cold run cheap at the smoke configuration, so the
    // resume ratio is only meaningful at the full ladder.
    let min_resume_speedup = if report.quick { 1.0 } else { 2.0 };
    assert!(
        report.store_cache_hits > 0 && report.store_resume_speedup > min_resume_speedup,
        "store resume must skip recomputation (got {:.2}x with {} hits)",
        report.store_resume_speedup,
        report.store_cache_hits
    );
}
