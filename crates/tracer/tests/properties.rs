//! Property tests for the tracer: arbitrary traces must survive the binary
//! codec bit-exactly, collection must keep feature invariants for
//! arbitrary (valid) programs, and the rayon fan-out must be invisible —
//! identical results at any thread count and across same-seed runs.

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use xtrace_apps::SpecfemProxy;
use xtrace_ir::SourceLoc;
use xtrace_machine::presets;
use xtrace_obs::ObsContext;
use xtrace_tracer::{
    codec, collect_ranks, collect_task_trace, from_bytes, to_bytes, to_bytes_v1, BlockRecord,
    FeatureVector, InstrRecord, SigMemo, TaskTrace, TracerConfig,
};

fn arb_feature_vector() -> impl Strategy<Value = FeatureVector> {
    (
        0.0f64..1e15,
        0.0f64..1e15,
        proptest::array::uniform4(0.0f64..1.0),
        0.0f64..1e12,
        1.0f64..8.0,
    )
        .prop_map(|(exec, mem, mut rates, ws, ilp)| {
            rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut f = FeatureVector {
                exec_count: exec,
                mem_ops: mem,
                loads: mem * 0.75,
                stores: mem * 0.25,
                bytes_per_ref: 8.0,
                fp_fma: exec * 0.5,
                fp_add: exec * 0.25,
                working_set: ws,
                ilp,
                ..Default::default()
            };
            f.hit_rates = rates;
            f
        })
}

fn arb_trace() -> impl Strategy<Value = TaskTrace> {
    (
        "[a-z][a-z0-9-]{0,20}",
        0u32..10_000,
        1u32..10_000,
        1usize..4,
        proptest::collection::vec(
            (
                "[a-z][a-z0-9-]{0,16}",
                1u64..1_000_000,
                1u64..1_000_000,
                proptest::collection::vec(arb_feature_vector(), 1..6),
            ),
            1..6,
        ),
    )
        .prop_map(|(app, rank, nranks, depth, blocks)| TaskTrace {
            app,
            rank,
            nranks,
            machine: "prop-machine".into(),
            depth,
            blocks: blocks
                .into_iter()
                .enumerate()
                .map(|(bi, (name, inv, iters, fvs))| BlockRecord {
                    // Ensure block-name uniqueness within the trace.
                    name: format!("{name}-{bi}"),
                    source: SourceLoc::new("prop.f90", bi as u32, "kernel"),
                    invocations: inv,
                    iterations: iters,
                    instrs: fvs
                        .into_iter()
                        .enumerate()
                        .map(|(ii, features)| InstrRecord {
                            instr: ii as u32,
                            pattern: if ii % 2 == 0 { "strided" } else { "random" }.into(),
                            features,
                        })
                        .collect(),
                })
                .collect(),
        })
}

proptest! {
    /// The binary codec is a bit-exact round trip for arbitrary traces.
    #[test]
    fn binary_codec_roundtrips(trace in arb_trace()) {
        let encoded = to_bytes(&trace);
        let decoded = from_bytes(&encoded).expect("well-formed buffer decodes");
        prop_assert_eq!(decoded, trace);
    }

    /// Truncating an encoded trace anywhere yields an error, never a panic
    /// or a silently wrong value.
    #[test]
    fn binary_codec_rejects_truncations(trace in arb_trace(), frac in 0.0f64..1.0) {
        let encoded = to_bytes(&trace);
        let cut = ((encoded.len() as f64) * frac) as usize;
        if cut < encoded.len() {
            prop_assert!(from_bytes(&encoded[..cut]).is_err());
        }
    }

    /// JSON round trip preserves structure (floats may move by an ulp).
    #[test]
    fn json_roundtrip_preserves_structure(trace in arb_trace()) {
        let s = serde_json::to_string(&trace).unwrap();
        let back: TaskTrace = serde_json::from_str(&s).unwrap();
        prop_assert_eq!(back.app, trace.app);
        prop_assert_eq!(back.blocks.len(), trace.blocks.len());
        for (a, b) in back.blocks.iter().zip(&trace.blocks) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.instrs.len(), b.instrs.len());
            for (ia, ib) in a.instrs.iter().zip(&b.instrs) {
                let rel = (ia.features.mem_ops - ib.features.mem_ops).abs()
                    / ib.features.mem_ops.abs().max(1.0);
                prop_assert!(rel < 1e-12);
            }
        }
    }

    /// Influence is a share: within [0, 1], and summing memory-instruction
    /// influences over the task gives 1 (when the task has memory ops).
    #[test]
    fn influence_is_a_partition(trace in arb_trace()) {
        let total_mem = trace.total_mem_ops();
        prop_assume!(total_mem > 0.0);
        let mut sum = 0.0;
        for b in &trace.blocks {
            for i in &b.instrs {
                let inf = trace.influence(&i.features);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&inf));
                if i.features.mem_ops > 0.0 {
                    sum += inf;
                }
            }
        }
        prop_assert!((sum - 1.0).abs() < 1e-6, "mem influences sum to {sum}");
    }
}

proptest! {
    // Each case runs several full collections; a handful of seeds is
    // plenty, and PROPTEST_CASES can raise it.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Collection is a pure function of (app, ranks, machine, config):
    /// the rayon fan-out over ranks and blocks must produce bit-identical
    /// traces at one thread, at N threads, and across repeated runs with
    /// the same seed.
    #[test]
    fn collection_is_thread_count_invariant_and_repeatable(
        seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        let obs = ObsContext::disabled();
        let app = SpecfemProxy::small();
        let machine = presets::system_a();
        let cfg = TracerConfig {
            max_sampled_refs_per_block: 1 << 14,
            seed,
            ..TracerConfig::default()
        };
        let ranks = [0u32, 1, 3];
        let run = |n: usize, c: &TracerConfig| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool");
            pool.install(|| collect_ranks(&app, &ranks, 8, &machine, c, &SigMemo::new(), &obs))
        };
        let one_thread = run(1, &cfg);
        let many_threads = run(threads, &cfg);
        let again = run(threads, &cfg);
        prop_assert_eq!(&one_thread, &many_threads);
        prop_assert_eq!(&one_thread, &again);

        // The streaming (ring-buffered) path must be equally invariant
        // and bit-identical to the direct-sink path, at any thread count
        // and any chunk capacity.
        let direct = TracerConfig {
            stream_chunk_refs: 0,
            ..cfg
        };
        prop_assert_eq!(&run(threads, &direct), &one_thread);
        let tiny_chunks = TracerConfig {
            stream_chunk_refs: 37,
            ..cfg
        };
        prop_assert_eq!(&run(1, &tiny_chunks), &one_thread);
        prop_assert_eq!(&run(threads, &tiny_chunks), &one_thread);

        // The single-task path must be just as repeatable, and must agree
        // with the fan-out's per-rank result.
        let t1 = collect_task_trace(&app, 1, 8, &machine, &cfg, None, &obs);
        let t2 = collect_task_trace(&app, 1, 8, &machine, &cfg, None, &obs);
        prop_assert_eq!(&t1, &t2);
        prop_assert_eq!(&t1, &one_thread[1]);
    }
}

proptest! {
    /// The delta/RLE column codec is an exact inverse on arbitrary
    /// randomized u64 streams (addresses are the worst case: unordered,
    /// wrapping deltas in both directions).
    #[test]
    fn rle_delta_codec_roundtrips_random_streams(vals in proptest::collection::vec(any::<u64>(), 0..2048)) {
        let mut b = bytes::BytesMut::new();
        codec::encode_u64_column(&vals, &mut b);
        let mut buf = &b[..];
        let back = codec::decode_u64_column(&mut buf, vals.len()).unwrap();
        prop_assert_eq!(back, vals);
        prop_assert!(buf.is_empty(), "decoder must consume the column exactly");
    }

    /// Same identity for f64 columns, bit-for-bit (features are floats).
    #[test]
    fn rle_delta_codec_roundtrips_f64_columns(vals in proptest::collection::vec(any::<f64>(), 0..1024)) {
        let mut b = bytes::BytesMut::new();
        codec::encode_f64_column(&vals, &mut b);
        let back = codec::decode_f64_column(&mut &b[..], vals.len()).unwrap();
        prop_assert_eq!(back.len(), vals.len());
        for (a, v) in back.iter().zip(&vals) {
            prop_assert_eq!(a.to_bits(), v.to_bits());
        }
    }

    /// Truncating an encoded column anywhere yields an error, never a
    /// silently short or wrong column.
    #[test]
    fn rle_delta_codec_rejects_truncations(vals in proptest::collection::vec(any::<u64>(), 1..512), frac in 0.0f64..1.0) {
        let mut b = bytes::BytesMut::new();
        codec::encode_u64_column(&vals, &mut b);
        let cut = ((b.len() as f64) * frac) as usize;
        if cut < b.len() {
            prop_assert!(codec::decode_u64_column(&mut &b[..cut], vals.len()).is_err());
        }
    }

    /// Pathological all-constant runs: arbitrary value, arbitrary length,
    /// constant size on the wire.
    #[test]
    fn all_constant_streams_compress_to_constant_size(v in any::<u64>(), n in 1usize..4096) {
        let vals = vec![v; n];
        let mut b = bytes::BytesMut::new();
        codec::encode_u64_column(&vals, &mut b);
        prop_assert!(b.len() <= 26, "constant column of {n} took {} bytes", b.len());
        let back = codec::decode_u64_column(&mut &b[..], n).unwrap();
        prop_assert_eq!(back, vals);
    }

    /// Pathological all-distinct streams (no two equal deltas): overhead
    /// stays within the documented per-value bound.
    #[test]
    fn all_distinct_streams_stay_bounded(seed in any::<u64>()) {
        let vals: Vec<u64> = (0..1024u64)
            .map(|i| (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31))
            .collect();
        let mut b = bytes::BytesMut::new();
        codec::encode_u64_column(&vals, &mut b);
        prop_assert!(
            b.len() <= codec::MAX_BYTES_PER_VALUE * vals.len() + 10,
            "distinct column took {} bytes", b.len()
        );
        let back = codec::decode_u64_column(&mut &b[..], vals.len()).unwrap();
        prop_assert_eq!(back, vals);
    }

    /// v2 is never larger than v1 by more than a whisker on arbitrary
    /// traces, and both decode to the same trace.
    #[test]
    fn v2_envelope_agrees_with_v1(trace in arb_trace()) {
        let v1 = to_bytes_v1(&trace);
        let v2 = to_bytes(&trace);
        prop_assert_eq!(from_bytes(&v1).unwrap(), from_bytes(&v2).unwrap());
    }
}
