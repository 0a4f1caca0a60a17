//! Envelope headers are untrusted input: a declared length must not buy
//! an allocation before the bytes are there to back it, a trace's
//! instruction total must stay under the trace-level cap before any
//! per-instruction column decodes, and a pattern label copied into every
//! instruction must be short.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xtrace_ir::SourceLoc;
use xtrace_tracer::{
    codec, from_bytes, to_bytes, BlockRecord, CodecError, FeatureVector, InstrRecord, TaskTrace,
};

/// Forwards to the system allocator and remembers the largest single
/// request and the bytes requested in total since the last reset.
struct CountingAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` guarantees are exactly the ones `System` needs.
// The only extra work is relaxed statistics that publish no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        TOTAL.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from `System` via `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The statistics are process-wide, so the tests measure one at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// A one-block trace of `n` identical instructions: run-length encoding
/// keeps its envelope small however large `n` is.
fn uniform_trace(n: usize) -> TaskTrace {
    let instr = |i: usize| InstrRecord {
        instr: i as u32,
        pattern: "strided".into(),
        features: FeatureVector {
            exec_count: 64.0,
            mem_ops: 64.0,
            loads: 64.0,
            bytes_per_ref: 8.0,
            ..Default::default()
        },
    };
    TaskTrace {
        app: "uniform".into(),
        rank: 0,
        nranks: 1,
        machine: "cray-xt5".into(),
        depth: 3,
        blocks: vec![BlockRecord {
            name: "loop".into(),
            source: SourceLoc::new("uniform.f90", 1, "main"),
            invocations: 1,
            iterations: 1,
            instrs: (0..n).map(instr).collect(),
        }],
    }
}

#[test]
fn a_max_length_header_without_data_allocates_nothing_large() {
    let _serial = MEASURING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut header = bytes::BytesMut::new();
    codec::put_varint(&mut header, codec::MAX_COLUMN_LEN as u64);
    assert_eq!(header.len(), 5);

    LARGEST.store(0, Ordering::Relaxed);
    let result = codec::decode_u64_column(&mut &header[..], codec::MAX_COLUMN_LEN);
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(matches!(result, Err(CodecError::Truncated)), "{result:?}");
    assert!(
        largest <= 1 << 20,
        "decoding a bare header requested {largest} bytes at once"
    );
}

#[test]
fn an_instruction_total_over_the_cap_is_corrupt_before_any_column_decodes() {
    let _serial = MEASURING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let at_cap = uniform_trace(codec::MAX_TRACE_INSTRUCTIONS);
    assert_eq!(
        from_bytes(&to_bytes(&at_cap)).expect("the cap itself decodes"),
        at_cap
    );
    let envelope = to_bytes(&uniform_trace(codec::MAX_TRACE_INSTRUCTIONS + 1));
    assert!(envelope.len() < 1024, "{} envelope bytes", envelope.len());

    LARGEST.store(0, Ordering::Relaxed);
    let result = from_bytes(&envelope);
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(matches!(result, Err(CodecError::Corrupt(_))), "{result:?}");
    assert!(
        largest <= 1 << 20,
        "decoding an over-cap envelope requested {largest} bytes at once"
    );
}

#[test]
fn a_long_shared_pattern_label_is_corrupt_before_it_is_copied_per_instruction() {
    let _serial = MEASURING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Every instruction at the cap shares one 1 KiB label: the dictionary
    // holds it once, so the envelope stays small, but decoding it would
    // copy the label into each of the 65,536 instructions (about 185 MB).
    let mut trace = uniform_trace(codec::MAX_TRACE_INSTRUCTIONS);
    let label = "x".repeat(1024);
    for instr in &mut trace.blocks[0].instrs {
        instr.pattern = label.clone();
    }
    let envelope = to_bytes(&trace);
    assert!(envelope.len() < 2048, "{} envelope bytes", envelope.len());

    TOTAL.store(0, Ordering::Relaxed);
    let result = from_bytes(&envelope);
    let total = TOTAL.load(Ordering::Relaxed);

    assert!(matches!(result, Err(CodecError::Corrupt(_))), "{result:?}");
    assert!(
        total <= 4 << 20,
        "decoding a {}-byte envelope allocated {total} bytes in total",
        envelope.len()
    );
}
