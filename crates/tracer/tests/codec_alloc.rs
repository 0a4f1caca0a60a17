//! A column header is untrusted input: the declared length must not buy
//! an allocation before the column's bytes are there to back it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xtrace_tracer::{codec, CodecError};

/// Forwards to the system allocator and remembers the largest single
/// request since the last reset.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` guarantees are exactly the ones `System` needs.
// The only extra work is a relaxed statistic that publishes no data.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from `System` via `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

#[test]
fn a_max_length_header_without_data_allocates_nothing_large() {
    let mut header = bytes::BytesMut::new();
    codec::put_varint(&mut header, codec::MAX_COLUMN_LEN as u64);
    assert_eq!(header.len(), 5);

    LARGEST.store(0, Ordering::Relaxed);
    let result = codec::decode_u64_column(&mut &header[..], None);
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(matches!(result, Err(CodecError::Truncated)), "{result:?}");
    assert!(
        largest <= 1 << 20,
        "decoding a bare header requested {largest} bytes at once"
    );
}
