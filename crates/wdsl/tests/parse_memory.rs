//! Parsing holds the AST, not the token list: a counting global
//! allocator bounds the heap growth of parsing one large `data` array.
//!
//! This file holds a single test so no other test allocates while the
//! peak is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the old and new blocks as both live: a moving realloc
        // holds them at once.
        grow(new_size);
        let new = System.realloc(ptr, layout, new_size);
        let freed = if new.is_null() { new_size } else { layout.size() };
        LIVE.fetch_sub(freed, Ordering::Relaxed);
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn parsing_a_large_data_array_holds_no_token_list() {
    const N: u64 = 1_000_000;
    let mut src = String::from("workload \"big\";\ndata big = [");
    for v in 0..N {
        write!(src, "{}, ", v * 7919 % 100_003).expect("writes to a String");
    }
    src.push_str("0];\n");

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let ast = wdsl::parse(&src).expect("parses");
    let growth = PEAK.load(Ordering::Relaxed) - before;

    let values = &ast.datas[0].2;
    assert_eq!(values.len() as u64, N + 1);
    let array_bytes = std::mem::size_of_val(values.as_slice());
    // A token list alone would be about 2M tokens of 40 B, 10x the array.
    assert!(
        growth < 3 * array_bytes,
        "parsing grew the heap by {growth} B for an array of {array_bytes} B"
    );
}
