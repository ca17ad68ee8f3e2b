//! Allocation pins for the JSON shim's two hot paths in `ftsched serve`:
//! decoding one admission request and encoding one response. The
//! borrowed decode model makes a string cost nothing to parse unless it
//! holds an escape and sizes every container once, and the encode writes
//! straight into its one output buffer; these counts catch a change that
//! quietly copies strings or builds a tree again.
//!
//! A counting global allocator counts every allocation of the process,
//! so this file holds a single `#[test]`: no other test of this binary
//! can allocate while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use ftsched::serve::{AdmissionRequest, AdmissionResponse};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (reallocations included) made by `f`, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

fn first_line(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    let text = std::fs::read_to_string(&path).unwrap();
    text.lines().next().unwrap().to_owned()
}

#[test]
fn request_decode_and_response_encode_stay_within_their_allocation_budgets() {
    let request = first_line("examples/serve_requests.jsonl");
    let (decode, parsed) =
        allocations(|| serde_json::from_str::<AdmissionRequest>(&request).unwrap());
    assert_eq!(parsed.tasks.len(), 13);
    assert!(
        decode <= 40,
        "decoding request line 1 made {decode} allocations (budget 40)"
    );

    let expected = first_line("tests/golden/serve_transcript.jsonl");
    let response: AdmissionResponse = serde_json::from_str(&expected).unwrap();
    let (encode, text) = allocations(|| serde_json::to_string(&response).unwrap());
    assert_eq!(text, expected);
    assert!(
        encode <= 3,
        "encoding transcript line 1 made {encode} allocations \
         (budget 3: the output buffer and its doublings)"
    );
    eprintln!("request decode: {decode} allocations; response encode: {encode}");
}
