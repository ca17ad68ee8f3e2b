//! Allocation pin for the campaign report encode: `CampaignReport::to_json`
//! writes every value straight into one output buffer, so the only
//! allocations it makes are that buffer's (its first 128 bytes and each
//! doubling after it). A change that builds an intermediate tree again,
//! or allocates per array, object or map key, shows here as hundreds of
//! extra allocations.
//!
//! A counting global allocator counts every allocation of the process,
//! so this file holds a single `#[test]`: no other test of this binary
//! can allocate while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use ftsched::campaign::CampaignReport;

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

#[test]
fn encoding_the_grid_sweep_report_allocates_only_its_output_buffer() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/grid_sweep.json");
    let golden = std::fs::read_to_string(&path).unwrap();
    let report: CampaignReport = serde_json::from_str(&golden).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let json = report.to_json();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(json == golden, "the encode no longer reproduces the golden");
    // A buffer that starts at 128 bytes and doubles until it holds the
    // report: one allocation, then one reallocation per doubling.
    let doublings = golden.len().div_ceil(128).next_power_of_two().ilog2() as u64;
    assert!(
        allocations <= 1 + doublings,
        "encoding the {}-byte grid-sweep report made {allocations} allocations \
         (budget {}: the output buffer and its {doublings} doublings)",
        golden.len(),
        1 + doublings
    );
    eprintln!("report encode: {allocations} allocations");
}
