//! Heap-allocation counting, shared by the benches and the
//! allocation-regression tests.
//!
//! The crate installs [`CountingAlloc`] as the global allocator for every
//! binary linking it (benches, tests, the repro harness): a single relaxed
//! atomic increment per allocation, negligible next to the allocation
//! itself. The fast paths this repo builds exist to drive
//! allocations-per-call to zero, so the counter is the number to watch
//! across PRs — `benches/ppo_update.rs` prints it, and
//! `tests/alloc_regression.rs` turns it into hard regression bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation (and reallocation) through the system
/// allocator.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Total allocations since process start.
pub fn allocations_so_far() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Run `f` once and return how many heap allocations it performed.
///
/// The count is process-global: concurrent allocating threads inflate
/// it, so measurements must not race each other (run them from a single
/// test, or serialize with a lock).
pub fn count_allocs<T>(mut f: impl FnMut() -> T) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCS.load(Ordering::Relaxed) - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sees_allocations() {
        let n = count_allocs(|| Vec::<u64>::with_capacity(32));
        assert!(n >= 1, "a fresh Vec must register at least one allocation");
        // The counter is process-global, and the harness runs this
        // binary's other unit tests concurrently, so any one window may
        // also catch their allocations. Allocation-free code reads 0 in
        // some window; code that allocates every call never does.
        let mut buf: Vec<u64> = Vec::with_capacity(8);
        let reuse = (0..1000)
            .map(|_| {
                count_allocs(|| {
                    buf.clear();
                    buf.extend(0..8);
                })
            })
            .min();
        assert_eq!(
            reuse,
            Some(0),
            "refilling within capacity must not allocate"
        );
    }
}
