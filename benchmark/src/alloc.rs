//! A counting wrapper around the system allocator.
//!
//! The benchmark reads the counters at span start and end, so "allocations
//! per frame" is measured where the frame is handled, from outside the
//! stack. Counters are per thread: a run is single-threaded, and the test
//! harness's other threads must not leak into a test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructor: safe to touch from inside the
    // allocator (no lazy registration that would itself allocate).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The process-wide allocator: `System`, plus two thread-local counters.
pub struct CountingAlloc;

#[inline]
fn count(size: usize) {
    // `try_with`: a thread that is already tearing down still allocates.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local integers and cannot affect
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is a trip to the allocator like any other.
        count(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made by this thread so far (alloc, alloc_zeroed, realloc).
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes requested by this thread so far.
#[inline]
pub fn alloc_bytes() -> u64 {
    BYTES.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation_pattern() {
        let (a0, b0) = (allocs(), alloc_bytes());
        let boxed: Vec<Box<[u8; 100]>> = (0..10).map(|_| Box::new([7u8; 100])).collect();
        let (a1, b1) = (allocs(), alloc_bytes());
        // One exact-capacity Vec of 10 pointers + ten 100-byte boxes.
        assert_eq!(a1 - a0, 11);
        assert_eq!(b1 - b0, 10 * 100 + 10 * std::mem::size_of::<usize>() as u64);
        drop(boxed);
        assert_eq!(allocs(), a1, "frees are not counted");

        let mut v: Vec<u8> = Vec::with_capacity(16);
        let a2 = allocs();
        v.extend_from_slice(&[0u8; 64]); // one growth
        assert_eq!(allocs() - a2, 1);
    }
}
