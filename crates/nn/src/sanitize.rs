//! Allocation sanitizer: a counting [`GlobalAlloc`] wrapper over the system
//! allocator, plus [`assert_no_alloc`] / [`alloc_delta`] so tests can *prove*
//! that a hot path — one training step, one solver iteration, one simulated
//! request — performs zero heap allocations in steady state, rather than
//! inferring it from workspace statistics.
//!
//! A test binary opts in with one line; the library never installs it:
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: graf_nn::sanitize::CountingAlloc = graf_nn::sanitize::CountingAlloc;
//! ```
//!
//! [`alloc_delta`] refuses to measure in a binary that forgot that line
//! (every count would read 0 and every zero-allocation assertion would pass
//! vacuously): it first checks that a probe allocation moves the counter.
//!
//! The counter is thread-local and const-initialised, so reading it never
//! allocates (no lazy TLS init) and parallel test threads do not interfere
//! with each other's measurements. This pairs with the compute layer's
//! `threads <= 1` inline path: the measured work must stay on the measuring
//! thread.
//!
//! The [`GlobalAlloc`] impl is the crate's one use of `unsafe` (the trait
//! contract requires it); everything else stays under `deny(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`] wrapper that counts allocations per thread.
pub struct CountingAlloc;

#[allow(unsafe_code)]
// SAFETY: every method delegates to `System`, which upholds the GlobalAlloc
// contract; the counter update has no effect on the returned memory.
// graf-lint: safety(every method delegates verbatim to the System allocator)
unsafe impl GlobalAlloc for CountingAlloc {
    // graf-lint: safety(unsafe is required by the trait; body only counts)
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // graf-lint: safety(layout forwarded unchanged; caller upholds the contract)
        unsafe { System.alloc(layout) }
    }

    // graf-lint: safety(unsafe is required by the trait; body only delegates)
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // graf-lint: safety(ptr and layout forwarded unchanged from our alloc)
        unsafe { System.dealloc(ptr, layout) }
    }

    // graf-lint: safety(unsafe is required by the trait; body only counts)
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves (or grows) is an allocation for our purposes:
        // a steady-state hot path must not grow its buffers.
        ALLOCS.with(|c| c.set(c.get() + 1));
        // graf-lint: safety(ptr and layout forwarded unchanged from our alloc)
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made by the current thread so far.
fn alloc_count() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Runs `f`, returning its result and the number of heap allocations the
/// current thread made while it ran.
///
/// # Panics
///
/// If [`CountingAlloc`] is not the calling binary's global allocator: a
/// probe `Box` must move the counter before anything is measured.
pub fn alloc_delta<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let probe = alloc_count();
    drop(std::hint::black_box(Box::new(0u64)));
    assert!(
        alloc_count() > probe,
        "CountingAlloc is not this binary's global allocator; add \
         `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;` to the test file"
    );
    let before = alloc_count();
    let out = f();
    (out, alloc_count() - before)
}

/// Asserts that `f` performs **zero** heap allocations on this thread.
///
/// `label` names the measured region in the failure message. Returns `f`'s
/// result so the caller can keep asserting on it.
pub fn assert_no_alloc<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let (out, n) = alloc_delta(f);
    assert_eq!(n, 0, "{label}: expected zero heap allocations in steady state, observed {n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The library's own test binary installs no allocator, so measuring
    /// here must fail loudly instead of reading a vacuous zero.
    #[test]
    #[should_panic(expected = "global allocator")]
    fn measuring_without_the_counting_allocator_panics() {
        let _ = alloc_delta(|| ());
    }
}
