//! Live-heap counters, installed as the benchmark's global allocator.
//!
//! Independent of `memtrack`: the partitioner charges its own accounting to
//! `memtrack::global()`, so measuring the heap there as well would double-count.
//! The process counter sees every allocation of the process and nothing else. The
//! per-thread counter sees the net heap growth caused by one thread, which is one
//! request's heap when the request runs single-threaded on that thread while other
//! clients allocate concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes right now. A statistic only: it publishes no other data, so
/// `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes this thread allocated minus bytes it freed, and the highest value of
    /// that since the thread's last [`thread_reset_peak`]. Negative when the thread
    /// frees memory other threads allocated.
    static THREAD: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting live bytes.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
    // `try_with`: the slot may already be gone while the thread shuts down.
    let _ = THREAD.try_with(|t| {
        let (live, peak) = t.get();
        let live = live + bytes as isize;
        t.set((live, peak.max(live)));
    });
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
    let _ = THREAD.try_with(|t| {
        let (live, peak) = t.get();
        t.set((live - bytes as isize, peak));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments unchanged,
// so `System`'s guarantees carry over; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// Resets the peak to the current live bytes and returns them (the baseline a
/// following [`peak_above`] is measured against).
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live heap since the last [`reset_peak`], above `baseline`.
pub fn peak_above(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Resets the calling thread's peak to its current net bytes and returns them.
pub fn thread_reset_peak() -> isize {
    THREAD.with(|t| {
        let (live, _) = t.get();
        t.set((live, live));
        live
    })
}

/// The calling thread's peak net bytes since its last [`thread_reset_peak`], above
/// `baseline`.
pub fn thread_peak_above(baseline: isize) -> usize {
    THREAD.with(|t| (t.get().1 - baseline).max(0) as usize)
}
