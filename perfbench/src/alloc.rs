//! Counting global allocator: allocation count, live bytes and their
//! high-water mark, plus a per-thread allocation count.
//!
//! Buffers the benchmark owns (latency samples, span logs) are
//! allocated before a timed region starts, so a region's counts are
//! deltas taken with [`Region`]. Bookkeeping the benchmark must do
//! inside a region runs under [`excluded`], which keeps its
//! allocations out of the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator the benchmark binary installs.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let counted = EXCLUDED.try_with(|e| !e.get()).unwrap_or(true);
    if counted {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn note_free(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the bookkeeping only touches atomics and
// const-initialised thread-locals, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Runs `f` without counting its allocations (bytes stay tracked).
pub fn excluded<R>(f: impl FnOnce() -> R) -> R {
    let prev = EXCLUDED.with(|e| e.replace(true));
    let r = f();
    EXCLUDED.with(|e| e.set(prev));
    r
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// A timed region: allocation count and heap growth since it began.
pub struct Region {
    allocs0: u64,
    live0: u64,
    /// High-water mark reached before the last [`Region::exclude`].
    peak_before: u64,
}

impl Region {
    /// Starts a region; the live-byte high-water mark restarts at the
    /// current live bytes, so earlier buffers count only as baseline.
    pub fn start() -> Self {
        let live0 = LIVE.load(Ordering::Relaxed);
        PEAK.store(live0, Ordering::Relaxed);
        Region {
            allocs0: ALLOCS.load(Ordering::Relaxed),
            live0,
            peak_before: live0,
        }
    }

    /// Runs `f`, benchmark work inside the region that frees what it
    /// allocates, without letting its heap count toward the region's
    /// high-water mark. Callers take allocation counts after it.
    pub fn exclude(&mut self, f: impl FnOnce()) {
        self.peak_before = self.peak_before.max(PEAK.load(Ordering::Relaxed));
        f();
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Allocations counted since the region started.
    pub fn allocs(&self) -> u64 {
        ALLOCS.load(Ordering::Relaxed) - self.allocs0
    }

    /// Live-byte high-water mark since the region started, above the
    /// live bytes at its start.
    pub fn peak_growth(&self) -> u64 {
        PEAK.load(Ordering::Relaxed)
            .max(self.peak_before)
            .saturating_sub(self.live0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `main.rs` installs the allocator for test builds too. The
    // counters are process-wide and the test harness runs tests on
    // parallel threads, so these checks use the per-thread count and
    // bound the global ones from below only.

    #[test]
    fn buffers_owned_before_the_region_are_excluded() {
        let mut owned: Vec<u64> = Vec::with_capacity(4096);
        let before = thread_allocs();
        for i in 0..4096 {
            owned.push(i);
        }
        assert_eq!(thread_allocs(), before, "push within capacity allocates");
        assert_eq!(owned.len(), 4096);
    }

    #[test]
    fn excluded_scope_is_not_counted_but_program_allocations_are() {
        let before = thread_allocs();
        let kept = excluded(|| vec![0u8; 1 << 16]);
        assert_eq!(thread_allocs(), before, "excluded allocation counted");
        let region = Region::start();
        let counted = std::hint::black_box(vec![1u8; 1 << 20]);
        assert_eq!(thread_allocs(), before + 1);
        assert!(region.allocs() >= 1);
        assert!(region.peak_growth() >= 1 << 20);
        drop((kept, counted));
        // A region whose only large allocation ran under `exclude`.
        let mut quiet = Region::start();
        quiet.exclude(|| drop(std::hint::black_box(vec![2u8; 64 << 20])));
        assert!(quiet.peak_growth() < 32 << 20, "excluded heap counted");
    }
}
