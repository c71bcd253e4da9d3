//! A counting global allocator for test and bench builds.
//!
//! The DES hot path is budgeted to **zero heap allocations per delivered
//! event** in the steady state (DESIGN.md §10): every buffer the delivery
//! loop touches — the calendar's entry arena and bucket array, the engine's
//! batch buffer, the slot slab — reaches a stable capacity during warmup and is
//! reused thereafter. Wall-clock benchmarks can only show the *symptom* of
//! a regression (throughput loss, often hidden inside machine noise); this
//! crate makes the *cause* directly observable by counting every heap
//! operation that reaches the system allocator.
//!
//! Usage, in an integration test or bench binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: paradyn_allocguard::CountingAlloc = paradyn_allocguard::CountingAlloc;
//!
//! // ... warm the system up ...
//! let mark = paradyn_allocguard::checkpoint();
//! // ... drive the steady state ...
//! assert_eq!(mark.allocations_since(), 0);
//! ```
//!
//! The counters are **per thread**: each counts only the heap operations
//! made by the thread reading it, so tests that the harness runs on
//! parallel threads cannot count each other's allocations. A window
//! measured on the thread that drives the `Sim` is exact whatever else the
//! process is doing (the DES kernel is single-threaded by design;
//! replication-level parallelism uses one `Sim` per thread).
//!
//! Zero dependencies: delegation goes straight to [`std::alloc::System`],
//! so the accounting adds two thread-local increments per heap operation
//! and changes no allocation behavior. The thread-locals are
//! const-initialized with no destructor, so touching them from inside the
//! allocator never allocates and never fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Add `n` to this thread's counter `c`.
#[inline]
fn bump(c: &'static std::thread::LocalKey<Cell<u64>>, n: u64) {
    c.with(|v| v.set(v.get() + n));
}

/// Read this thread's counter `c`.
fn read(c: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
    c.with(Cell::get)
}

/// A `#[global_allocator]` that counts every heap operation, then delegates
/// to [`System`].
// lint:allow(dead-pub): installed by crates/des/tests/zero_alloc.rs and tests/counting.rs
pub struct CountingAlloc;

// SAFETY: pure delegation to `System`, which upholds the `GlobalAlloc`
// contract; the added thread-local increments touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS, 1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is heap traffic just like a fresh allocation (it may
        // move the block); a hot path that grows a buffer every event
        // must not pass the zero-alloc gate on a technicality.
        bump(&REALLOCS, 1);
        bump(&BYTES, new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (incl. zeroed) made by this thread so far.
pub fn allocations() -> u64 {
    read(&ALLOCS)
}

/// Heap deallocations made by this thread so far.
pub fn deallocations() -> u64 {
    read(&DEALLOCS)
}

/// Heap reallocations made by this thread so far.
pub fn reallocations() -> u64 {
    read(&REALLOCS)
}

/// Total bytes requested (alloc + realloc) by this thread so far.
pub fn bytes_requested() -> u64 {
    read(&BYTES)
}

/// A point-in-time snapshot of this thread's counters, for windowed
/// measurements. Read it back on the same thread.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint {
    allocs: u64,
    deallocs: u64,
    reallocs: u64,
    bytes: u64,
}

/// Snapshot this thread's counters now.
// lint:allow(dead-pub): the zero-alloc gate (crates/des/tests/zero_alloc.rs) opens its window here
pub fn checkpoint() -> Checkpoint {
    Checkpoint {
        allocs: allocations(),
        deallocs: deallocations(),
        reallocs: reallocations(),
        bytes: bytes_requested(),
    }
}

impl Checkpoint {
    /// Allocations (fresh + zeroed) since this checkpoint.
    pub fn allocations_since(&self) -> u64 {
        allocations() - self.allocs
    }

    /// Deallocations since this checkpoint.
    // lint:allow(dead-pub): crates/allocguard/tests/counting.rs proves the counter sees frees
    pub fn deallocations_since(&self) -> u64 {
        deallocations() - self.deallocs
    }

    /// Reallocations since this checkpoint.
    pub fn reallocations_since(&self) -> u64 {
        reallocations() - self.reallocs
    }

    /// Total heap operations that could disturb a zero-alloc hot path:
    /// allocations plus reallocations (deallocations excluded — freeing
    /// into the allocator's cache is the benign half of a matched pair
    /// already counted on the alloc side).
    // lint:allow(dead-pub): the zero-alloc gate (crates/des/tests/zero_alloc.rs) reads it
    pub fn heap_traffic_since(&self) -> u64 {
        self.allocations_since() + self.reallocations_since()
    }

    /// Bytes requested since this checkpoint.
    // lint:allow(dead-pub): crates/allocguard/tests/counting.rs proves the counter sees bytes
    pub fn bytes_since(&self) -> u64 {
        bytes_requested() - self.bytes
    }
}
