//! Pins the runtime's no-allocation contract for the per-site tables the
//! contended slow path writes: after construction, `CmTable::note` and
//! `HistTable::record` perform **zero heap allocations** — whether the
//! site is new, already seated, or refused because the table is full.
//!
//! Lives in its own integration-test binary because the counting global
//! allocator is process-wide (the `crates/core/tests/alloc_free.rs`
//! pattern).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rtm_runtime::{CmEvent, CmTable, HistTable, CM_SITE_CAPACITY, HIST_SITE_CAPACITY};
use txsim_htm::{FuncId, Ip};

/// Counts allocations and reallocations, but only on threads that opted in
/// via `TRACK`: the libtest harness's main thread allocates concurrently
/// with the measured loop. The TLS cell is const-initialized, so reading
/// it never allocates (no recursion).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACK.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACK.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn cm_and_hist_tables_never_allocate_after_construction() {
    let mut cm = CmTable::new();
    let mut hists = HistTable::new();
    // More distinct sites than either table seats, so the window covers
    // first-seating, re-recording and the counted-overflow path.
    let sites = (CM_SITE_CAPACITY.max(HIST_SITE_CAPACITY) + 16) as u32;
    let events = [
        CmEvent::Yield,
        CmEvent::Stall,
        CmEvent::Escalation,
        CmEvent::PriorityAbort,
    ];

    TRACK.with(|t| t.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..10_000u32 {
        let site = Ip::new(FuncId(i % sites), 7);
        cm.note(site, events[i as usize % events.len()]);
        hists.record(
            site,
            300 + u64::from(i % 97),
            1 + i % 5,
            (i % 3 == 0).then_some(40),
        );
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    TRACK.with(|t| t.set(false));

    assert_eq!(
        allocated, 0,
        "the per-site tables allocated on the record path"
    );
    assert!(cm.overflowed() > 0 && hists.overflowed() > 0);
    assert_eq!(cm.take_delta().len(), CM_SITE_CAPACITY);
    assert_eq!(hists.take_delta().len(), HIST_SITE_CAPACITY);
}
