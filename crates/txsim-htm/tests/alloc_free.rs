//! Pins the engine's steady-state allocation count: once a `SimCpu`'s
//! speculation footprint and the directory's shard maps have warmed up, a
//! hardware transaction and a software-speculation round acquire no heap
//! memory.
//!
//! Lives in its own integration-test binary because the counting global
//! allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use txsim_htm::{HtmDomain, SamplingConfig, SimCpu};

/// Counts allocations and reallocations, only on threads that opted in via
/// `TRACK` (the libtest main thread prints concurrently). The TLS cell is
/// const-initialized, so reading it never allocates.
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
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACK.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROUNDS: u64 = 1_000;
const WARM_UP: u64 = 16;

/// Allocations per round of `round`, after a warm-up.
fn allocs_per_round(cpu: &mut SimCpu, mut round: impl FnMut(&mut SimCpu)) -> f64 {
    for _ in 0..WARM_UP {
        round(cpu);
    }
    TRACK.with(|t| t.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        round(cpu);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    TRACK.with(|t| t.set(false));
    allocs as f64 / ROUNDS as f64
}

#[test]
fn steady_state_transactions_do_not_allocate_in_the_cpu() {
    let d = HtmDomain::with_defaults();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    // Sixteen words on sixteen lines: eight read, eight written.
    let words: Vec<u64> = (0..16).map(|_| d.heap.alloc_padded(8, 64)).collect();
    let (reads, writes) = words.split_at(8);

    let htm = allocs_per_round(&mut cpu, |cpu| {
        cpu.xbegin(1).unwrap();
        for &a in reads {
            cpu.load(2, a).unwrap();
        }
        for &a in writes {
            cpu.store(3, a, 7).unwrap();
        }
        cpu.xend(4).unwrap();
    });
    let stm = allocs_per_round(&mut cpu, |cpu| {
        cpu.stm_begin(1).unwrap();
        for &a in reads {
            cpu.load(2, a).unwrap();
        }
        for &a in writes {
            cpu.store(3, a, 7).unwrap();
        }
        cpu.stm_take(4, |_, taken| {
            assert_eq!((taken.read_lines.len(), taken.writes.len()), (8, 8));
        });
    });
    eprintln!("allocations per transaction: htm {htm}, stm {stm}");
    assert_eq!((htm, stm), (0.0, 0.0));
}
