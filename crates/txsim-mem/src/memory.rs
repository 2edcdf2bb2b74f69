//! The simulated flat address space.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Addr, WORD_BYTES};

/// A flat, word-granular simulated memory shared by all simulated CPUs.
///
/// Storage is `AtomicU64` per word so committed accesses from concurrent
/// threads never constitute a host-level data race. All cross-thread
/// *transactional* consistency (dooming readers on a conflicting store,
/// publish locking at commit) is layered on top by `txsim-htm`; this type
/// only guarantees tear-free word reads and writes.
///
/// Word accesses use `Relaxed` ordering: the simulator's own synchronization
/// (directory locks, doom flags with acquire/release, publish locks) provides
/// all required happens-before edges, and per the Rust atomics guidance we do
/// not pay for stronger orderings the protocol does not need.
///
/// The backing store comes from one zeroed allocation, which for any large
/// size the OS serves as lazily mapped zero pages: building and dropping a
/// memory costs host time and resident memory in proportion to the pages a
/// program touches, not to the size of the address space.
pub struct SimMemory {
    words: Box<[AtomicU64]>,
}

// `SimMemory::new` hands an allocation made for `[u64]` to a
// `Box<[AtomicU64]>`, which frees it with `[AtomicU64]`'s layout. The sizes
// are documented equal; `AtomicU64` is over-aligned on targets whose `u64`
// is 4-byte aligned, so refuse to build there rather than free with a
// layout the allocation was not made with.
const _: () = assert!(std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>());

impl SimMemory {
    /// Create a zero-initialized memory of `bytes` bytes (rounded up to a
    /// whole number of words).
    pub fn new(bytes: u64) -> Self {
        let words = bytes.div_ceil(WORD_BYTES) as usize;
        // `vec![0; n]` allocates with `alloc_zeroed`, so no word is written
        // here and no page is faulted in.
        let zeroed: *mut [u64] = Box::into_raw(vec![0u64; words].into_boxed_slice());
        // SAFETY: `zeroed` came from `Box::into_raw` just above, is not used
        // again, and so is owned, non-null and valid for its whole length.
        // `AtomicU64` is documented to have the same size and bit validity
        // as `u64`, and the assertion above pins the same alignment, so the
        // cast keeps the slice length, every (zero) word is a valid
        // `AtomicU64`, and the box frees the allocation with the layout it
        // was made with. No `&[u64]` to the words outlives the cast, so all
        // later access is through the atomics.
        let words = unsafe { Box::from_raw(zeroed as *mut [AtomicU64]) };
        SimMemory { words }
    }

    /// Size of the address space in bytes.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.words.len() as u64 * WORD_BYTES
    }

    #[inline]
    fn word_index(&self, addr: Addr) -> usize {
        debug_assert_eq!(addr % WORD_BYTES, 0, "unaligned word access at {addr:#x}");
        let idx = (addr / WORD_BYTES) as usize;
        assert!(
            idx < self.words.len(),
            "simulated address {addr:#x} out of bounds ({} bytes)",
            self.size_bytes()
        );
        idx
    }

    /// Read the word at `addr` (committed state).
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        self.words[self.word_index(addr)].load(Ordering::Relaxed)
    }

    /// Write the word at `addr` (committed state).
    #[inline]
    pub fn store(&self, addr: Addr, value: u64) {
        self.words[self.word_index(addr)].store(value, Ordering::Relaxed)
    }

    /// Atomic compare-and-swap on the word at `addr`. Used by the simulated
    /// fallback lock and by workloads that model lock-free operations.
    ///
    /// Returns `Ok(current)` on success and `Err(actual)` on failure, like
    /// [`AtomicU64::compare_exchange`].
    #[inline]
    pub fn compare_exchange(&self, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        self.words[self.word_index(addr)].compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
    }

    /// Atomic fetch-add on the word at `addr`.
    #[inline]
    pub fn fetch_add(&self, addr: Addr, delta: u64) -> u64 {
        self.words[self.word_index(addr)].fetch_add(delta, Ordering::AcqRel)
    }
}

impl std::fmt::Debug for SimMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimMemory")
            .field("size_bytes", &self.size_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The default machine size (`DomainConfig::default().memory_bytes`).
    const BIG: u64 = 256 << 20;
    /// Host page size assumed by the first-touch tests; a larger real page
    /// only makes them touch fewer distinct pages.
    const PAGE: u64 = 4096;

    #[test]
    fn new_memory_is_zeroed_and_sized() {
        let m = SimMemory::new(100);
        assert_eq!(m.size_bytes(), 104); // rounded to 13 words
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(96), 0);
    }

    #[test]
    fn load_store_roundtrip() {
        let m = SimMemory::new(1024);
        m.store(8, 0xdead_beef);
        m.store(16, u64::MAX);
        assert_eq!(m.load(8), 0xdead_beef);
        assert_eq!(m.load(16), u64::MAX);
        assert_eq!(m.load(24), 0);
    }

    #[test]
    #[should_panic(expected = "simulated address 0x40 out of bounds (64 bytes)")]
    fn out_of_bounds_panics() {
        let m = SimMemory::new(64);
        m.load(64);
    }

    #[test]
    fn size_rounds_up_to_whole_words() {
        assert_eq!(SimMemory::new(0).size_bytes(), 0);
        assert_eq!(SimMemory::new(1).size_bytes(), 8);
        assert_eq!(SimMemory::new(8).size_bytes(), 8);
        assert_eq!(SimMemory::new(9).size_bytes(), 16);
        assert_eq!(SimMemory::new((1 << 20) + 3).size_bytes(), (1 << 20) + 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds (0 bytes)")]
    fn empty_memory_has_no_valid_address() {
        SimMemory::new(0).load(0);
    }

    #[test]
    fn fresh_large_memory_reads_zero_throughout() {
        let m = SimMemory::new(BIG);
        assert_eq!(m.size_bytes(), BIG);
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(BIG - WORD_BYTES), 0);
        for addr in (0..BIG).step_by(1 << 20) {
            assert_eq!(m.load(addr), 0, "word at {addr:#x}");
        }
    }

    /// Eight threads first-touch the same word of every page (racing on the
    /// host's page fault), then a word of their own in each page.
    #[test]
    fn concurrent_first_touch_sees_zeros_then_own_writes() {
        const THREADS: u64 = 8;
        const PAGES: u64 = 512;
        let m = SimMemory::new(PAGES * PAGE);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (m, start) = (&m, &start);
                s.spawn(move || {
                    start.wait();
                    for page in 0..PAGES {
                        let shared = page * PAGE;
                        let own = shared + (t + 1) * WORD_BYTES;
                        // Nobody stores to the shared word: a zero here is
                        // the page's initial content, whoever faulted it in.
                        assert_eq!(m.load(shared), 0);
                        assert_eq!(m.load(own), 0);
                        m.store(own, (t << 32) | page);
                    }
                    // Disjoint pages: thread t alone touches these.
                    for page in (t..PAGES).step_by(THREADS as usize) {
                        let addr = page * PAGE + PAGE / 2;
                        assert_eq!(m.load(addr), 0);
                        m.store(addr, !page);
                    }
                });
            }
        });
        for page in 0..PAGES {
            assert_eq!(m.load(page * PAGE), 0);
            for t in 0..THREADS {
                assert_eq!(m.load(page * PAGE + (t + 1) * WORD_BYTES), (t << 32) | page);
            }
            assert_eq!(m.load(page * PAGE + PAGE / 2), !page);
        }
    }

    #[test]
    fn drop_after_touching_some_pages() {
        let m = SimMemory::new(BIG);
        for page in 0..100 {
            m.store(page * 37 * PAGE, page + 1);
        }
        assert_eq!(m.load(99 * 37 * PAGE), 100);
        drop(m);
        // The allocator hands out zeroed memory again, not the old pages.
        assert_eq!(SimMemory::new(BIG).load(37 * PAGE), 0);
    }

    #[test]
    fn compare_exchange_semantics() {
        let m = SimMemory::new(64);
        assert_eq!(m.compare_exchange(0, 0, 7), Ok(0));
        assert_eq!(m.load(0), 7);
        assert_eq!(m.compare_exchange(0, 0, 9), Err(7));
        assert_eq!(m.load(0), 7);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let m = SimMemory::new(64);
        assert_eq!(m.fetch_add(8, 5), 0);
        assert_eq!(m.fetch_add(8, 5), 5);
        assert_eq!(m.load(8), 10);
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let m = Arc::new(SimMemory::new(64));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.fetch_add(0, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.load(0), 80_000);
    }
}
