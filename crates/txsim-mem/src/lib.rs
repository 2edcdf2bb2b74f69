//! Simulated flat memory for the TSX/HTM simulator.
//!
//! The simulator gives every workload a single shared, word-granular address
//! space. Addresses are plain byte offsets ([`Addr`]); storage is a vector of
//! `AtomicU64` words so that committed (non-speculative) accesses from
//! concurrent threads are data-race free without any locking. Cache-line
//! mapping — the granularity at which Intel TSX detects conflicts and at
//! which capacity is consumed — is provided by [`CacheGeometry`].
//!
//! The crate deliberately knows nothing about transactions: speculation,
//! write buffering and conflict detection live in `txsim-htm`. This keeps
//! the memory layer reusable by non-transactional workload phases.

#![warn(missing_docs)]
// The workspace's only `unsafe` lives in `memory`; every other crate
// forbids it outright.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod geometry;
pub mod heap;
pub mod memory;

pub use geometry::{CacheGeometry, LineId, LineUse, SetId};
pub use heap::TxHeap;
pub use memory::SimMemory;

/// A byte address in the simulated address space.
///
/// Word accesses must be 8-byte aligned; `SimMemory` checks this in debug
/// builds. Addresses are never dereferenced as host pointers.
pub type Addr = u64;

/// Size of a machine word in the simulated ISA, in bytes.
pub const WORD_BYTES: u64 = 8;

/// Round `n` up to the next multiple of `align` (which must be a power of two).
#[inline]
pub fn align_up(n: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (n + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 8), 16);
        assert_eq!(align_up(63, 64), 64);
        assert_eq!(align_up(65, 64), 128);
    }

    #[test]
    fn align_up_is_idempotent() {
        for n in [0u64, 3, 7, 8, 100, 1021] {
            for align in [1u64, 2, 8, 64, 4096] {
                let a = align_up(n, align);
                assert_eq!(align_up(a, align), a);
                assert!(a >= n);
                assert!(a - n < align);
            }
        }
    }
}
