//! Cache geometry: the line/set math that drives TSX conflict detection and
//! capacity aborts.
//!
//! Intel TSX tracks the read and write sets of a transaction in the L1 data
//! cache at cache-line granularity. A transaction therefore aborts with a
//! *capacity* abort when its footprint no longer fits in L1 — either because
//! the total number of distinct lines exceeds the cache size, or, much
//! earlier in practice, because more lines map into one cache *set* than the
//! cache has *ways* (associativity overflow). The write set is checked for
//! both bounds; the read set is modelled with a total-line budget
//! (`read_set_lines`), defaulting to the L1 line count. The rule lives in
//! one place, [`CacheGeometry::admits`]; the engine only asks it.

use crate::Addr;

/// Identifier of a cache line: the byte address divided by the line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId(pub u64);

/// Identifier of a cache set within the modelled L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetId(pub u32);

/// How a transaction wants to track one more distinct line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineUse {
    /// Into the read set.
    Read,
    /// Into the write set.
    Write,
}

/// Geometry of the cache that backs transactional tracking.
///
/// The default models the Haswell/Broadwell L1D used in the paper's testbed:
/// 32 KiB, 64-byte lines, 8-way set associative (64 sets). The read-set
/// budget equals the L1 line count: TSX tracks transactional reads in L1,
/// and footprints beyond it abort with a capacity abort (§1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Bytes per cache line. Must be a power of two.
    pub line_bytes: u64,
    /// Number of sets in the cache. Must be a power of two.
    pub sets: u32,
    /// Associativity (lines per set).
    pub ways: u32,
    /// Maximum number of distinct lines a transaction may *read* before a
    /// capacity abort, independent of set conflicts.
    pub read_set_lines: u32,
}

impl Default for CacheGeometry {
    fn default() -> Self {
        CacheGeometry {
            line_bytes: 64,
            sets: 64,
            ways: 8,
            read_set_lines: 512,
        }
    }
}

impl CacheGeometry {
    /// A tiny geometry handy for tests that want to force capacity aborts
    /// with small footprints.
    pub fn tiny() -> Self {
        CacheGeometry {
            line_bytes: 64,
            sets: 4,
            ways: 2,
            read_set_lines: 32,
        }
    }

    /// Total number of lines the cache can hold (`sets * ways`).
    #[inline]
    pub fn total_lines(&self) -> u32 {
        self.sets * self.ways
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_lines() as u64 * self.line_bytes
    }

    /// The cache line containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: Addr) -> LineId {
        LineId(addr / self.line_bytes)
    }

    /// First byte address of `line`.
    #[inline]
    pub fn line_base(&self, line: LineId) -> Addr {
        line.0 * self.line_bytes
    }

    /// The set a line maps to (low-order line-number bits, as on real L1s).
    #[inline]
    pub fn set_of(&self, line: LineId) -> SetId {
        SetId((line.0 % self.sets as u64) as u32)
    }

    /// The capacity rule: whether a transaction already tracking `held`
    /// distinct lines for `usage` can track one more. A read line needs
    /// room in the read budget; a write line needs a free way in its set —
    /// `set_fill` is how many of the transaction's write lines map there
    /// already — and room in the cache as a whole. `false` is a capacity
    /// abort.
    #[inline]
    pub fn admits(&self, usage: LineUse, held: usize, set_fill: u32) -> bool {
        match usage {
            LineUse::Read => held < self.read_set_lines as usize,
            LineUse::Write => set_fill < self.ways && held < self.total_lines() as usize,
        }
    }

    /// Byte offset of `addr` within its cache line.
    #[inline]
    pub fn offset_in_line(&self, addr: Addr) -> u64 {
        addr % self.line_bytes
    }

    /// Whether two addresses share a cache line — the granularity at which
    /// TSX reports conflicts, and hence the granularity at which *false
    /// sharing* (distinct bytes, same line) hurts.
    #[inline]
    pub fn same_line(&self, a: Addr, b: Addr) -> bool {
        self.line_of(a) == self.line_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_haswell_l1d() {
        let g = CacheGeometry::default();
        assert_eq!(g.capacity_bytes(), 32 * 1024);
        assert_eq!(g.total_lines(), 512);
    }

    #[test]
    fn line_mapping_is_consistent() {
        let g = CacheGeometry::default();
        let line = g.line_of(1000);
        assert_eq!(line, LineId(15)); // 1000 / 64
        assert_eq!(g.line_base(line), 960);
        assert_eq!(g.offset_in_line(1000), 40);
    }

    #[test]
    fn same_line_detects_false_sharing_pairs() {
        let g = CacheGeometry::default();
        assert!(g.same_line(0, 63));
        assert!(!g.same_line(63, 64));
        assert!(g.same_line(128, 191));
    }

    #[test]
    fn capacity_rule_has_three_bounds() {
        let g = CacheGeometry::tiny(); // 4 sets x 2 ways, 32 read lines
        assert!(g.admits(LineUse::Read, 31, 0));
        assert!(!g.admits(LineUse::Read, 32, 0), "read budget");
        assert!(g.admits(LineUse::Write, 7, 1));
        assert!(!g.admits(LineUse::Write, 2, 2), "ways in the set");
        assert!(!g.admits(LineUse::Write, 8, 0), "total lines");
    }

    #[test]
    fn sets_cycle_with_line_number() {
        let g = CacheGeometry::default();
        // Lines 0 and 64 alias onto set 0 with 64 sets.
        assert_eq!(g.set_of(LineId(0)), g.set_of(LineId(64)));
        assert_ne!(g.set_of(LineId(0)), g.set_of(LineId(1)));
    }

    // Property tests need the vendored `proptest` crate; see Cargo.toml.
    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn line_base_is_floor(addr in 0u64..1u64<<40) {
                let g = CacheGeometry::default();
                let line = g.line_of(addr);
                let base = g.line_base(line);
                prop_assert!(base <= addr);
                prop_assert!(addr - base < g.line_bytes);
                prop_assert_eq!(g.offset_in_line(addr), addr - base);
            }

            #[test]
            fn set_id_in_range(line in 0u64..1u64<<34) {
                let g = CacheGeometry::default();
                prop_assert!(g.set_of(LineId(line)).0 < g.sets);
            }

            #[test]
            fn same_line_iff_equal_line_ids(a in 0u64..1u64<<30, b in 0u64..1u64<<30) {
                let g = CacheGeometry::default();
                prop_assert_eq!(g.same_line(a, b), g.line_of(a) == g.line_of(b));
            }
        }
    }
}
