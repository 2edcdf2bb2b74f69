//! Last Branch Records.
//!
//! The LBR is a small circular buffer in which the CPU records recent
//! branches. Each entry carries a `(from, to)` IP pair plus two TSX-era
//! flags: `abort` (this branch was a transaction-abort rollback) and
//! `in_tsx` (the branch executed inside a transaction). TxSampler configures
//! the LBR filter to calls and returns, which is what makes in-transaction
//! call-path reconstruction possible (paper §3.4, Figure 3).

use crate::ip::Ip;

/// The branch kinds the filtered LBR records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// A function call.
    Call,
    /// A function return.
    Return,
    /// The rollback branch from an aborting transaction to its fallback.
    TxAbort,
    /// The asynchronous branch caused by a PMU interrupt delivery.
    Interrupt,
}

/// One LBR entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbrEntry {
    /// Branch source IP.
    pub from: Ip,
    /// Branch target IP.
    pub to: Ip,
    /// Kind of branch (call/return/abort/interrupt).
    pub kind: BranchKind,
    /// Set when the branch executed inside a transaction.
    pub in_tsx: bool,
    /// Set when the branch is (or reflects) a transactional abort.
    pub abort: bool,
}

/// A fixed-depth circular branch buffer.
///
/// `snapshot` returns entries oldest-first, which is the order the
/// reconstruction algorithm consumes them in; `latest` gives the entry a
/// profiler's interrupt handler checks for the abort bit (Challenge I).
#[derive(Debug, Clone)]
pub struct Lbr {
    entries: Vec<LbrEntry>,
    head: usize,
    len: usize,
}

impl Lbr {
    /// Create an LBR with `depth` entries (16 = Haswell, 32 = Skylake+).
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "LBR depth must be positive");
        Lbr {
            entries: Vec::with_capacity(depth),
            head: 0,
            len: 0,
        }
    }

    /// Configured depth.
    pub fn depth(&self) -> usize {
        self.entries.capacity()
    }

    /// Number of recorded entries (saturates at depth).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no branches have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record a branch, evicting the oldest entry when full.
    pub fn push(&mut self, entry: LbrEntry) {
        let depth = self.entries.capacity();
        if self.entries.len() < depth {
            self.entries.push(entry);
            self.len = self.entries.len();
        } else {
            self.entries[self.head] = entry;
            self.head = (self.head + 1) % depth;
        }
    }

    /// The most recently recorded entry.
    pub fn latest(&self) -> Option<&LbrEntry> {
        if self.len == 0 {
            return None;
        }
        let depth = self.entries.capacity();
        let idx = if self.entries.len() < depth {
            self.entries.len() - 1
        } else {
            (self.head + depth - 1) % depth
        };
        Some(&self.entries[idx])
    }

    /// Copy out the buffer, oldest entry first.
    pub fn snapshot(&self) -> Vec<LbrEntry> {
        let mut out = Vec::with_capacity(self.len);
        self.snapshot_into(&mut out);
        out
    }

    /// [`Lbr::snapshot`] into a caller-owned buffer, replacing its contents.
    pub fn snapshot_into(&self, out: &mut Vec<LbrEntry>) {
        out.clear();
        if self.entries.len() < self.entries.capacity() {
            out.extend_from_slice(&self.entries);
        } else {
            out.extend_from_slice(&self.entries[self.head..]);
            out.extend_from_slice(&self.entries[..self.head]);
        }
    }

    /// Clear all recorded branches (used at thread start).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::FuncId;

    fn entry(n: u32) -> LbrEntry {
        LbrEntry {
            from: Ip::new(FuncId(n), n),
            to: Ip::new(FuncId(n + 1), 0),
            kind: BranchKind::Call,
            in_tsx: false,
            abort: false,
        }
    }

    #[test]
    fn empty_lbr() {
        let lbr = Lbr::new(4);
        assert!(lbr.is_empty());
        assert!(lbr.latest().is_none());
        assert!(lbr.snapshot().is_empty());
    }

    #[test]
    fn push_below_capacity_keeps_order() {
        let mut lbr = Lbr::new(4);
        for i in 0..3 {
            lbr.push(entry(i));
        }
        assert_eq!(lbr.len(), 3);
        let snap = lbr.snapshot();
        assert_eq!(snap[0], entry(0));
        assert_eq!(snap[2], entry(2));
        assert_eq!(*lbr.latest().unwrap(), entry(2));
    }

    #[test]
    fn overflow_evicts_oldest() {
        let mut lbr = Lbr::new(4);
        for i in 0..6 {
            lbr.push(entry(i));
        }
        assert_eq!(lbr.len(), 4);
        let snap = lbr.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.from.line).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert_eq!(*lbr.latest().unwrap(), entry(5));
    }

    #[test]
    fn wraparound_many_times() {
        let mut lbr = Lbr::new(3);
        for i in 0..100 {
            lbr.push(entry(i));
        }
        let snap = lbr.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.from.line).collect::<Vec<_>>(),
            vec![97, 98, 99]
        );
    }

    #[test]
    fn clear_resets() {
        let mut lbr = Lbr::new(3);
        for i in 0..5 {
            lbr.push(entry(i));
        }
        lbr.clear();
        assert!(lbr.is_empty());
        lbr.push(entry(9));
        assert_eq!(lbr.snapshot().len(), 1);
        assert_eq!(*lbr.latest().unwrap(), entry(9));
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_rejected() {
        Lbr::new(0);
    }
}
