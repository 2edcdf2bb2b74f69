//! The cache-line conflict directory.
//!
//! Real TSX piggybacks on the MESI coherence protocol: a core tracks its
//! transactional read/write sets in L1 and aborts when a snoop from another
//! core hits a tracked line. The simulator centralizes that state in a
//! sharded directory mapping [`LineId`] → readers/writer, with a per-thread
//! *doom flag* playing the role of the asynchronous abort signal.
//!
//! Policy is requester-wins, as on Intel hardware: the access being performed
//! *now* proceeds, and conflicting speculative peers are doomed. The one
//! exception is a line mid-publish (its writer passed its commit point):
//! the requester loses and self-aborts, because a committing transaction can
//! no longer be rolled back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use obs::Counter;
use txsim_mem::LineId;

/// Maximum simulated threads per domain (reader sets are a `u64` bitmask).
pub const MAX_THREADS: usize = 64;

/// Lock shards in the directory.
const SHARDS: usize = 128;

/// Doom-flag bit: the transaction lost a conflict and must abort.
pub const DOOM_CONFLICT: u32 = 1;

#[derive(Default)]
struct LineState {
    /// Bitmask of thread ids with this line in their transactional read set.
    readers: u64,
    /// Thread id currently holding the line in its transactional write set.
    writer: Option<u8>,
    /// The writer has passed its commit point and is publishing.
    committing: bool,
}

impl LineState {
    fn is_empty(&self) -> bool {
        self.readers == 0 && self.writer.is_none() && !self.committing
    }
}

struct Shard {
    lines: Mutex<HashMap<LineId, LineState>>,
    /// Fast-path emptiness check so plain (non-transactional) accesses in
    /// transaction-free phases skip the mutex entirely.
    len: AtomicUsize,
}

/// Per-thread slot holding the asynchronous abort state.
pub struct ThreadSlot {
    /// Doom flag: non-zero means "your transaction has lost a conflict".
    doomed: AtomicU32,
    /// Set while the thread is publishing a commit; a plain store that dooms
    /// this thread must wait for publication to finish so the plain store
    /// serializes after the commit.
    committing: AtomicBool,
}

impl Default for ThreadSlot {
    fn default() -> Self {
        ThreadSlot {
            doomed: AtomicU32::new(0),
            committing: AtomicBool::new(false),
        }
    }
}

/// Outcome of declaring a transactional access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Declare {
    /// Access granted (conflicting peers, if any, were doomed).
    Ok,
    /// The line is being published by a committing transaction: the
    /// requester loses and must abort with a conflict.
    SelfConflict,
}

/// The sharded conflict directory plus thread registry.
pub struct Directory {
    shards: Vec<Shard>,
    threads: Vec<ThreadSlot>,
    next_tid: AtomicUsize,
    /// Number of transactions currently speculating, domain-wide. Plain
    /// accesses skip all conflict bookkeeping when zero.
    active_txs: AtomicUsize,
    /// Total dooms issued (diagnostics).
    pub dooms: std::sync::atomic::AtomicU64,
}

#[inline]
fn bit(tid: usize) -> u64 {
    1u64 << tid
}

impl Directory {
    /// Create an empty directory.
    pub fn new() -> Self {
        Directory {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    lines: Mutex::new(HashMap::new()),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            threads: (0..MAX_THREADS).map(|_| ThreadSlot::default()).collect(),
            next_tid: AtomicUsize::new(0),
            active_txs: AtomicUsize::new(0),
            dooms: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Allocate a thread id. Panics beyond [`MAX_THREADS`].
    pub fn register_thread(&self) -> usize {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        assert!(
            tid < MAX_THREADS,
            "more than {MAX_THREADS} simulated threads in one domain"
        );
        tid
    }

    #[inline]
    fn shard(&self, line: LineId) -> &Shard {
        // Lines are sequential in most workloads; a multiplicative hash
        // spreads neighbouring lines across shards.
        let h = (line.0.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 32;
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Read a thread's doom flag.
    #[inline]
    pub fn doomed(&self, tid: usize) -> u32 {
        self.threads[tid].doomed.load(Ordering::Acquire)
    }

    #[inline]
    fn doom(&self, tid: usize, cause: u32) {
        self.dooms.fetch_add(1, Ordering::Relaxed);
        obs::count(Counter::DirectoryDooms);
        self.threads[tid].doomed.fetch_or(cause, Ordering::SeqCst);
    }

    /// Mark a transaction as started (enables plain-access snooping).
    pub fn tx_started(&self) {
        self.active_txs.fetch_add(1, Ordering::SeqCst);
    }

    /// Mark a transaction as finished (commit or abort).
    pub fn tx_finished(&self) {
        self.active_txs.fetch_sub(1, Ordering::SeqCst);
    }

    /// Whether any transaction is speculating domain-wide.
    #[inline]
    pub fn any_active_tx(&self) -> bool {
        self.active_txs.load(Ordering::SeqCst) != 0
    }

    /// Declare a transactional read of `line` by `tid`. Dooms a conflicting
    /// remote writer (requester wins) unless that writer is publishing, in
    /// which case the requester must self-abort.
    pub fn tx_read(&self, line: LineId, tid: usize) -> Declare {
        obs::count(Counter::DirectoryConflictChecks);
        let shard = self.shard(line);
        let mut map = shard.lines.lock().expect("directory shard poisoned");
        let entry = map.entry(line).or_default();
        if entry.readers == 0 && entry.writer.is_none() {
            shard.len.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(w) = entry.writer {
            if w as usize != tid {
                if entry.committing {
                    // Undo the len bump if we created the entry (we did not:
                    // a writer exists, the entry pre-existed).
                    return Declare::SelfConflict;
                }
                self.doom(w as usize, DOOM_CONFLICT);
                entry.writer = None;
            }
        }
        entry.readers |= bit(tid);
        Declare::Ok
    }

    /// Declare a transactional write of `line` by `tid`. Dooms every other
    /// reader and any other writer (requester wins) unless the line is
    /// mid-publish.
    pub fn tx_write(&self, line: LineId, tid: usize) -> Declare {
        obs::count(Counter::DirectoryConflictChecks);
        let shard = self.shard(line);
        let mut map = shard.lines.lock().expect("directory shard poisoned");
        let entry = map.entry(line).or_default();
        if entry.readers == 0 && entry.writer.is_none() {
            shard.len.fetch_add(1, Ordering::Relaxed);
        }
        if entry.committing {
            return Declare::SelfConflict;
        }
        if let Some(w) = entry.writer {
            if w as usize != tid {
                self.doom(w as usize, DOOM_CONFLICT);
            }
        }
        let others = entry.readers & !bit(tid);
        if others != 0 {
            let mut rest = others;
            while rest != 0 {
                let victim = rest.trailing_zeros() as usize;
                self.doom(victim, DOOM_CONFLICT);
                rest &= rest - 1;
            }
            entry.readers &= bit(tid);
        }
        entry.writer = Some(tid as u8);
        Declare::Ok
    }

    /// Snoop for a plain (non-transactional) load: dooms a remote
    /// transactional writer of the line (its speculative data would
    /// otherwise be observed).
    pub fn plain_load(&self, line: LineId) {
        if !self.any_active_tx() {
            return;
        }
        let shard = self.shard(line);
        if shard.len.load(Ordering::Relaxed) == 0 {
            return;
        }
        obs::count(Counter::DirectoryConflictChecks);
        let mut map = shard.lines.lock().expect("directory shard poisoned");
        if let Some(entry) = map.get_mut(&line) {
            if let Some(w) = entry.writer {
                if !entry.committing {
                    self.doom(w as usize, DOOM_CONFLICT);
                    entry.writer = None;
                    if entry.is_empty() {
                        map.remove(&line);
                        shard.len.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                // A committing writer has won: the load races with the
                // publish at word granularity, which is a legal serialization
                // either side of the commit.
            }
        }
    }

    /// Perform a plain (non-transactional) store by `tid` (or a
    /// non-simulated agent when `tid` is `None`): dooms every transactional
    /// reader and writer of the line and then runs `apply` — the actual
    /// memory write — *while still holding the shard lock*, so no
    /// transaction can re-declare the line between the snoop and the store.
    /// This is the mechanism by which the fallback path's lock acquisition
    /// aborts all speculating peers.
    ///
    /// If a victim has already passed its commit point, the store waits
    /// (lock released) for publication to finish and retries, so the plain
    /// store serializes *after* the commit.
    ///
    /// `forced` disables the active-transaction fast path; required for the
    /// elided lock word, where a racing `xbegin` must never miss the snoop.
    pub fn plain_store(
        &self,
        line: LineId,
        tid: Option<usize>,
        forced: bool,
        apply: impl FnOnce(),
    ) {
        if !forced && !self.any_active_tx() {
            apply();
            return;
        }
        let shard = self.shard(line);
        if !forced && shard.len.load(Ordering::Relaxed) == 0 {
            apply();
            return;
        }
        obs::count(Counter::DirectoryConflictChecks);
        loop {
            let mut wait_for: Vec<usize> = Vec::new();
            {
                let mut map = shard.lines.lock().expect("directory shard poisoned");
                if let Some(entry) = map.get_mut(&line) {
                    if let Some(w) = entry.writer {
                        if Some(w as usize) != tid {
                            if entry.committing {
                                wait_for.push(w as usize);
                            } else {
                                self.doom(w as usize, DOOM_CONFLICT);
                                entry.writer = None;
                            }
                        }
                    }
                    if wait_for.is_empty() {
                        let mut rest = entry.readers & !tid.map_or(0, bit);
                        while rest != 0 {
                            let victim = rest.trailing_zeros() as usize;
                            if self.threads[victim].committing.load(Ordering::SeqCst)
                                && self.doomed(victim) == 0
                            {
                                // Reader past its commit point: wait it out.
                                wait_for.push(victim);
                            } else {
                                self.doom(victim, DOOM_CONFLICT);
                                entry.readers &= !bit(victim);
                            }
                            rest &= rest - 1;
                        }
                    }
                    if wait_for.is_empty() {
                        if entry.is_empty() {
                            map.remove(&line);
                            shard.len.fetch_sub(1, Ordering::Relaxed);
                        }
                        apply();
                        return;
                    }
                } else {
                    apply();
                    return;
                }
            }
            for victim in wait_for {
                while self.threads[victim].committing.load(Ordering::SeqCst) {
                    // Publication is short but the victim may be descheduled
                    // on a loaded host; yield rather than burn the core.
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Attempt to commit: acquire publish ownership of every write line (in
    /// sorted order to avoid deadlock between committers), then re-check the
    /// doom flag. On success the caller must publish its write buffer and
    /// then call [`Directory::end_commit`]. On failure all acquired publish
    /// flags are rolled back and the caller must abort.
    pub fn begin_commit(&self, tid: usize, write_lines: &mut [LineId]) -> bool {
        write_lines.sort_unstable();
        self.threads[tid].committing.store(true, Ordering::SeqCst);
        let mut acquired = 0usize;
        let mut stolen = false;
        for (i, &line) in write_lines.iter().enumerate() {
            let mut map = self
                .shard(line)
                .lines
                .lock()
                .expect("directory shard poisoned");
            match map.get_mut(&line) {
                Some(entry) if entry.writer == Some(tid as u8) => {
                    entry.committing = true;
                    acquired = i + 1;
                }
                // Our write ownership was stolen (we are doomed) or the
                // entry vanished: commit fails.
                _ => {
                    stolen = true;
                    break;
                }
            }
        }
        let doomed = self.doomed(tid) != 0;
        if stolen || doomed {
            for &line in &write_lines[..acquired] {
                let mut map = self
                    .shard(line)
                    .lines
                    .lock()
                    .expect("directory shard poisoned");
                if let Some(entry) = map.get_mut(&line) {
                    if entry.writer == Some(tid as u8) {
                        entry.committing = false;
                    }
                }
            }
            self.threads[tid].committing.store(false, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Finish a commit after the write buffer has been published: drop the
    /// publish flags and all read/write ownership, then clear the
    /// thread-committing marker and any doom issued while publishing (such a
    /// doom lost the race against this commit and must not leak into the
    /// thread's next transaction).
    pub fn end_commit(&self, tid: usize, read_lines: &[LineId], write_lines: &[LineId]) {
        self.clear_ownership(tid, read_lines, write_lines);
        self.threads[tid].committing.store(false, Ordering::SeqCst);
        self.threads[tid].doomed.store(0, Ordering::SeqCst);
    }

    /// Abort cleanup: drop all of the thread's directory state, then reset
    /// its doom flag. The ordering (clear bits first, reset flag last, each
    /// under the shard lock) guarantees no doom issued against the dead
    /// transaction can leak into the thread's *next* transaction.
    pub fn release_aborted(&self, tid: usize, read_lines: &[LineId], write_lines: &[LineId]) {
        self.clear_ownership(tid, read_lines, write_lines);
        self.threads[tid].doomed.store(0, Ordering::SeqCst);
    }

    fn clear_ownership(&self, tid: usize, read_lines: &[LineId], write_lines: &[LineId]) {
        for &line in read_lines.iter().chain(write_lines) {
            let shard = self.shard(line);
            let mut map = shard.lines.lock().expect("directory shard poisoned");
            if let Some(entry) = map.get_mut(&line) {
                entry.readers &= !bit(tid);
                if entry.writer == Some(tid as u8) {
                    entry.writer = None;
                    entry.committing = false;
                }
                if entry.is_empty() {
                    map.remove(&line);
                    shard.len.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of lines currently tracked (for tests and introspection).
    pub fn tracked_lines(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lines.lock().expect("directory shard poisoned").len())
            .sum()
    }
}

impl Default for Directory {
    fn default() -> Self {
        Directory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineId {
        LineId(n)
    }

    #[test]
    fn read_read_no_conflict() {
        let d = Directory::new();
        assert_eq!(d.tx_read(line(1), 0), Declare::Ok);
        assert_eq!(d.tx_read(line(1), 1), Declare::Ok);
        assert_eq!(d.doomed(0), 0);
        assert_eq!(d.doomed(1), 0);
    }

    #[test]
    fn write_dooms_readers() {
        let d = Directory::new();
        d.tx_read(line(1), 0);
        d.tx_read(line(1), 1);
        assert_eq!(d.tx_write(line(1), 2), Declare::Ok);
        assert_ne!(d.doomed(0), 0);
        assert_ne!(d.doomed(1), 0);
        assert_eq!(d.doomed(2), 0);
    }

    #[test]
    fn write_does_not_doom_self_reader() {
        let d = Directory::new();
        d.tx_read(line(1), 0);
        assert_eq!(d.tx_write(line(1), 0), Declare::Ok);
        assert_eq!(d.doomed(0), 0);
    }

    #[test]
    fn read_dooms_remote_writer() {
        let d = Directory::new();
        d.tx_write(line(1), 0);
        assert_eq!(d.tx_read(line(1), 1), Declare::Ok);
        assert_ne!(d.doomed(0), 0);
        assert_eq!(d.doomed(1), 0);
    }

    #[test]
    fn write_write_conflict_requester_wins() {
        let d = Directory::new();
        d.tx_write(line(1), 0);
        assert_eq!(d.tx_write(line(1), 1), Declare::Ok);
        assert_ne!(d.doomed(0), 0);
        assert_eq!(d.doomed(1), 0);
    }

    #[test]
    fn plain_store_dooms_everyone() {
        let d = Directory::new();
        d.tx_started();
        d.tx_read(line(1), 0);
        d.tx_write(line(1), 1); // dooms reader 0 already
        d.plain_store(line(1), None, false, || {});
        assert_ne!(d.doomed(0), 0);
        assert_ne!(d.doomed(1), 0);
    }

    #[test]
    fn plain_load_dooms_only_writer() {
        let d = Directory::new();
        d.tx_started();
        d.tx_read(line(2), 0);
        d.tx_write(line(3), 1);
        d.plain_load(line(2));
        d.plain_load(line(3));
        assert_eq!(d.doomed(0), 0, "reader must survive a plain load");
        assert_ne!(d.doomed(1), 0, "writer must be doomed by a plain load");
    }

    #[test]
    fn plain_access_without_active_tx_is_noop() {
        let d = Directory::new();
        d.tx_read(line(1), 0); // stale entry but no active tx counter
        d.plain_store(line(1), None, false, || {});
        assert_eq!(d.doomed(0), 0);
    }

    #[test]
    fn commit_blocks_new_conflicting_access() {
        let d = Directory::new();
        d.tx_write(line(1), 0);
        let mut wl = vec![line(1)];
        assert!(d.begin_commit(0, &mut wl));
        // During publish, a reader from another tx must self-abort.
        assert_eq!(d.tx_read(line(1), 1), Declare::SelfConflict);
        assert_eq!(d.tx_write(line(1), 1), Declare::SelfConflict);
        assert_eq!(d.doomed(0), 0);
        d.end_commit(0, &[], &wl);
        // After publish everything is released.
        assert_eq!(d.tx_read(line(1), 1), Declare::Ok);
    }

    #[test]
    fn commit_fails_when_doomed() {
        let d = Directory::new();
        d.tx_write(line(1), 0);
        d.tx_write(line(1), 1); // dooms 0
        let mut wl = vec![line(1)];
        assert!(!d.begin_commit(0, &mut wl));
        // Thread 1 still owns the line and can commit.
        let mut wl1 = vec![line(1)];
        assert!(d.begin_commit(1, &mut wl1));
        d.end_commit(1, &[], &wl1);
    }

    #[test]
    fn release_aborted_resets_doom_and_ownership() {
        let d = Directory::new();
        d.tx_read(line(1), 0);
        d.tx_write(line(2), 0);
        d.tx_write(line(1), 1); // dooms 0
        assert_ne!(d.doomed(0), 0);
        d.release_aborted(0, &[line(1)], &[line(2)]);
        assert_eq!(d.doomed(0), 0);
        // Line 2 is free again.
        assert_eq!(d.tx_write(line(2), 1), Declare::Ok);
        assert_eq!(d.doomed(1), 0);
    }

    #[test]
    fn directory_shrinks_after_release() {
        let d = Directory::new();
        for i in 0..100 {
            d.tx_read(line(i), 0);
        }
        assert_eq!(d.tracked_lines(), 100);
        let lines: Vec<_> = (0..100).map(line).collect();
        d.release_aborted(0, &lines, &[]);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn multi_line_commit_sorts_and_succeeds() {
        let d = Directory::new();
        for i in [5u64, 1, 9, 3] {
            d.tx_write(line(i), 0);
        }
        let mut wl = vec![line(5), line(1), line(9), line(3)];
        assert!(d.begin_commit(0, &mut wl));
        assert_eq!(wl, vec![line(1), line(3), line(5), line(9)]);
        d.end_commit(0, &[], &wl);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn register_thread_allocates_sequentially() {
        let d = Directory::new();
        assert_eq!(d.register_thread(), 0);
        assert_eq!(d.register_thread(), 1);
    }

    #[test]
    fn concurrent_writers_one_survivor_per_round() {
        // Hammer one line from many real threads; the directory must never
        // deadlock and at any point at most one un-doomed writer may exist.
        let d = std::sync::Arc::new(Directory::new());
        let mut handles = vec![];
        for tid in 0..8 {
            let d = std::sync::Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    d.tx_write(line(7), tid);
                    if d.doomed(tid) != 0 {
                        d.release_aborted(tid, &[], &[line(7)]);
                    }
                }
                // Final cleanup.
                d.release_aborted(tid, &[], &[line(7)]);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.tracked_lines(), 0);
    }
}
