//! Lightweight memory-contention analysis (paper §3.3).
//!
//! The profiler samples precise memory loads and stores, each carrying its
//! effective address. Two shadow structures record, per cache line and per
//! word, the most recent sampled access (thread, read/write, timestamp).
//! A new sample *contends* when another thread touched the same cache line
//! within a time window P and at least one of the two accesses is a store.
//! Contention is then classified: if the other thread touched the *same
//! word*, it is true sharing; if it only shares the cache line, it is false
//! sharing — the distinction that drives the "relocate data" advice in the
//! decision tree.

use std::collections::HashMap;
use std::sync::Mutex;

use obs::Counter;
use txsim_mem::{Addr, CacheGeometry};

use crate::collect::lock_recovering;

/// The paper sets the contention window P to 100 ms (empirically). The
/// simulator's timestamp is wall-clock nanoseconds.
pub const DEFAULT_WINDOW_NS: u64 = 100_000_000;

#[derive(Debug, Clone, Copy)]
struct Access {
    tid: usize,
    is_store: bool,
    tsc: u64,
}

/// Classification of a sampled access against the shadow memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// No qualifying cross-thread access in the window.
    None,
    /// Cross-thread contention on the same word.
    True,
    /// Cross-thread contention on the same cache line but different words.
    False,
}

const SHARDS: usize = 64;

/// Per-line shadow record: the most recent access, plus the most recent
/// access by a *different* thread than that one. Keeping two records means
/// a thread's own back-to-back samples cannot mask a cross-thread conflict
/// that happened just before them.
#[derive(Debug, Clone, Copy)]
struct LineShadow {
    last: Access,
    prev_other: Option<Access>,
}

struct Shard {
    by_line: HashMap<u64, LineShadow>,
    by_word: HashMap<Addr, Access>,
}

/// The shared shadow memory. One instance serves every thread's collector;
/// sampling rates keep contention on its internal locks negligible.
pub struct ContentionMap {
    geometry: CacheGeometry,
    window_ns: u64,
    shards: Vec<Mutex<Shard>>,
}

impl ContentionMap {
    /// Create a detector for the given cache geometry and window P.
    pub fn new(geometry: CacheGeometry, window_ns: u64) -> Self {
        ContentionMap {
            geometry,
            window_ns,
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        by_line: HashMap::new(),
                        by_word: HashMap::new(),
                    })
                })
                .collect(),
        }
    }

    /// Detector with the paper's default window.
    pub fn with_defaults(geometry: CacheGeometry) -> Self {
        ContentionMap::new(geometry, DEFAULT_WINDOW_NS)
    }

    /// Record a sampled access and classify it against the previous one.
    ///
    /// Mirrors §3.3: contention requires (1) a different thread, (2) at
    /// least one store between the two accesses, (3) the accesses within
    /// the window P; per-word shadow state then separates true from false
    /// sharing.
    pub fn record(&self, addr: Addr, tid: usize, is_store: bool, tsc: u64) -> Sharing {
        obs::count(Counter::ShadowProbes);
        let line = self.geometry.line_of(addr).0;
        let shard = &self.shards[(line as usize) % SHARDS];
        let mut shard = lock_recovering(shard);

        let mut result = Sharing::None;
        if let Some(prev) = shard.by_line.get(&line) {
            // Compare against the most recent access by a different thread.
            let candidate = if prev.last.tid != tid {
                Some(prev.last)
            } else {
                prev.prev_other
            };
            if let Some(other) = candidate {
                let contends =
                    (other.is_store || is_store) && tsc.saturating_sub(other.tsc) < self.window_ns;
                if contends {
                    // Same line within the window: true sharing if the word
                    // itself was last touched by a different thread.
                    result = match shard.by_word.get(&addr) {
                        Some(w) if w.tid != tid => Sharing::True,
                        _ => Sharing::False,
                    };
                }
            }
        }

        let access = Access { tid, is_store, tsc };
        shard
            .by_line
            .entry(line)
            .and_modify(|s| {
                if s.last.tid != tid {
                    s.prev_other = Some(s.last);
                }
                s.last = access;
            })
            .or_insert(LineShadow {
                last: access,
                prev_other: None,
            });
        shard.by_word.insert(addr, access);
        if result != Sharing::None {
            obs::count(Counter::ShadowHits);
        }
        result
    }

    /// Number of distinct lines currently shadowed (diagnostics; bounds the
    /// detector's memory use in tests).
    pub fn shadowed_lines(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_recovering(s).by_line.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ContentionMap {
        ContentionMap::new(CacheGeometry::default(), 1_000_000)
    }

    #[test]
    fn single_thread_never_contends() {
        let m = map();
        assert_eq!(m.record(64, 0, true, 0), Sharing::None);
        assert_eq!(m.record(64, 0, true, 10), Sharing::None);
        assert_eq!(m.record(72, 0, true, 20), Sharing::None);
    }

    #[test]
    fn cross_thread_same_word_is_true_sharing() {
        let m = map();
        m.record(64, 0, true, 0);
        assert_eq!(m.record(64, 1, true, 100), Sharing::True);
    }

    #[test]
    fn cross_thread_same_line_different_word_is_false_sharing() {
        let m = map();
        m.record(64, 0, true, 0);
        assert_eq!(m.record(72, 1, true, 100), Sharing::False);
    }

    #[test]
    fn read_read_is_not_contention() {
        let m = map();
        m.record(64, 0, false, 0);
        assert_eq!(m.record(64, 1, false, 100), Sharing::None);
    }

    #[test]
    fn read_write_is_contention() {
        let m = map();
        m.record(64, 0, false, 0);
        assert_eq!(m.record(64, 1, true, 100), Sharing::True);
        // and write-then-read:
        let m = map();
        m.record(64, 0, true, 0);
        assert_eq!(m.record(64, 1, false, 100), Sharing::True);
    }

    #[test]
    fn accesses_outside_the_window_do_not_contend() {
        let m = map();
        m.record(64, 0, true, 0);
        assert_eq!(m.record(64, 1, true, 2_000_000), Sharing::None);
    }

    #[test]
    fn different_lines_do_not_contend() {
        let m = map();
        m.record(0, 0, true, 0);
        assert_eq!(m.record(128, 1, true, 10), Sharing::None);
    }

    #[test]
    fn word_history_survives_line_updates() {
        let m = map();
        m.record(64, 0, true, 0); // thread 0 wrote word 64
        m.record(72, 1, true, 10); // thread 1 wrote word 72 (false sharing)
                                   // Thread 1 now touches word 64, last written by thread 0 → true.
        assert_eq!(m.record(64, 1, true, 20), Sharing::True);
        // Thread 0 touches word 64 again; last word access was thread 1 → true.
        assert_eq!(m.record(64, 0, true, 30), Sharing::True);
    }

    #[test]
    fn poisoned_shard_is_recovered_and_still_classifies() {
        let m = map();
        m.record(64, 0, true, 0);
        let line = m.geometry.line_of(64).0;
        let shard = &m.shards[(line as usize) % SHARDS];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.lock().unwrap();
            panic!("poison the shard");
        }));
        assert!(caught.is_err());
        assert!(shard.is_poisoned());

        obs::set_enabled(true);
        let before = obs::registry().get(Counter::CollectorLockRecoveries);
        // The access recorded before the panic is still there to contend with.
        assert_eq!(m.record(64, 1, true, 100), Sharing::True);
        assert_eq!(m.record(72, 0, true, 200), Sharing::False);
        assert_eq!(m.shadowed_lines(), 1);
        let recovered = obs::registry().get(Counter::CollectorLockRecoveries) - before;
        obs::set_enabled(false);
        assert!(recovered >= 3, "each lock of the shard counts: {recovered}");
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let m = std::sync::Arc::new(map());
        let handles: Vec<_> = (0..8)
            .map(|tid| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        m.record((i % 512) * 8, tid, i % 3 == 0, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(m.shadowed_lines() <= 64);
    }
}
