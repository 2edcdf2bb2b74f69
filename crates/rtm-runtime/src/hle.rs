//! Hardware Lock Elision (HLE) support.
//!
//! The paper focuses on RTM but notes (§2) that "all the techniques can be
//! applied to HLE with trivial extension". HLE retrofits elision onto
//! existing *fine-grained* lock-based code: `hle_acquire` starts a
//! transaction instead of writing the lock word (adding it to the read
//! set); `hle_release` commits. On an abort the hardware re-executes the
//! acquire non-transactionally — actually taking the lock — so the
//! critical section always completes, with no software retry policy.
//!
//! This module provides [`HleLock`] (a lock word in simulated memory, one
//! per protected structure, unlike RTM's single global fallback lock) and
//! [`TmThread::hle_section`]: the runtime's two shared sequences
//! ([`crate::backend`]) on that word — one `elide`, then on any abort
//! `serialize` — so it maintains the same profiler-facing state word as the
//! RTM path and TxSampler's analyses apply unchanged.

use std::sync::Arc;

use txsim_htm::{Addr, HtmDomain, Ip, SimCpu, TxResult};

use crate::state::{IN_CS, IN_OVERHEAD};
use crate::TmThread;

/// One elidable lock. HLE programs typically have many (per bucket, per
/// node…), which is exactly what distinguishes them from the RTM runtime's
/// single global fallback lock.
#[derive(Debug, Clone, Copy)]
pub struct HleLock {
    addr: Addr,
}

impl HleLock {
    /// Allocate a lock word on its own cache line.
    pub fn new(domain: &Arc<HtmDomain>) -> Self {
        HleLock {
            addr: domain.heap.alloc_padded(8, domain.geometry.line_bytes),
        }
    }

    /// The lock word's simulated address.
    pub fn addr(&self) -> Addr {
        self.addr
    }
}

impl TmThread {
    /// Execute `body` under `lock` with hardware lock elision.
    ///
    /// Semantics follow Intel HLE: one transactional attempt (the elided
    /// acquire reads the lock word into the read set; a real writer aborts
    /// us); any abort falls back to *actually acquiring* the lock — there
    /// is no retry loop, matching `XACQUIRE`/`XRELEASE` behaviour.
    pub fn hle_section<T>(
        &mut self,
        cpu: &mut SimCpu,
        lock: &HleLock,
        line: u32,
        mut body: impl FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        let site = Ip::new(cpu.cur_ip().func, line);
        self.state.set(IN_CS | IN_OVERHEAD);

        let value = match self.elide(cpu, line, lock.addr, &mut body) {
            Ok(v) => {
                self.truth.commit(site);
                v
            }
            Err(_) => {
                let info = cpu.last_abort().expect("abort recorded");
                self.truth.abort(site, info);
                // Non-elided re-execution: really take the lock.
                self.serialize(cpu, line, lock.addr, 1, site, &mut body)
            }
        };
        self.state.set(0);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TmLib;
    use txsim_htm::{DomainConfig, SamplingConfig};

    #[test]
    fn hle_commits_when_uncontended() {
        let d = HtmDomain::new(DomainConfig::default().with_memory(1 << 20));
        let lib = TmLib::new(&d);
        let lock = HleLock::new(&d);
        let counter = d.heap.alloc_words(1);
        let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
        let mut tm = lib.thread();
        for _ in 0..50 {
            tm.hle_section(&mut cpu, &lock, 10, |cpu| {
                cpu.rmw(11, counter, |v| v + 1).map(|_| ())
            });
        }
        assert_eq!(d.mem.load(counter), 50);
        assert_eq!(tm.truth.totals().htm_commits, 50);
        assert_eq!(tm.truth.totals().fallbacks, 0);
        assert_eq!(d.mem.load(lock.addr()), 0, "lock never actually taken");
    }

    #[test]
    fn hle_abort_takes_the_lock_without_retrying() {
        let d = HtmDomain::new(DomainConfig::default().with_memory(1 << 20));
        let lib = TmLib::new(&d);
        let lock = HleLock::new(&d);
        let out = d.heap.alloc_words(1);
        let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
        let mut tm = lib.thread();
        tm.hle_section(&mut cpu, &lock, 10, |cpu| {
            cpu.syscall(11)?; // aborts the elided attempt
            cpu.store(12, out, 9)
        });
        assert_eq!(d.mem.load(out), 9);
        let t = tm.truth.totals();
        assert_eq!(t.aborts_sync, 1, "exactly one attempt before the lock");
        assert_eq!(t.fallbacks, 1);
        assert_eq!(d.mem.load(lock.addr()), 0, "lock released after");
    }

    #[test]
    fn held_lock_defeats_elision() {
        let d = HtmDomain::new(DomainConfig::default().with_memory(1 << 20));
        let lib = TmLib::new(&d);
        let lock = HleLock::new(&d);
        let out = d.heap.alloc_words(1);
        let mut holder = d.spawn_cpu(SamplingConfig::disabled());
        assert_eq!(holder.cas(1, lock.addr(), 0, 1).unwrap(), Ok(0));

        // Another thread's section must wait for the real lock.
        let d2 = Arc::clone(&d);
        let lib2 = Arc::clone(&lib);
        let worker = std::thread::spawn(move || {
            let mut cpu = d2.spawn_cpu(SamplingConfig::disabled());
            let mut tm = lib2.thread();
            tm.hle_section(&mut cpu, &lock, 10, |cpu| cpu.store(11, out, 5));
            tm.truth
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(d.mem.load(out), 0, "section must not run while held");
        holder.store_forced(2, lock.addr(), 0).unwrap();
        let truth = worker.join().unwrap();
        assert_eq!(d.mem.load(out), 5);
        // The elided attempt saw the lock held (explicit abort) and fell
        // back to a real acquisition.
        assert_eq!(truth.totals().aborts_explicit, 1);
        assert_eq!(truth.totals().fallbacks, 1);
    }

    #[test]
    fn distinct_hle_locks_do_not_interfere() {
        // Fine-grained locking: two structures, two locks — transactions on
        // different locks only conflict through data, not through a global
        // lock (the RTM runtime's serialization bottleneck).
        let d = HtmDomain::new(DomainConfig::default().with_memory(1 << 20).cooperative());
        let lib = TmLib::new(&d);
        let lock_a = HleLock::new(&d);
        let lock_b = HleLock::new(&d);
        let a = d.heap.alloc_padded(8, 64);
        let b = d.heap.alloc_padded(8, 64);

        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (lock, addr) in [(lock_a, a), (lock_b, b)] {
                let d = Arc::clone(&d);
                let lib = Arc::clone(&lib);
                let barrier = &barrier;
                s.spawn(move || {
                    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                    let mut tm = lib.thread();
                    barrier.wait();
                    for _ in 0..2_000 {
                        tm.hle_section(&mut cpu, &lock, 10, |cpu| {
                            cpu.rmw(11, addr, |v| v + 1).map(|_| ())
                        });
                    }
                    assert_eq!(
                        tm.truth.totals().aborts_conflict,
                        0,
                        "disjoint locks + disjoint data must not conflict"
                    );
                });
            }
        });
        assert_eq!(d.mem.load(a), 2_000);
        assert_eq!(d.mem.load(b), 2_000);
    }
}
