//! The virtual-time scheduler.
//!
//! Simulated concurrency must not depend on host concurrency: on a host
//! with fewer cores than simulated threads, free-running worker threads
//! time-share and their transactions almost never overlap in real time,
//! which would make every contended workload look conflict-free. The
//! scheduler interleaves worker threads in *virtual* time instead: a
//! thread may only run while its virtual clock is within one quantum of
//! the slowest registered thread, so two transactions overlap iff their
//! `[xbegin, xend]` cycle ranges overlap — a property of the workload, not
//! of the host.
//!
//! The discipline is min-clock turn-taking: effectively one thread runs at
//! a time (which also matches a single-core host perfectly); each grant
//! lasts a jittered quantum so switch points do not phase-lock with loop
//! structure. Scheduling is deterministic up to host-side randomness the
//! workloads themselves introduce.
//!
//! The quantum must be *smaller than typical transactions*: a turn that
//! contains a whole transaction executes it atomically in real time, and
//! concurrent transactions would never observe each other's claims. The
//! default (150 cycles) slices the suite's transactions (≳300 cycles)
//! across several turns.
//!
//! Deadlock freedom: the thread owning the minimum clock is always
//! eligible to run; every potentially unbounded wait in the simulator
//! either advances the waiter's virtual clock (sim spin loops) or waits
//! for a condition that a non-blocked thread completes without an
//! intervening scheduler call (commit publication).
//!
//! # Hand-off
//!
//! A turn simulates ~2 µs of engine work, a futex wake costs ~20 µs, so a
//! blocked thread first waits in user space. Each thread owns a *wake
//! word*, padded to its own cache-line pair so one thread's spinning never
//! shares a line with another's. A thread that finds itself ineligible
//! clears its word, wakes the minimum-clock thread, releases the lock and
//! spins on the word for a bounded time; only if the bound expires does it
//! retake the lock, record itself as parked and wait on its condvar. A
//! wake is only a hint: eligibility is re-decided under the lock by the
//! same rule, so nothing simulated depends on which way a thread waited.
//!
//! * **No lost wake-up.** A waker sets the word and reads the parked flag
//!   while holding the lock; a waiter clears its word, and later re-reads
//!   it and sets the parked flag, also holding the lock (the condvar wait
//!   releases it atomically). Whichever critical section comes second sees
//!   the first: the waiter sees the word set and does not park, or the
//!   waker sees the parked flag and issues the futex wake. The flag also
//!   lets the waker skip `notify_one` — a syscall, waiter or not — for a
//!   target that is spinning or running.
//! * **The spin bound must outlast one park→wake round trip.** Otherwise
//!   the first thread to time out parks, its partner waits out a wake
//!   longer than its own spin and parks too, and the pair settles into
//!   parking on every hand-off. The bound is elapsed time (~5 wake
//!   latencies), not iterations whose length depends on the host's `PAUSE`.
//! * **A spinner yields between polls.** The host's scheduler may have
//!   put both threads of a pair on one core (seen in a third of runs
//!   started on an idle 2-vCPU VM); a pure spinner then holds the core its
//!   partner needs for the whole bound, on every hand-off. `yield_now`
//!   returns at once when nothing else is runnable there.
//! * **Spinning is gated on host size.** A spinner occupies a core; when
//!   the live threads outnumber the host's cores it would hold the core the
//!   thread it waits for needs, so such runs go straight to the park.
//!   `available_parallelism()` makes an affinity syscall and reads cgroup
//!   files, so it is read once per process, not once per scheduler.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use obs::{Counter, Subsystem};

use crate::directory::MAX_THREADS;

/// Clock value marking a retired thread.
const RETIRED: u64 = u64::MAX;
/// Clock value marking an unregistered slot.
const ABSENT: u64 = u64::MAX - 1;

/// How long a blocked thread spins on its wake word before parking.
const SPIN_BOUND: Duration = Duration::from_micros(100);
/// Wake-word polls between two yields (and reads of the host clock).
const POLLS_PER_YIELD: u32 = 64;

/// Cores this process may run on, read once (see the module doc).
fn host_cpus() -> usize {
    static HOST_CPUS: OnceLock<usize> = OnceLock::new();
    *HOST_CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One thread's wait state, alone on a cache-line pair (the adjacent-line
/// prefetcher pulls lines in twos).
#[derive(Default)]
#[repr(align(128))]
struct Waiter {
    /// The wake word: set by wakers and read on the park path under the
    /// scheduler lock, cleared by its owner under the lock before waiting,
    /// polled by its owner without it. It publishes nothing — what it
    /// hints at is behind the mutex — so `Relaxed` suffices.
    woken: AtomicBool,
    cv: Condvar,
}

struct Inner {
    clocks: [u64; MAX_THREADS],
    /// xorshift state for quantum jitter.
    rng: u64,
    /// Registered, unretired threads: how many `clocks` are real.
    live: usize,
    /// Bit `tid` set while that thread waits on its condvar.
    parked: u64,
}

impl Inner {
    fn set_clock(&mut self, tid: usize, clock: u64) {
        self.live -= usize::from(self.clocks[tid] < ABSENT);
        self.live += usize::from(clock < ABSENT);
        self.clocks[tid] = clock;
    }
}

/// Cooperative virtual-time scheduler; one per [`crate::HtmDomain`].
pub struct Scheduler {
    enabled: bool,
    quantum: u64,
    inner: Mutex<Inner>,
    waiters: Vec<Waiter>,
    /// Total sync calls (diagnostics).
    pub syncs: AtomicU64,
    /// Sync calls that had to block (diagnostics).
    pub blocks: AtomicU64,
    /// Blocks that fell through to an OS park; `blocks - parks` hand-offs
    /// stayed in user space (diagnostics).
    pub parks: AtomicU64,
}

impl Scheduler {
    /// Create a scheduler. When `enabled` is false, [`Scheduler::sync`]
    /// always grants an unbounded quantum (single-threaded tests drive
    /// several CPUs from one host thread and must never block).
    pub fn new(enabled: bool, quantum: u64) -> Self {
        Scheduler {
            enabled,
            quantum: quantum.max(2),
            inner: Mutex::new(Inner {
                clocks: [ABSENT; MAX_THREADS],
                rng: 0x2545f4914f6cdd1d,
                live: 0,
                parked: 0,
            }),
            waiters: (0..MAX_THREADS).map(|_| Waiter::default()).collect(),
            syncs: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Whether virtual-time interleaving is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Take the scheduler lock, recovering a poisoned one instead of
    /// panicking: no update of `Inner` can panic part-way (a bad `tid`
    /// fails its first index), so a poisoned `Inner` is still valid, and a
    /// worker that panics inside `sync` still retires from `SimCpu`'s drop
    /// — a second panic there would abort the process.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        obs::recover(self.inner.lock(), Counter::SchedLockRecoveries)
    }

    /// Tell `tid` to re-check its eligibility; the caller holds the lock.
    fn wake(&self, inner: &mut Inner, tid: usize) {
        let waiter = &self.waiters[tid];
        waiter.woken.store(true, Ordering::Relaxed);
        if inner.parked & (1 << tid) != 0 {
            inner.parked &= !(1 << tid);
            waiter.cv.notify_one();
        }
    }

    /// Register a thread at virtual time `clock`.
    pub fn register(&self, tid: usize, clock: u64) {
        if !self.enabled {
            return;
        }
        self.lock().set_clock(tid, clock);
    }

    /// Permanently remove a thread (on CPU drop). Idempotent.
    pub fn retire(&self, tid: usize) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        inner.set_clock(tid, RETIRED);
        // Any remaining thread may have become the minimum.
        for peer in 0..MAX_THREADS {
            if inner.clocks[peer] < ABSENT {
                self.wake(&mut inner, peer);
            }
        }
    }

    fn min_tid(clocks: &[u64; MAX_THREADS]) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for (tid, &c) in clocks.iter().enumerate() {
            if c < ABSENT && best.map(|(_, b)| c < b).unwrap_or(true) {
                best = Some((tid, c));
            }
        }
        best.map(|(tid, _)| tid)
    }

    /// Report `clock` for `tid` and block until the thread is eligible to
    /// run. Returns the virtual time until which the caller may run
    /// without calling back.
    pub fn sync(&self, tid: usize, clock: u64) -> u64 {
        if !self.enabled {
            return u64::MAX;
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
        obs::count(Counter::SchedSyncs);
        let waiter = &self.waiters[tid];
        let mut inner = self.lock();
        inner.set_clock(tid, clock);
        loop {
            let Some(min_tid) = Self::min_tid(&inner.clocks) else {
                return u64::MAX;
            };
            let min_clock = inner.clocks[min_tid];
            if min_tid == tid || clock <= min_clock.saturating_add(self.quantum) {
                // Eligible: run for a jittered quantum so switch points do
                // not resonate with loop periods.
                let mut x = inner.rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                inner.rng = x;
                let grant = self.quantum / 2 + x % self.quantum;
                return clock.saturating_add(grant);
            }
            // Not eligible: make sure the minimum thread is awake, then
            // wait until someone wakes us to look again — spinning first
            // while every live thread can have a core of its own.
            self.blocks.fetch_add(1, Ordering::Relaxed);
            obs::count(Counter::SchedBlocks);
            let _blocked = obs::span(Subsystem::Sched, "block_wait");
            waiter.woken.store(false, Ordering::Relaxed);
            self.wake(&mut inner, min_tid);
            if inner.live <= host_cpus() {
                drop(inner);
                let started = Instant::now();
                'spin: while started.elapsed() < SPIN_BOUND {
                    for _ in 0..POLLS_PER_YIELD {
                        if waiter.woken.load(Ordering::Relaxed) {
                            break 'spin;
                        }
                        std::hint::spin_loop();
                    }
                    std::thread::yield_now();
                }
                inner = self.lock();
            }
            if !waiter.woken.load(Ordering::Relaxed) {
                self.parks.fetch_add(1, Ordering::Relaxed);
                obs::count(Counter::SchedParks);
                inner.parked |= 1 << tid;
                inner = obs::recover(waiter.cv.wait(inner), Counter::SchedLockRecoveries);
                inner.parked &= !(1 << tid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Run `body` on its own thread and fail if it has not finished within
    /// `limit`: a lost wake-up is a hang, and must read as a failure.
    fn under_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            // Joining surfaces the body's own assertion failures.
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                runner.join().expect("watched body panicked")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("no progress within {limit:?}: lost wake-up?")
            }
        }
    }

    /// Spin until `counter` reaches `want`.
    fn await_count(counter: &AtomicU64, want: u64) {
        while counter.load(Ordering::Relaxed) < want {
            std::thread::yield_now();
        }
    }

    /// A scheduler whose thread 1 sits in `sync` far ahead of thread 0, so
    /// only thread 0 retiring (or catching up) can release it.
    fn blocked_waiter() -> (Arc<Scheduler>, std::thread::JoinHandle<u64>) {
        let s = Arc::new(Scheduler::new(true, 100));
        s.register(0, 0);
        s.register(1, 10_000);
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.sync(1, 10_000));
        (s, waiter)
    }

    /// `threads` host threads leapfrogging: every step overshoots the
    /// slowest peer by more than a quantum, so nearly every sync blocks.
    fn leapfrog(threads: usize, steps: u64) {
        const QUANTUM: u64 = 100;
        under_watchdog(Duration::from_secs(120), move || {
            let s = Scheduler::new(true, QUANTUM);
            for tid in 0..threads {
                s.register(tid, 0);
            }
            std::thread::scope(|scope| {
                for tid in 0..threads {
                    let s = &s;
                    scope.spawn(move || {
                        let mut clock = 0u64;
                        for _ in 0..steps {
                            clock += 3 * QUANTUM;
                            assert!(s.sync(tid, clock) > clock);
                        }
                        s.retire(tid);
                    });
                }
            });
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            assert_eq!(load(&s.syncs), threads as u64 * steps);
            // Ties run on, so about every other sync blocks.
            assert!(load(&s.blocks) >= steps / 2, "blocks {}", load(&s.blocks));
            assert!(load(&s.parks) <= load(&s.blocks));
        });
    }

    #[test]
    fn disabled_scheduler_never_blocks() {
        let s = Scheduler::new(false, 100);
        s.register(0, 0);
        assert_eq!(s.sync(0, 0), u64::MAX);
        assert_eq!(s.sync(5, 1_000_000), u64::MAX);
    }

    #[test]
    fn single_thread_always_eligible() {
        let s = Scheduler::new(true, 100);
        s.register(0, 0);
        let grant = s.sync(0, 0);
        assert!((50..=200).contains(&grant), "grant {grant}");
        assert!(s.sync(0, 10_000) > 10_000);
    }

    #[test]
    fn min_thread_runs_even_when_behind_peers_exist() {
        let s = Scheduler::new(true, 100);
        s.register(0, 0);
        s.register(1, 1_000_000);
        // Thread 0 is the minimum: eligible immediately.
        assert!(s.sync(0, 0) < 1000);
    }

    #[test]
    fn grant_stream_is_pinned() {
        // Two threads stepped from one host thread, never more than a
        // quantum apart so no call blocks: the grants are a pure function
        // of the call sequence and the shared jitter stream. The literals
        // were taken at the commit before the spin-then-park hand-off.
        let s = Scheduler::new(true, 150);
        s.register(0, 0);
        s.register(1, 0);
        let mut clocks = [0u64; 2];
        let grants: Vec<u64> = (0..32)
            .map(|i| {
                let tid = i % 2;
                clocks[tid] += 100;
                s.sync(tid, clocks[tid])
            })
            .collect();
        assert_eq!(
            grants,
            [
                226, 283, 310, 349, 435, 482, 501, 602, 650, 702, 757, 682, 832, 823, 993, 940,
                1095, 1115, 1192, 1119, 1285, 1198, 1282, 1378, 1417, 1497, 1578, 1496, 1606, 1719,
                1804, 1750
            ]
        );
        assert_eq!(s.blocks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn retire_unblocks_waiters() {
        under_watchdog(Duration::from_secs(60), || {
            let (s, waiter) = blocked_waiter();
            await_count(&s.parks, 1); // spun out (or never spun) and parked
            s.retire(0); // thread 1 becomes the minimum
            let grant = waiter.join().unwrap();
            assert!(grant >= 10_000);
        });
    }

    #[test]
    fn retire_unblocks_a_spinning_waiter() {
        under_watchdog(Duration::from_secs(60), || {
            let (s, waiter) = blocked_waiter();
            // `blocks` moves under the lock just before the waiter lets go
            // of it to spin, so a retire issued the moment it moves lands
            // inside the spin window wherever the host allows spinning (and
            // on a parked waiter where it does not, or when this thread is
            // descheduled for longer than the bound).
            await_count(&s.blocks, 1);
            s.retire(0);
            let grant = waiter.join().unwrap();
            assert!(grant >= 10_000);
            assert!(s.parks.load(Ordering::Relaxed) <= s.blocks.load(Ordering::Relaxed));
        });
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        under_watchdog(Duration::from_secs(60), || {
            let (s, waiter) = blocked_waiter();
            await_count(&s.parks, 1);
            // Poison the lock by panicking while holding it, as a worker
            // that panics inside `sync` would.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = s.inner.lock().unwrap();
                panic!("poison the scheduler");
            }));
            assert!(caught.is_err());
            assert!(s.inner.is_poisoned());
            // Every entry point carries on, including the parked waiter's
            // condvar wait, which hands back a poisoned guard.
            s.register(2, 0);
            assert!(s.sync(0, 10) > 10);
            s.retire(2);
            s.retire(0);
            assert!(waiter.join().unwrap() >= 10_000);
        });
    }

    #[test]
    fn leapfrog_two_threads_never_loses_a_wakeup() {
        leapfrog(2, 200_000);
    }

    #[test]
    fn leapfrog_oversubscribed_never_loses_a_wakeup() {
        // More live threads than the host has cores, on any host: every
        // block goes straight to the park.
        leapfrog(2 * host_cpus() + 1, 20_000);
    }

    #[test]
    fn virtual_time_stays_within_quantum_band() {
        // Real threads advancing virtual clocks: no two clocks may ever
        // diverge by much more than one max grant, whether the threads fit
        // on the host (2), or may not (3), or surely do not (8).
        const STEPS: u64 = 2_000;
        const QUANTUM: u64 = 100;
        for threads in [2usize, 3, 8] {
            let s = Scheduler::new(true, QUANTUM);
            let clocks: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
            let max_diverge = AtomicU64::new(0);
            for tid in 0..threads {
                s.register(tid, 0);
            }
            std::thread::scope(|scope| {
                for tid in 0..threads {
                    let (s, clocks, max_diverge) = (&s, &clocks, &max_diverge);
                    scope.spawn(move || {
                        let mut clock = 0u64;
                        let mut allowed = 0u64;
                        for _ in 0..STEPS {
                            clock += 7;
                            if clock >= allowed {
                                allowed = s.sync(tid, clock);
                                clocks[tid].store(clock, Ordering::Relaxed);
                                for other in clocks {
                                    let d = clock.abs_diff(other.load(Ordering::Relaxed));
                                    max_diverge.fetch_max(d, Ordering::Relaxed);
                                }
                            }
                        }
                        s.retire(tid);
                    });
                }
            });
            let d = max_diverge.load(Ordering::Relaxed);
            assert!(
                d <= 4 * QUANTUM,
                "{threads} threads diverged by {d} virtual cycles (quantum {QUANTUM})"
            );
        }
    }
}
