//! Behavioural tests of the RTM runtime: retry policy, fallback
//! serialization, state-word transitions and ground-truth accounting.

use std::sync::Arc;

use rtm_runtime::{ThreadState, TmLib};
use txsim_htm::{CacheGeometry, DomainConfig, EventKind, HtmDomain, SamplingConfig};
use txsim_pmu::{Frame, Sample, SampleSink};

#[test]
fn single_thread_counter_commits_in_htm() {
    let d = HtmDomain::with_defaults();
    let lib = TmLib::new(&d);
    let counter = d.heap.alloc_words(1);
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let mut tm = lib.thread();

    for _ in 0..100 {
        tm.critical_section(&mut cpu, 10, |cpu| {
            cpu.rmw(11, counter, |v| v + 1).map(|_| ())
        });
    }
    assert_eq!(d.mem.load(counter), 100);
    let t = tm.truth.totals();
    assert_eq!(t.htm_commits, 100, "uncontended sections must all commit");
    assert_eq!(t.fallbacks, 0);
    assert_eq!(t.total_aborts(), 0);
}

#[test]
fn sync_abort_falls_back_immediately() {
    let d = HtmDomain::with_defaults();
    let lib = TmLib::new(&d);
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let mut tm = lib.thread();
    let out = d.heap.alloc_words(1);

    tm.critical_section(&mut cpu, 10, |cpu| {
        cpu.syscall(11)?; // aborts the HTM attempt, runs fine in fallback
        cpu.store(12, out, 7)
    });
    assert_eq!(d.mem.load(out), 7);
    let t = tm.truth.totals();
    assert_eq!(t.aborts_sync, 1, "exactly one attempt, no retries for sync");
    assert_eq!(t.fallbacks, 1);
    assert_eq!(t.htm_commits, 0);
}

#[test]
fn capacity_abort_falls_back_immediately() {
    let d = HtmDomain::new(DomainConfig::default().with_geometry(CacheGeometry::tiny()));
    let lib = TmLib::new(&d);
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let mut tm = lib.thread();
    let g = d.geometry;
    let base = d.heap.alloc_aligned(g.line_bytes * 64, g.line_bytes);

    tm.critical_section(&mut cpu, 10, |cpu| {
        for i in 0..40u64 {
            cpu.store(11, base + i * g.line_bytes, i)?;
        }
        Ok(())
    });
    for i in 0..40u64 {
        assert_eq!(d.mem.load(base + i * g.line_bytes), i);
    }
    let t = tm.truth.totals();
    assert_eq!(t.aborts_capacity, 1);
    assert_eq!(t.fallbacks, 1);
}

#[test]
fn conflicts_are_retried_then_fall_back() {
    // Conflicts are a virtual-time property: use the cooperative scheduler
    // so thread interleaving does not depend on host core count.
    let d = HtmDomain::new(DomainConfig::default().cooperative());
    let lib = TmLib::new(&d);
    let counter = d.heap.alloc_words(1);
    const THREADS: usize = 6;
    const ITERS: u64 = 3_000;

    let barrier = std::sync::Barrier::new(THREADS);
    let truths: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let d = Arc::clone(&d);
                let lib = Arc::clone(&lib);
                let barrier = &barrier;
                s.spawn(move || {
                    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                    let mut tm = lib.thread();
                    barrier.wait();
                    for _ in 0..ITERS {
                        tm.critical_section(&mut cpu, 10, |cpu| {
                            cpu.rmw(11, counter, |v| v + 1).map(|_| ())
                        });
                    }
                    tm.truth
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(d.mem.load(counter), THREADS as u64 * ITERS, "lost updates");
    let mut total = rtm_runtime::Truth::default();
    for t in &truths {
        total.merge(t);
    }
    let t = total.totals();
    assert_eq!(
        t.htm_commits + t.fallbacks,
        THREADS as u64 * ITERS,
        "every section executes exactly once"
    );
    assert!(t.aborts_conflict > 0, "contended counter must conflict");
}

#[test]
fn fallback_serializes_against_transactions() {
    // One thread stuck in fallback (sync abort) while others speculate:
    // the counter must stay exact because the lock store dooms speculators.
    let d = HtmDomain::new(DomainConfig::default().cooperative());
    let lib = TmLib::new(&d);
    let counter = d.heap.alloc_words(1);
    const ITERS: u64 = 500;

    std::thread::scope(|s| {
        // The fallback-heavy thread.
        {
            let d = Arc::clone(&d);
            let lib = Arc::clone(&lib);
            s.spawn(move || {
                let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                let mut tm = lib.thread();
                for _ in 0..ITERS {
                    tm.critical_section(&mut cpu, 20, |cpu| {
                        cpu.syscall(21)?;
                        cpu.rmw(22, counter, |v| v + 1).map(|_| ())
                    });
                }
            });
        }
        // Speculating threads.
        for _ in 0..4 {
            let d = Arc::clone(&d);
            let lib = Arc::clone(&lib);
            s.spawn(move || {
                let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                let mut tm = lib.thread();
                for _ in 0..ITERS {
                    tm.critical_section(&mut cpu, 30, |cpu| {
                        cpu.rmw(31, counter, |v| v + 1).map(|_| ())
                    });
                }
            });
        }
    });

    assert_eq!(d.mem.load(counter), 5 * ITERS);
}

/// Sink that records the runtime state flags seen at each sample.
struct StateProbe {
    state: ThreadState,
    seen: Arc<std::sync::Mutex<Vec<(Sample, u32)>>>,
}

impl SampleSink for StateProbe {
    fn on_sample(&mut self, sample: &Sample, _stack: &[Frame]) {
        self.seen
            .lock()
            .unwrap()
            .push((sample.clone(), self.state.query().0));
    }
}

#[test]
fn state_word_transitions_are_visible_to_sampler() {
    let d = HtmDomain::with_defaults();
    let lib = TmLib::new(&d);
    let counter = d.heap.alloc_words(1);
    let mut cpu = d.spawn_cpu(SamplingConfig::only(EventKind::Cycles, 400));
    let mut tm = lib.thread();
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    cpu.set_sink(Box::new(StateProbe {
        state: tm.state_handle(),
        seen: Arc::clone(&seen),
    }));

    for _ in 0..2_000 {
        tm.critical_section(&mut cpu, 10, |cpu| {
            cpu.compute(11, 50)?;
            cpu.rmw(12, counter, |v| v + 1).map(|_| ())
        });
        // Non-CS work between sections.
        cpu.compute(5, 100).unwrap();
    }

    let seen = seen.lock().unwrap();
    assert!(!seen.is_empty(), "sampling must deliver samples");
    let in_cs = seen
        .iter()
        .filter(|(_, s)| rtm_runtime::StateFlags(*s).in_cs())
        .count();
    let outside = seen.len() - in_cs;
    assert!(in_cs > 0, "some samples must land inside critical sections");
    assert!(outside > 0, "some samples must land outside");

    // Challenge I invariant: every sample that aborted a transaction must
    // have been taken while the state word said inHTM.
    for (sample, state) in seen.iter() {
        if sample.caused_abort {
            assert!(
                rtm_runtime::StateFlags(*state).in_htm(),
                "abort-causing samples occur only on the HTM path"
            );
        }
    }
}

#[test]
fn lock_held_elision_aborts_do_not_burn_retries() {
    // Hold the lock from a plain CPU; a critical section on another thread
    // must still eventually succeed in HTM (not fall back) once released.
    let d = HtmDomain::with_defaults();
    let lib = TmLib::new(&d);
    let counter = d.heap.alloc_words(1);
    let lock = lib.lock_addr();

    let mut holder = d.spawn_cpu(SamplingConfig::disabled());
    assert_eq!(holder.cas(1, lock, 0, 1).unwrap(), Ok(0));

    let worker = {
        let d = Arc::clone(&d);
        let lib = Arc::clone(&lib);
        std::thread::spawn(move || {
            let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
            let mut tm = lib.thread();
            tm.critical_section(&mut cpu, 10, |cpu| {
                cpu.rmw(11, counter, |v| v + 1).map(|_| ())
            });
            tm.truth
        })
    };

    std::thread::sleep(std::time::Duration::from_millis(20));
    holder.store_forced(2, lock, 0).unwrap();
    let truth = worker.join().unwrap();

    assert_eq!(d.mem.load(counter), 1);
    let t = truth.totals();
    assert_eq!(t.htm_commits, 1, "must commit in HTM after the lock frees");
    assert_eq!(t.fallbacks, 0, "lock-held aborts must not trigger fallback");
}

#[test]
fn backend_parity_single_thread() {
    use rtm_runtime::FallbackKind;

    // The identical single-threaded workload under each backend: 200 clean
    // sections (which commit in HTM) followed by 50 capacity-overflow
    // sections (which are forced onto the fallback path).
    let run = |kind: FallbackKind| {
        let d = HtmDomain::new(DomainConfig::default().with_geometry(CacheGeometry::tiny()));
        let lib = TmLib::with_cm(&d, 5, kind, rtm_runtime::CmKind::Backoff);
        let g = d.geometry;
        let counter = d.heap.alloc_words(1);
        let region = d.heap.alloc_aligned(g.line_bytes * 64, g.line_bytes);
        let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
        let mut tm = lib.thread();
        for _ in 0..200 {
            tm.critical_section(&mut cpu, 10, |cpu| {
                cpu.compute(11, 20)?;
                cpu.rmw(12, counter, |v| v + 1).map(|_| ())
            });
        }
        let htm_phase_cycles = cpu.cycles();
        for _ in 0..50 {
            tm.critical_section(&mut cpu, 20, |cpu| {
                for i in 0..40u64 {
                    cpu.rmw(21, region + i * g.line_bytes, |v| v + 1)?;
                }
                Ok(())
            });
        }
        let memory = d.mem.load(counter) + d.mem.load(region);
        (htm_phase_cycles, memory, tm.truth.totals(), *cpu.stats())
    };

    let lock = run(FallbackKind::Lock);
    let stm = run(FallbackKind::Stm);
    let adaptive = run(FallbackKind::Adaptive);

    // While no section falls back the backend must be pay-for-use: the HTM
    // fast path is cycle-identical whichever backend is configured.
    assert_eq!(lock.0, stm.0, "HTM-phase cycles must match exactly");
    assert_eq!(lock.0, adaptive.0, "adaptive adds no HTM-phase cycles");
    assert_eq!(lock.2.htm_commits, stm.2.htm_commits);
    assert_eq!(lock.2.htm_commits, adaptive.2.htm_commits);
    // Commit counts: every section executes exactly once on both sides,
    // and the memory effects agree.
    assert_eq!(lock.2.htm_commits + lock.2.fallbacks, 250);
    assert_eq!(stm.2.htm_commits + stm.2.fallbacks, 250);
    assert_eq!(lock.1, stm.1, "memory effects must be identical");
    // A single-threaded software transaction can never fail validation
    // (the TL2 rv+1 == wv short-circuit), and the lock backend never runs
    // any software transaction at all.
    assert_eq!(stm.3.aborts_validation, 0);
    assert_eq!(lock.2.stm_commits, 0);
    assert_eq!(
        stm.2.stm_commits, stm.2.fallbacks,
        "every forced fallback must commit as a software transaction"
    );
    assert!(stm.2.stm_commits > 0);
    // The adaptive backend sees the same single-threaded history: the
    // capacity-overflow phase drives its one misbehaving site onto the
    // STM, it never fails validation, and memory effects still agree.
    assert_eq!(adaptive.2.htm_commits + adaptive.2.fallbacks, 250);
    assert_eq!(lock.1, adaptive.1, "memory effects must be identical");
    assert_eq!(adaptive.3.aborts_validation, 0);
    assert!(adaptive.2.backend_switches > 0, "overflow site must switch");
    assert!(adaptive.2.stm_commits > 0);
}

#[test]
fn stm_backend_keeps_contended_counter_exact() {
    // Zero retries push every conflicting section straight into the STM,
    // so concurrent software transactions race on one line: stripe locks,
    // validation, publish — the whole TL2 pipeline under fire. The counter
    // staying exact is the proof the gate and publish protocol hold up.
    let d = HtmDomain::new(DomainConfig::default().cooperative());
    let lib = TmLib::with_cm(
        &d,
        0,
        rtm_runtime::FallbackKind::Stm,
        rtm_runtime::CmKind::Backoff,
    );
    let counter = d.heap.alloc_words(1);
    const THREADS: usize = 6;
    const ITERS: u64 = 1_000;

    let barrier = std::sync::Barrier::new(THREADS);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let d = Arc::clone(&d);
                let lib = Arc::clone(&lib);
                let barrier = &barrier;
                s.spawn(move || {
                    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                    let mut tm = lib.thread();
                    barrier.wait();
                    for _ in 0..ITERS {
                        tm.critical_section(&mut cpu, 10, |cpu| {
                            cpu.rmw(11, counter, |v| v + 1).map(|_| ())
                        });
                    }
                    (tm.truth, *cpu.stats())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(d.mem.load(counter), THREADS as u64 * ITERS, "lost updates");
    assert_eq!(d.mem.load(lib.lock_addr()), 0, "gate must drain");
    let mut total = rtm_runtime::Truth::default();
    let mut stm_commits_stat = 0;
    for (truth, stats) in &results {
        total.merge(truth);
        stm_commits_stat += stats.stm_commits;
    }
    let t = total.totals();
    assert_eq!(t.htm_commits + t.fallbacks, THREADS as u64 * ITERS);
    assert!(t.stm_commits > 0, "contention must drive sections into STM");
    assert!(
        t.stm_commits <= t.fallbacks,
        "STM commits are a fallback subset"
    );
    assert_eq!(t.stm_commits, stm_commits_stat, "truth and CPU stats agree");
}

#[test]
fn hle_backend_keeps_contended_counter_exact() {
    let d = HtmDomain::new(DomainConfig::default().cooperative());
    let lib = TmLib::with_cm(
        &d,
        0,
        rtm_runtime::FallbackKind::Hle,
        rtm_runtime::CmKind::Backoff,
    );
    let counter = d.heap.alloc_words(1);
    const THREADS: usize = 4;
    const ITERS: u64 = 1_000;

    let barrier = std::sync::Barrier::new(THREADS);
    let truths: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let d = Arc::clone(&d);
                let lib = Arc::clone(&lib);
                let barrier = &barrier;
                s.spawn(move || {
                    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                    let mut tm = lib.thread();
                    barrier.wait();
                    for _ in 0..ITERS {
                        tm.critical_section(&mut cpu, 10, |cpu| {
                            cpu.rmw(11, counter, |v| v + 1).map(|_| ())
                        });
                    }
                    tm.truth
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(d.mem.load(counter), THREADS as u64 * ITERS, "lost updates");
    assert_eq!(d.mem.load(lib.lock_addr()), 0, "lock must be released");
    let mut total = rtm_runtime::Truth::default();
    for t in &truths {
        total.merge(t);
    }
    let t = total.totals();
    assert_eq!(t.htm_commits + t.fallbacks, THREADS as u64 * ITERS);
    assert_eq!(t.stm_commits, 0, "HLE never runs software transactions");
}

#[test]
fn named_critical_section_attributes_to_function() {
    let d = HtmDomain::with_defaults();
    let lib = TmLib::new(&d);
    let f = d.funcs.intern("update_stats", "app.rs", 100);
    let counter = d.heap.alloc_words(1);
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let mut tm = lib.thread();

    rtm_runtime::named_critical_section(&mut tm, &mut cpu, f, 101, |cpu| {
        cpu.rmw(102, counter, |v| v + 1).map(|_| ())
    });

    let (site, stats) = tm.truth.iter().next().unwrap();
    assert_eq!(site.func, f, "site must carry the enclosing function");
    assert_eq!(stats.htm_commits, 1);
}
