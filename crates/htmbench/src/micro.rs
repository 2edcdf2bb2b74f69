//! Microbenchmarks with *known* abort behaviour — the paper's §7.2
//! correctness methodology: each triggers low/moderate/high abort ratios
//! from a specific cause (true sharing, false sharing, capacity, special
//! instructions), so the profiler's output can be validated against the
//! runtime's ground-truth instrumentation.

use crate::harness::{run_workload, RunConfig, RunOutcome, Worker};
use txsim_htm::{Addr, HtmDomain};

struct Counters {
    base: Addr,
    stride: u64,
    update_fn: txsim_htm::FuncId,
}

fn counter_setup(domain: &std::sync::Arc<HtmDomain>, per_line: bool, slots: u64) -> Counters {
    let line = domain.geometry.line_bytes;
    let stride = if per_line { line } else { 8 };
    let base = domain.heap.alloc_aligned(stride * slots.max(1), line);
    Counters {
        base,
        stride,
        update_fn: domain.funcs.intern("update_counter", "micro.rs", 10),
    }
}

fn counter_loop(w: &mut Worker, c: &Counters, slot: impl Fn(&mut Worker) -> u64, iters: u64) {
    for _ in 0..iters {
        let addr = c.base + slot(w) * c.stride;
        let f = c.update_fn;
        let (cpu, tm) = (&mut w.cpu, &mut w.tm);
        rtm_runtime::named_critical_section(tm, cpu, f, 20, |cpu| {
            cpu.compute(21, 30)?;
            cpu.rmw(22, addr, |v| v + 1).map(|_| ())
        });
    }
}

/// Low contention: each thread increments its own cache-line-padded counter
/// (the Listing-2 pattern with the conflict removed). Expected: near-zero
/// aborts, `T_oh`-heavy (small transactions).
pub fn low_conflict(cfg: &RunConfig) -> RunOutcome {
    run_workload(
        "micro/low_conflict",
        cfg,
        |d, c| counter_setup(d, true, c.threads as u64),
        |w, c| {
            let idx = w.idx as u64;
            counter_loop(w, c, |_| idx, w.scaled(40_000));
        },
        |d, c| (0..8).map(|i| d.mem.load(c.base + i * c.stride)).sum(),
    )
}

/// High contention, true sharing: every thread hammers the *same word*.
pub fn true_sharing(cfg: &RunConfig) -> RunOutcome {
    run_workload(
        "micro/true_sharing",
        cfg,
        |d, _| counter_setup(d, true, 1),
        |w, c| {
            counter_loop(w, c, |_| 0, w.scaled(20_000));
        },
        |d, c| d.mem.load(c.base),
    )
}

/// High contention, false sharing: each thread updates its *own word*, but
/// all words share one cache line.
pub fn false_sharing(cfg: &RunConfig) -> RunOutcome {
    run_workload(
        "micro/false_sharing",
        cfg,
        |d, c| counter_setup(d, false, c.threads as u64),
        |w, c| {
            let idx = w.idx as u64 % (w.cpu.domain().geometry.line_bytes / 8);
            counter_loop(w, c, |_| idx, w.scaled(20_000));
        },
        |d, c| (0..8).map(|i| d.mem.load(c.base + i * c.stride)).sum(),
    )
}

/// Capacity aborts: each transaction walks a footprint larger than the L1
/// write-set budget on a private region (no conflicts — aborts are pure
/// capacity).
pub fn capacity(cfg: &RunConfig) -> RunOutcome {
    struct S {
        base: Addr,
        region_lines: u64,
    }
    run_workload(
        "micro/capacity",
        cfg,
        |d, c| {
            let g = d.geometry;
            let region_lines = (g.total_lines() as u64) * 2;
            let base = d
                .heap
                .alloc_aligned(region_lines * g.line_bytes * c.threads as u64, g.line_bytes);
            S { base, region_lines }
        },
        |w, s| {
            let g = w.cpu.domain().geometry;
            let line = g.line_bytes;
            let my_base = s.base + w.idx as u64 * s.region_lines * line;
            // Touch `ways+1` lines per set across every set: guaranteed
            // associativity overflow in large transactions; small ones fit.
            for i in 0..w.scaled(300) {
                let lines_to_touch = if i % 2 == 0 { 4 } else { s.region_lines };
                let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                tm.critical_section(cpu, 30, |cpu| {
                    for l in 0..lines_to_touch {
                        cpu.store(31, my_base + l * line, l)?;
                    }
                    Ok(())
                });
            }
        },
        |d, s| d.mem.load(s.base) + d.mem.load(s.base + 64),
    )
}

/// Synchronous aborts: every transaction executes a system call.
pub fn sync_abort(cfg: &RunConfig) -> RunOutcome {
    run_workload(
        "micro/sync_abort",
        cfg,
        |d, _| counter_setup(d, true, 1),
        |w, c| {
            for _ in 0..w.scaled(2_000) {
                let addr = c.base;
                let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                tm.critical_section(cpu, 40, |cpu| {
                    cpu.syscall(41)?; // aborts HTM; runs in fallback
                    cpu.rmw(42, addr, |v| v + 1).map(|_| ())
                });
            }
        },
        |d, c| d.mem.load(c.base),
    )
}

/// Irrevocable actions: each transaction buffers an update and then
/// performs simulated I/O (a syscall) before finishing. HTM aborts
/// synchronously; the lock backend simply runs the body serialized; the
/// STM backend cannot buffer a syscall either, so it must *escalate
/// mid-transaction* — discard its non-empty write buffer, grab the gate
/// exclusively and re-run the body irrevocably. This is the workload the
/// decision tree's irrevocability branch exists for.
pub fn irrevocable(cfg: &RunConfig) -> RunOutcome {
    run_workload(
        "micro/irrevocable",
        cfg,
        |d, _| counter_setup(d, true, 1),
        |w, c| {
            for _ in 0..w.scaled(2_000) {
                let addr = c.base;
                let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                tm.critical_section(cpu, 70, |cpu| {
                    // The update lands *before* the I/O so a buffering
                    // backend has speculative state it must throw away.
                    cpu.rmw(71, addr, |v| v + 1)?;
                    cpu.syscall(72)?; // simulated I/O: irrevocable
                    cpu.compute(73, 10)
                });
            }
        },
        |d, c| d.mem.load(c.base),
    )
}

/// Deep call chains inside transactions (the Listing-1 / Figure-3 shape):
/// `A()` and `B()` both call `C()` which updates shared data; validates
/// in-transaction call-path reconstruction.
pub fn nested_calls(cfg: &RunConfig) -> RunOutcome {
    struct S {
        counters: Addr,
        f_a: txsim_htm::FuncId,
        f_b: txsim_htm::FuncId,
        f_c: txsim_htm::FuncId,
        f_d: txsim_htm::FuncId,
    }
    run_workload(
        "micro/nested_calls",
        cfg,
        |d, _| S {
            counters: d.heap.alloc_padded(64, d.geometry.line_bytes),
            f_a: d.funcs.intern("A", "nested.rs", 1),
            f_b: d.funcs.intern("B", "nested.rs", 5),
            f_c: d.funcs.intern("C", "nested.rs", 9),
            f_d: d.funcs.intern("D", "nested.rs", 13),
        },
        |w, s| {
            let counters = s.counters;
            for i in 0..w.scaled(20_000) {
                let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                let (f_mid, mid_line) = if i % 2 == 0 { (s.f_a, 2) } else { (s.f_b, 6) };
                let (f_c, f_d) = (s.f_c, s.f_d);
                tm.critical_section(cpu, 50, |cpu| {
                    cpu.frame(mid_line, f_mid, |cpu| {
                        cpu.frame(10, f_c, |cpu| {
                            cpu.frame(14, f_d, |cpu| {
                                cpu.compute(15, 40)?;
                                cpu.rmw(16, counters, |v| v + 1).map(|_| ())
                            })
                        })
                    })
                });
            }
        },
        |d, s| d.mem.load(s.counters),
    )
}

/// Moderate abort ratio: a mixed pot — mostly private updates with an
/// occasional shared-word touch.
pub fn moderate(cfg: &RunConfig) -> RunOutcome {
    struct S {
        c: Counters,
        shared: Addr,
    }
    run_workload(
        "micro/moderate",
        cfg,
        |d, c| S {
            c: counter_setup(d, true, c.threads as u64),
            shared: d.heap.alloc_padded(8, d.geometry.line_bytes),
        },
        |w, s| {
            let idx = w.idx as u64;
            for i in 0..w.scaled(20_000) {
                let touch_shared = w.rng.gen_ratio(1, 8);
                let private = s.c.base + idx * s.c.stride;
                let shared = s.shared;
                let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                tm.critical_section(cpu, 60, |cpu| {
                    cpu.compute(61, 20)?;
                    cpu.rmw(62, private, |v| v + 1)?;
                    if touch_shared {
                        cpu.rmw(63, shared, |v| v + 1)?;
                    }
                    Ok(())
                });
                let _ = i;
            }
        },
        |d, s| d.mem.load(s.shared) + d.mem.load(s.c.base),
    )
}

/// Mixed-phase workload: three hot sites in one program, each wanting a
/// *different* fallback. `sync_phase` syscalls inside every transaction
/// (wants the serial lock: speculation is doomed), `bulk_phase` overflows
/// a per-thread-disjoint footprint (wants the software TM: independent
/// overflows commit concurrently), `hot_phase` hammers one shared word
/// (wants the elided lock's boosted retries). No static backend suits all
/// three — this is the workload the adaptive backend's per-site dispatch
/// exists for.
pub fn mixed_phase(cfg: &RunConfig) -> RunOutcome {
    struct S {
        sync_word: Addr,
        hot_word: Addr,
        bulk_base: Addr,
        bulk_lines: u64,
        bulk_counts: Addr,
        threads: u64,
        f_sync: txsim_htm::FuncId,
        f_bulk: txsim_htm::FuncId,
        f_hot: txsim_htm::FuncId,
    }
    run_workload(
        "micro/mixed_phase",
        cfg,
        |d, c| {
            let g = d.geometry;
            // One set's worth of ways, twice over: walking with a stride of
            // `sets` lines maps every store to the same set, so the
            // associativity overflow fires after ~`ways` stores — a short
            // conflict window, keeping the site's abort mix purely capacity.
            let bulk_lines = (g.ways as u64) * 2;
            let bulk_span = bulk_lines * g.sets as u64 * g.line_bytes;
            S {
                sync_word: d.heap.alloc_padded(8, g.line_bytes),
                hot_word: d.heap.alloc_padded(8, g.line_bytes),
                bulk_base: d
                    .heap
                    .alloc_aligned(bulk_span * c.threads as u64, g.line_bytes),
                bulk_lines,
                bulk_counts: d
                    .heap
                    .alloc_aligned(g.line_bytes * c.threads as u64, g.line_bytes),
                threads: c.threads as u64,
                f_sync: d.funcs.intern("sync_phase", "mixed.rs", 10),
                f_bulk: d.funcs.intern("bulk_phase", "mixed.rs", 20),
                f_hot: d.funcs.intern("hot_phase", "mixed.rs", 30),
            }
        },
        |w, s| {
            let g = w.cpu.domain().geometry;
            let line = g.line_bytes;
            let set_stride = g.sets as u64 * line;
            let my_base = s.bulk_base + w.idx as u64 * s.bulk_lines * set_stride;
            let my_count = s.bulk_counts + w.idx as u64 * line;
            for i in 0..w.scaled(1_500) {
                // Irrevocable I/O: every HTM attempt is doomed.
                if i % 4 == 0 {
                    let (addr, f) = (s.sync_word, s.f_sync);
                    let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                    rtm_runtime::named_critical_section(tm, cpu, f, 11, |cpu| {
                        cpu.syscall(12)?;
                        cpu.rmw(13, addr, |v| v + 1).map(|_| ())
                    });
                }
                // Private overflow: pure capacity aborts, zero conflicts.
                if i % 4 == 2 {
                    let (lines, f) = (s.bulk_lines, s.f_bulk);
                    let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                    rtm_runtime::named_critical_section(tm, cpu, f, 21, |cpu| {
                        for l in 0..lines {
                            cpu.store(22, my_base + l * set_stride, l + 1)?;
                        }
                        cpu.rmw(23, my_count, |v| v + 1).map(|_| ())
                    });
                }
                // Contended word, written early and held: transient
                // conflicts that one more elided attempt resolves.
                {
                    let (addr, f) = (s.hot_word, s.f_hot);
                    let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                    rtm_runtime::named_critical_section(tm, cpu, f, 31, |cpu| {
                        cpu.rmw(32, addr, |v| v + 1)?;
                        cpu.compute(33, 60)
                    });
                }
            }
        },
        |d, s| {
            let line = d.geometry.line_bytes;
            let bulk: u64 = (0..s.threads)
                .map(|t| d.mem.load(s.bulk_counts + t * line))
                .sum();
            d.mem.load(s.sync_word) + d.mem.load(s.hot_word) + bulk
        },
    )
}

/// Writer starvation: worker 0 repeatedly runs one *large-write-set*
/// transaction spanning every slot while all other workers commit small
/// single-slot updates as fast as they can. Each small commit invalidates
/// the writer's in-flight speculation, so the writer burns its whole HTM
/// retry budget and completes on the fallback path over and over: the
/// retry-depth distribution at the writer site goes tail-heavy while its
/// HTM commit share collapses — the signature the decision tree's
/// starvation branch reads off the per-site histograms.
pub fn starved_writer(cfg: &RunConfig) -> RunOutcome {
    struct S {
        base: Addr,
        stride: u64,
        slots: u64,
        hot: Addr,
        f_big: txsim_htm::FuncId,
        f_small: txsim_htm::FuncId,
    }
    run_workload(
        "micro/starved_writer",
        cfg,
        |d, c| {
            let line = d.geometry.line_bytes;
            let slots = (c.threads as u64).max(2);
            S {
                base: d.heap.alloc_aligned(line * slots, line),
                stride: line,
                slots,
                hot: d.heap.alloc_padded(8, line),
                f_big: d.funcs.intern("starved_writer", "starved.rs", 80),
                f_small: d.funcs.intern("small_writer", "starved.rs", 90),
            }
        },
        |w, s| {
            if w.idx == 0 {
                // The big writer: expose the whole write set up front, then
                // hold it through a long compute — any small commit during
                // the window invalidates the speculation.
                for _ in 0..w.scaled(2_000) {
                    let (base, stride, slots, f) = (s.base, s.stride, s.slots, s.f_big);
                    let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                    rtm_runtime::named_critical_section(tm, cpu, f, 81, |cpu| {
                        for i in 0..slots {
                            cpu.rmw(82, base + i * stride, |v| v + 1)?;
                        }
                        cpu.compute(83, 400)
                    });
                }
            } else {
                // Small writers: each hammers its own padded slot (the
                // conflict with the big writer) *and* one hot word shared
                // between all small writers, written early and held — the
                // hammer↔hammer collisions push the hammers onto the
                // fallback path too, so the contention manager actually
                // has peers to arbitrate: a karma policy can park the
                // cheap hammers while the big writer drains its
                // accumulated priority.
                let slot = w.idx as u64 % s.slots;
                for _ in 0..w.scaled(40_000) {
                    let (addr, hot, f) = (s.base + slot * s.stride, s.hot, s.f_small);
                    let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                    rtm_runtime::named_critical_section(tm, cpu, f, 91, |cpu| {
                        cpu.rmw(93, hot, |v| v + 1)?;
                        cpu.compute(94, 60)?;
                        cpu.rmw(92, addr, |v| v + 1).map(|_| ())
                    });
                }
            }
        },
        // The hot word is deliberately left out of the checksum: each small
        // completion still increments exactly one slot, so the
        // `small + slots × big` exactness identity is unchanged.
        |d, s| {
            (0..s.slots)
                .map(|i| d.mem.load(s.base + i * s.stride))
                .sum()
        },
    )
}

/// Two symmetric heavyweight writers: every worker runs the *same*
/// large-write-set transaction over one shared array. Nobody is cheap, so
/// a priority scheme has no obvious victim — the classic livelock shape
/// for greedy contention managers. A correct karma policy must let both
/// writers make progress (the politeness window is bounded; equal-karma
/// peers never park on each other).
pub fn symmetric_writers(cfg: &RunConfig) -> RunOutcome {
    struct S {
        base: Addr,
        stride: u64,
        slots: u64,
        f: txsim_htm::FuncId,
    }
    run_workload(
        "micro/symmetric_writers",
        cfg,
        |d, c| {
            let line = d.geometry.line_bytes;
            let slots = (c.threads as u64).max(2);
            S {
                base: d.heap.alloc_aligned(line * slots, line),
                stride: line,
                slots,
                f: d.funcs.intern("symmetric_writer", "starved.rs", 100),
            }
        },
        |w, s| {
            for _ in 0..w.scaled(400) {
                let (base, stride, slots, f) = (s.base, s.stride, s.slots, s.f);
                let (cpu, tm) = (&mut w.cpu, &mut w.tm);
                rtm_runtime::named_critical_section(tm, cpu, f, 101, |cpu| {
                    for i in 0..slots {
                        cpu.rmw(102, base + i * stride, |v| v + 1)?;
                    }
                    cpu.compute(103, 200)
                });
            }
        },
        |d, s| {
            (0..s.slots)
                .map(|i| d.mem.load(s.base + i * s.stride))
                .sum()
        },
    )
}

/// All microbenchmarks with their registry names.
pub fn run_all(cfg: &RunConfig) -> Vec<RunOutcome> {
    vec![
        low_conflict(cfg),
        true_sharing(cfg),
        false_sharing(cfg),
        capacity(cfg),
        sync_abort(cfg),
        irrevocable(cfg),
        nested_calls(cfg),
        moderate(cfg),
        mixed_phase(cfg),
        starved_writer(cfg),
        symmetric_writers(cfg),
    ]
}

/// Type assertion helper used by setup closures above.
#[allow(dead_code)]
fn _assert_send(_: &dyn Fn(&mut Worker, &Counters)) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunConfig {
        RunConfig::quick()
    }

    #[test]
    fn low_conflict_commits_cleanly() {
        let out = low_conflict(&quick());
        let t = out.truth.totals();
        assert_eq!(
            out.checksum,
            t.htm_commits + t.fallbacks,
            "each section increments exactly once"
        );
        assert_eq!(t.aborts_capacity, 0);
        assert_eq!(t.aborts_sync, 0);
        // Padded per-thread counters must not conflict.
        assert_eq!(t.aborts_conflict, 0);
    }

    #[test]
    fn true_sharing_conflicts_heavily() {
        let out = true_sharing(&quick());
        let t = out.truth.totals();
        assert_eq!(out.checksum, t.htm_commits + t.fallbacks);
        assert!(
            t.aborts_conflict > t.htm_commits / 100,
            "shared counter must conflict: {t:?}"
        );
    }

    #[test]
    fn false_sharing_conflicts_despite_disjoint_words() {
        let out = false_sharing(&quick());
        let t = out.truth.totals();
        assert_eq!(out.checksum, t.htm_commits + t.fallbacks);
        assert!(t.aborts_conflict > 0, "line sharing must conflict: {t:?}");
    }

    #[test]
    fn capacity_aborts_dominate_capacity_micro() {
        let out = capacity(&quick());
        let t = out.truth.totals();
        assert!(t.aborts_capacity > 0);
        // Conflict aborts CAN occur despite private data: each capacity
        // fallback acquires the global lock, whose store aborts every
        // speculating peer (the TSX lemming effect) — but capacity must
        // still dominate the picture via fallbacks.
        assert!(t.fallbacks >= t.aborts_capacity);
        assert!(t.htm_commits > 0, "small transactions must commit");
    }

    #[test]
    fn sync_micro_aborts_synchronously_every_time() {
        let out = sync_abort(&quick());
        let t = out.truth.totals();
        assert_eq!(t.htm_commits, 0, "syscall aborts every HTM attempt");
        assert_eq!(t.fallbacks, out.checksum);
        assert_eq!(t.aborts_sync, t.fallbacks);
    }

    #[test]
    fn irrevocable_serializes_every_section() {
        let out = irrevocable(&quick());
        let t = out.truth.totals();
        assert_eq!(t.htm_commits, 0, "the syscall aborts every HTM attempt");
        assert_eq!(t.fallbacks, out.checksum, "each section runs exactly once");
        assert_eq!(t.aborts_sync, t.fallbacks);
        // The decision tree must walk its irrevocability branch: sync
        // aborts dominate, so the advice is to move the unfriendly
        // instruction out of the transaction.
        let profile = out.profile.expect("profiling enabled");
        let diagnosis = txsampler::diagnose(&profile, &Default::default());
        assert!(
            diagnosis
                .all_suggestions()
                .contains(&txsampler::Suggestion::MoveUnfriendlyInstructionsOut),
            "sync-dominant workload must fire the irrevocability branch"
        );
    }

    #[test]
    fn irrevocable_escalates_out_of_the_stm() {
        let out = irrevocable(&quick().with_fallback(rtm_runtime::FallbackKind::Stm));
        let t = out.truth.totals();
        assert_eq!(t.htm_commits, 0, "the syscall aborts every HTM attempt");
        assert_eq!(t.fallbacks, out.checksum, "each section runs exactly once");
        assert_eq!(
            t.stm_commits, 0,
            "I/O can never commit as a software transaction"
        );
        assert_eq!(out.stats.stm_commits, 0);
        assert_eq!(out.stats.aborts_validation, 0);
    }

    #[test]
    fn nested_calls_counter_is_exact() {
        let out = nested_calls(&quick());
        let t = out.truth.totals();
        assert_eq!(out.checksum, t.htm_commits + t.fallbacks);
        // The profile must contain speculative frames for C and D.
        let profile = out.profile.expect("profiling enabled");
        let has_spec_d = profile
            .cct
            .find(|k| k.speculative() && matches!(k, txsampler::NodeKey::Frame { .. }))
            .is_some();
        assert!(has_spec_d, "in-tx frames must appear in the CCT");
    }

    #[test]
    fn mixed_phase_counts_are_exact_under_every_backend() {
        for kind in rtm_runtime::FallbackKind::ALL {
            let out = mixed_phase(&quick().with_fallback(kind));
            let t = out.truth.totals();
            assert_eq!(
                out.checksum,
                t.htm_commits + t.fallbacks,
                "each section increments exactly once under {kind}"
            );
            assert!(t.aborts_sync > 0, "sync site must abort under {kind}");
            assert!(
                t.aborts_capacity > 0 || kind == rtm_runtime::FallbackKind::Stm,
                "bulk site must overflow under {kind}"
            );
        }
    }

    #[test]
    fn adaptive_runtime_switches_the_sites_that_want_it() {
        let out = mixed_phase(&quick().with_fallback(rtm_runtime::FallbackKind::Adaptive));
        let t = out.truth.totals();
        assert_eq!(out.checksum, t.htm_commits + t.fallbacks);
        assert!(t.backend_switches > 0, "adaptive must switch at least once");
        // The bulk site must end up on the STM, the hot site on the elided
        // lock, and the sync site must stay serial.
        assert!(t.stm_commits > 0, "bulk overflows must commit in the STM");
        assert!(t.lock_fallbacks() > 0, "irrevocable I/O must serialize");
        let site = |line: u32| {
            out.truth
                .iter()
                .find(|(ip, _)| ip.line == line)
                .map(|(ip, s)| (*ip, *s))
                .expect("site present in truth")
        };
        let (hot_ip, hot) = site(31);
        let (_, sync) = site(11);
        let (_, bulk) = site(21);
        assert!(hot.backend_switches > 0, "hot site must switch to hle");
        assert!(bulk.backend_switches > 0, "bulk site must switch to stm");
        assert_eq!(sync.backend_switches, 0, "sync site starts serial, stays");
        // The per-site profile mix records where the hot site's fallback
        // completions were dispatched after the switch.
        let profile = out.profile.as_ref().expect("profiling enabled");
        let hot_mix = profile.records.get(hot_ip).expect("hot site in mix").mix;
        assert!(hot_mix.hle > 0, "post-switch fallbacks dispatch to hle");
        // The stamped meta mix is the exact truth mix.
        let mix = profile.meta.mix.expect("adaptive runs stamp a mix");
        assert_eq!(mix.lock, t.lock_fallbacks());
        assert_eq!(mix.stm, t.stm_commits);
        assert_eq!(mix.hle, t.hle_commits);
        assert_eq!(mix.switches, t.backend_switches);
    }

    #[test]
    fn starved_writer_fires_the_starvation_branch() {
        let out = starved_writer(&quick().with_fallback(rtm_runtime::FallbackKind::Stm));
        let t = out.truth.totals();
        // Exactness: each small completion increments one slot, each big
        // completion increments every slot (quick() runs 4 threads → 4
        // slots).
        let (big_ip, big) = out
            .truth
            .iter()
            .find(|(ip, _)| ip.line == 81)
            .map(|(ip, s)| (*ip, *s))
            .expect("writer site present in truth");
        let big_n = big.htm_commits + big.fallbacks;
        let small_n = t.htm_commits + t.fallbacks - big_n;
        assert_eq!(out.checksum, small_n + big_n * 4);
        // The writer must actually be starved: the majority of its
        // completions end on the fallback path.
        assert!(
            big.fallbacks * 2 > big_n,
            "writer must mostly fall back: {big:?}"
        );
        // Its histograms carry the signature: tail-heavy retry depth...
        let profile = out.profile.expect("profiling enabled");
        let h = profile
            .records
            .get(big_ip)
            .expect("writer site has hists")
            .hists;
        assert_eq!(h.retry_depth.count, big_n);
        assert!(
            h.retry_depth.percentile(0.99).unwrap() >= 6,
            "p99 retry depth must reach the budget: {:?}",
            h.retry_depth
        );
        assert!(h.fb_dwell.count > 0, "fallback dwell must be recorded");
        // ...and the decision tree reads it and fires Starvation.
        let diagnosis = txsampler::diagnose(&profile, &Default::default());
        assert!(
            diagnosis
                .all_suggestions()
                .contains(&txsampler::Suggestion::Starvation),
            "starved writer must fire the starvation branch: {:?}",
            diagnosis.all_suggestions()
        );
        // The healthy microbenchmark must NOT fire it.
        let healthy = low_conflict(&quick());
        let diagnosis = txsampler::diagnose(&healthy.profile.unwrap(), &Default::default());
        assert!(!diagnosis
            .all_suggestions()
            .contains(&txsampler::Suggestion::Starvation));
    }

    #[test]
    fn moderate_sits_between_low_and_high() {
        let low = low_conflict(&quick());
        let high = true_sharing(&quick());
        let mid = moderate(&quick());
        let ratio = |o: &RunOutcome| {
            let t = o.truth.totals();
            t.aborts_conflict as f64 / (t.htm_commits + t.fallbacks).max(1) as f64
        };
        assert!(ratio(&low) <= ratio(&mid) + 1e-9);
        assert!(ratio(&mid) <= ratio(&high) + 1e-9);
    }
}
