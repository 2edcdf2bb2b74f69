//! Behavioural tests of the RTM engine: TSX semantics the profiler and the
//! runtime above rely on.

use std::sync::Arc;

use txsim_htm::{
    AbortClass, CacheGeometry, DomainConfig, EventKind, HtmDomain, SamplingConfig, SimCpu,
};
use txsim_pmu::BranchKind;

fn domain() -> Arc<HtmDomain> {
    HtmDomain::with_defaults()
}

fn tiny_domain() -> Arc<HtmDomain> {
    HtmDomain::new(DomainConfig::default().with_geometry(CacheGeometry::tiny()))
}

/// Commit a trivial transaction storing `val` at `addr`.
fn commit_store(cpu: &mut SimCpu, addr: u64, val: u64) {
    cpu.xbegin(1).unwrap();
    cpu.store(2, addr, val).unwrap();
    cpu.xend(3).unwrap();
}

#[test]
fn committed_stores_become_visible() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let addr = d.heap.alloc_words(1);
    commit_store(&mut cpu, addr, 42);
    assert_eq!(d.mem.load(addr), 42);
    assert_eq!(cpu.stats().commits, 1);
    assert_eq!(cpu.stats().total_aborts(), 0);
}

#[test]
fn speculative_stores_are_invisible_until_commit() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let addr = d.heap.alloc_words(1);
    cpu.xbegin(1).unwrap();
    cpu.store(2, addr, 99).unwrap();
    assert_eq!(d.mem.load(addr), 0, "buffered store must not be published");
    assert_eq!(cpu.load(3, addr).unwrap(), 99, "read-own-writes");
    cpu.xend(4).unwrap();
    assert_eq!(d.mem.load(addr), 99);
}

#[test]
fn xabort_discards_speculation() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let addr = d.heap.alloc_words(1);
    cpu.xbegin(1).unwrap();
    cpu.store(2, addr, 7).unwrap();
    assert!(cpu.xabort(3, 0x42).is_err());
    assert_eq!(d.mem.load(addr), 0);
    let info = cpu.last_abort().unwrap();
    assert_eq!(info.class, AbortClass::Explicit);
    assert_eq!(info.explicit_code, 0x42);
    assert!(!info.retry_hint);
    assert!(!cpu.in_tx());
    assert_eq!(cpu.stats().aborts_explicit, 1);
}

#[test]
fn xabort_outside_tx_is_noop() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    assert!(cpu.xabort(1, 0x42).is_ok());
}

#[test]
fn syscall_aborts_synchronously() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    cpu.xbegin(1).unwrap();
    assert!(cpu.syscall(2).is_err());
    let info = cpu.last_abort().unwrap();
    assert_eq!(info.class, AbortClass::Sync);
    assert!(!info.retry_hint);
    assert_eq!(cpu.stats().aborts_sync, 1);
}

#[test]
fn page_fault_aborts_synchronously() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    cpu.xbegin(1).unwrap();
    assert!(cpu.page_fault(2).is_err());
    assert_eq!(cpu.last_abort().unwrap().class, AbortClass::Sync);
}

#[test]
fn conflicting_writer_dooms_reader() {
    let d = domain();
    let mut reader = d.spawn_cpu(SamplingConfig::disabled());
    let mut writer = d.spawn_cpu(SamplingConfig::disabled());
    let addr = d.heap.alloc_words(1);

    reader.xbegin(1).unwrap();
    reader.load(2, addr).unwrap();

    writer.xbegin(1).unwrap();
    writer.store(2, addr, 5).unwrap(); // dooms reader

    assert!(reader.compute(3, 1).is_err(), "doomed reader must abort");
    assert_eq!(reader.last_abort().unwrap().class, AbortClass::Conflict);
    assert!(reader.last_abort().unwrap().retry_hint);

    writer.xend(3).unwrap();
    assert_eq!(d.mem.load(addr), 5);
}

#[test]
fn transactional_read_dooms_remote_writer() {
    let d = domain();
    let mut writer = d.spawn_cpu(SamplingConfig::disabled());
    let mut reader = d.spawn_cpu(SamplingConfig::disabled());
    let addr = d.heap.alloc_words(1);

    writer.xbegin(1).unwrap();
    writer.store(2, addr, 5).unwrap();

    reader.xbegin(1).unwrap();
    // Requester wins: the read proceeds, the writer is doomed.
    assert_eq!(reader.load(2, addr).unwrap(), 0);

    assert!(writer.xend(3).is_err());
    assert_eq!(writer.last_abort().unwrap().class, AbortClass::Conflict);
    assert_eq!(d.mem.load(addr), 0, "aborted writer must not publish");
    reader.xend(3).unwrap();
}

#[test]
fn plain_store_dooms_speculating_readers() {
    // The lock-elision mechanism: a non-transactional store aborts every
    // transaction holding the line in its read set.
    let d = domain();
    let mut tx = d.spawn_cpu(SamplingConfig::disabled());
    let mut plain = d.spawn_cpu(SamplingConfig::disabled());
    let addr = d.heap.alloc_words(1);

    tx.xbegin(1).unwrap();
    tx.load(2, addr).unwrap();

    plain.store(1, addr, 1).unwrap();
    assert_eq!(d.mem.load(addr), 1);

    assert!(tx.compute(3, 1).is_err());
    assert_eq!(tx.last_abort().unwrap().class, AbortClass::Conflict);
}

#[test]
fn plain_load_dooms_speculative_writer_but_not_reader() {
    let d = domain();
    let mut wtx = d.spawn_cpu(SamplingConfig::disabled());
    let mut rtx = d.spawn_cpu(SamplingConfig::disabled());
    let mut plain = d.spawn_cpu(SamplingConfig::disabled());
    let wa = d.heap.alloc_padded(8, 64);
    let ra = d.heap.alloc_padded(8, 64);

    wtx.xbegin(1).unwrap();
    wtx.store(2, wa, 9).unwrap();
    rtx.xbegin(1).unwrap();
    rtx.load(2, ra).unwrap();

    assert_eq!(plain.load(1, wa).unwrap(), 0, "speculative data invisible");
    plain.load(2, ra).unwrap();

    assert!(wtx.xend(3).is_err(), "writer doomed by plain load");
    rtx.xend(3).unwrap();
}

#[test]
fn write_capacity_aborts_on_associativity_overflow() {
    let d = tiny_domain(); // 4 sets × 2 ways, 64B lines
    let g = d.geometry;
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    // Touch 3 lines mapping to the same set: line stride = sets*line_bytes.
    let base = d
        .heap
        .alloc_aligned(g.line_bytes * g.sets as u64 * 4, g.line_bytes);
    cpu.xbegin(1).unwrap();
    let stride = g.line_bytes * g.sets as u64;
    cpu.store(2, base, 1).unwrap();
    cpu.store(3, base + stride, 1).unwrap();
    assert!(cpu.store(4, base + 2 * stride, 1).is_err());
    assert_eq!(cpu.last_abort().unwrap().class, AbortClass::Capacity);
    assert!(!cpu.last_abort().unwrap().retry_hint);
    assert_eq!(cpu.stats().aborts_capacity, 1);
}

#[test]
fn read_capacity_aborts_past_budget() {
    let d = tiny_domain(); // read budget = 32 lines
    let g = d.geometry;
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let base = d.heap.alloc_aligned(g.line_bytes * 64, g.line_bytes);
    cpu.xbegin(1).unwrap();
    let mut aborted = false;
    for i in 0..40 {
        if cpu.load(2, base + i * g.line_bytes).is_err() {
            aborted = true;
            break;
        }
    }
    assert!(aborted);
    assert_eq!(cpu.last_abort().unwrap().class, AbortClass::Capacity);
}

#[test]
fn repeated_access_to_same_line_consumes_no_extra_capacity() {
    let d = tiny_domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let addr = d.heap.alloc_words(1);
    cpu.xbegin(1).unwrap();
    for i in 0..1000 {
        cpu.store(2, addr, i).unwrap();
        cpu.load(3, addr).unwrap();
    }
    cpu.xend(4).unwrap();
    assert_eq!(d.mem.load(addr), 999);
}

#[test]
fn abort_weight_counts_cycles_since_xbegin() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    cpu.xbegin(1).unwrap();
    cpu.compute(2, 1000).unwrap();
    assert!(cpu.xabort(3, 1).is_err());
    let w = cpu.last_abort().unwrap().weight;
    assert!(w >= 1000, "weight {w} must include the computed cycles");
    assert!(w < 1200, "weight {w} should not wildly exceed work done");
    assert_eq!(cpu.stats().wasted_cycles, w);
}

#[test]
fn rollback_restores_stack_and_ip() {
    let d = domain();
    let f_outer = d.funcs.intern("outer", "t.rs", 1);
    let f_inner = d.funcs.intern("inner", "t.rs", 10);
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());

    cpu.call(1, f_outer).unwrap();
    assert_eq!(cpu.stack_depth(), 1);
    cpu.xbegin(5).unwrap();
    cpu.call(6, f_inner).unwrap();
    assert_eq!(cpu.stack_depth(), 2);
    assert!(cpu.xabort(7, 0).is_err());
    assert_eq!(cpu.stack_depth(), 1, "stack must roll back to xbegin depth");
    assert_eq!(cpu.cur_ip().func, f_outer);
    assert_eq!(cpu.cur_ip().line, 5, "IP must roll back to the xbegin line");
}

#[test]
fn frame_helper_balances_stack() {
    let d = domain();
    let f = d.funcs.intern("leaf", "t.rs", 1);
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let depth0 = cpu.stack_depth();
    let v = cpu
        .frame(3, f, |cpu| {
            cpu.compute(4, 10)?;
            Ok(123u64)
        })
        .unwrap();
    assert_eq!(v, 123);
    assert_eq!(cpu.stack_depth(), depth0);
}

type SampleLog = Vec<(txsim_pmu::Sample, Vec<txsim_pmu::Frame>)>;

/// A sink that shares its sample log with the test body.
#[derive(Clone, Default)]
struct ShareSink(Arc<std::sync::Mutex<SampleLog>>);

impl txsim_pmu::SampleSink for ShareSink {
    fn on_sample(&mut self, sample: &txsim_pmu::Sample, stack: &[txsim_pmu::Frame]) {
        self.0
            .lock()
            .unwrap()
            .push((sample.clone(), stack.to_vec()));
    }
}

#[test]
fn sampling_interrupt_aborts_transaction_with_lbr_abort_bit() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::only(EventKind::Cycles, 500));
    let sink = ShareSink::default();
    cpu.set_sink(Box::new(sink.clone()));

    // A long transaction is guaranteed to straddle a 500-cycle period.
    let mut aborted_by_sample = false;
    for _ in 0..50 {
        cpu.xbegin(1).unwrap();
        let r = cpu.compute(2, 2000);
        if r.is_err() && cpu.last_abort().unwrap().class == AbortClass::Interrupt {
            aborted_by_sample = true;
            break;
        }
        if r.is_ok() {
            cpu.xend(3).unwrap();
        }
    }
    assert!(
        aborted_by_sample,
        "a PMU interrupt must abort the transaction"
    );
    assert!(cpu.last_abort().unwrap().retry_hint);

    let samples = sink.0.lock().unwrap();
    let aborting: Vec<_> = samples.iter().filter(|(s, _)| s.caused_abort).collect();
    assert!(!aborting.is_empty());
    for (s, _) in &aborting {
        assert!(s.in_tx);
        let last = s.lbr.last().expect("LBR must record the interrupt");
        assert_eq!(last.kind, BranchKind::Interrupt);
        assert!(last.abort, "LBR tail abort bit identifies in-tx samples");
    }
    // Samples taken outside transactions must have a clear abort bit.
    for (s, _) in samples.iter().filter(|(s, _)| !s.caused_abort) {
        if let Some(last) = s.lbr.last() {
            if last.kind == BranchKind::Interrupt {
                assert!(!last.abort);
            }
        }
    }
}

#[test]
fn lbr_records_in_tx_calls() {
    let d = domain();
    let f_a = d.funcs.intern("fa", "t.rs", 1);
    let f_b = d.funcs.intern("fb", "t.rs", 10);
    let mut cpu = d.spawn_cpu(SamplingConfig::only(EventKind::Cycles, 1_000_000));

    cpu.call(1, f_a).unwrap();
    cpu.xbegin(2).unwrap();
    cpu.call(3, f_b).unwrap();
    cpu.compute(4, 10).unwrap();
    cpu.ret().unwrap();
    cpu.xend(5).unwrap();

    let snap = cpu.pmu().lbr().snapshot();
    let call_b = snap
        .iter()
        .find(|e| e.kind == BranchKind::Call && e.to.func == f_b)
        .expect("call into fb must be recorded");
    assert!(
        call_b.in_tsx,
        "in-transaction call must carry the in-tsx bit"
    );
    assert_eq!(call_b.from.func, f_a);
    assert_eq!(call_b.from.line, 3);
    let call_a = snap
        .iter()
        .find(|e| e.kind == BranchKind::Call && e.to.func == f_a)
        .unwrap();
    assert!(!call_a.in_tsx);
}

#[test]
fn abort_branch_recorded_in_lbr() {
    let d = domain();
    let f_a = d.funcs.intern("fa2", "t.rs", 1);
    let mut cpu = d.spawn_cpu(SamplingConfig::only(EventKind::Cycles, 1_000_000));

    cpu.call(1, f_a).unwrap();
    cpu.xbegin(2).unwrap();
    assert!(cpu.xabort(3, 9).is_err());
    let snap = cpu.pmu().lbr().snapshot();
    let abort = snap
        .iter()
        .find(|e| e.kind == BranchKind::TxAbort)
        .expect("abort branch must be recorded");
    assert!(abort.abort);
    assert_eq!(abort.to.func, f_a);
    assert_eq!(abort.to.line, 2, "abort lands at the xbegin point");
}

#[test]
fn cas_outside_tx_is_atomic_and_snoops() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let mut tx = d.spawn_cpu(SamplingConfig::disabled());
    let lock = d.heap.alloc_words(1);

    // A transaction reads the lock word (elision read).
    tx.xbegin(1).unwrap();
    assert_eq!(tx.load(2, lock).unwrap(), 0);

    // Plain CAS acquires the lock and must doom the speculating reader.
    assert_eq!(cpu.cas(1, lock, 0, 1).unwrap(), Ok(0));
    assert!(tx.compute(3, 1).is_err());
    assert_eq!(tx.last_abort().unwrap().class, AbortClass::Conflict);

    // Failed CAS reports the actual value.
    assert_eq!(cpu.cas(2, lock, 0, 2).unwrap(), Err(1));
    assert_eq!(d.mem.load(lock), 1);
}

#[test]
fn cas_inside_tx_is_speculative() {
    let d = domain();
    let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
    let addr = d.heap.alloc_words(1);
    cpu.xbegin(1).unwrap();
    assert_eq!(cpu.cas(2, addr, 0, 5).unwrap(), Ok(0));
    assert_eq!(d.mem.load(addr), 0, "speculative CAS must not publish");
    cpu.xend(3).unwrap();
    assert_eq!(d.mem.load(addr), 5);
}

#[test]
fn concurrent_transactional_counter_is_exact() {
    // Serializability smoke test: N threads increment one counter in
    // transactions with a naive retry loop under virtual-time
    // interleaving; the final value must be exact.
    let d = HtmDomain::new(DomainConfig::default().cooperative());
    let addr = d.heap.alloc_words(1);
    const THREADS: usize = 8;
    const INCS: u64 = 2_000;

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let d = Arc::clone(&d);
            s.spawn(move || {
                let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                for _ in 0..INCS {
                    loop {
                        let attempt = (|| {
                            cpu.xbegin(1)?;
                            cpu.rmw(2, addr, |v| v + 1)?;
                            cpu.xend(3)
                        })();
                        if attempt.is_ok() {
                            break;
                        }
                    }
                }
            });
        }
    });

    assert_eq!(d.mem.load(addr), THREADS as u64 * INCS);
    assert_eq!(d.tracked_lines(), 0, "directory must drain at quiescence");
    // Hand-off accounting: a park is one way a block ends, never more.
    assert!(d.scheduler_blocks() > 0);
    assert!(d.scheduler_parks() <= d.scheduler_blocks());
}

#[test]
fn concurrent_disjoint_writers_never_conflict() {
    let d = HtmDomain::new(DomainConfig::default().cooperative());
    let g = d.geometry;
    const THREADS: usize = 6;
    let addrs: Vec<u64> = (0..THREADS)
        .map(|_| d.heap.alloc_padded(8, g.line_bytes))
        .collect();

    std::thread::scope(|s| {
        for addr in addrs.iter().copied() {
            let d = Arc::clone(&d);
            s.spawn(move || {
                let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                for i in 0..3_000u64 {
                    cpu.xbegin(1).unwrap();
                    cpu.store(2, addr, i).unwrap();
                    cpu.xend(3).unwrap();
                }
                assert_eq!(
                    cpu.stats().total_aborts(),
                    0,
                    "padded data must not conflict"
                );
            });
        }
    });
}

#[test]
fn false_sharing_neighbours_do_conflict() {
    // Two threads writing adjacent words in the same cache line must see
    // conflict aborts even though their bytes are disjoint. Needs the
    // virtual-time scheduler: conflict overlap is a simulated-time
    // property, not a host-concurrency one.
    let d = HtmDomain::new(DomainConfig::default().cooperative());
    let base = d.heap.alloc_aligned(16, 64);
    let total_aborts = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        for k in 0..2u64 {
            let d = Arc::clone(&d);
            let total_aborts = &total_aborts;
            s.spawn(move || {
                let mut cpu = d.spawn_cpu(SamplingConfig::disabled());
                let addr = base + 8 * k;
                for i in 0..5_000u64 {
                    loop {
                        let attempt = (|| {
                            cpu.xbegin(1)?;
                            cpu.store(2, addr, i)?;
                            // Keep the transaction wider than the scheduler
                            // quantum so the claim window spans turns.
                            cpu.compute(3, 400)?;
                            cpu.xend(4)
                        })();
                        if attempt.is_ok() {
                            break;
                        }
                    }
                }
                total_aborts.fetch_add(
                    cpu.stats().aborts_conflict,
                    std::sync::atomic::Ordering::Relaxed,
                );
            });
        }
    });

    assert!(
        total_aborts.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "same-line writers must conflict (false sharing)"
    );
}
