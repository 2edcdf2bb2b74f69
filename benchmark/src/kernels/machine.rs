//! Kernels of the simulated machine: `txsim-mem`, and `txsim-htm`'s
//! directory, scheduler and CPU, and `txsim-pmu`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use txsim_htm::directory::Directory;
use txsim_htm::sched::Scheduler;
use txsim_htm::{DomainConfig, HtmDomain, SamplingConfig};
use txsim_mem::{LineId, SimMemory, TxHeap};
use txsim_pmu::{BranchKind, EventKind, Frame, FuncId, Ip, Lbr, LbrEntry, Sample, SampleSink};

use super::{time_loop, Kernels};

const SMALL_MEMORY: u64 = 4 << 20;

fn small_domain() -> Arc<HtmDomain> {
    HtmDomain::new(DomainConfig::default().with_memory(SMALL_MEMORY))
}

pub fn memory(k: &mut Kernels, smoke: bool) {
    let bytes: u64 = if smoke { 26 << 20 } else { 256 << 20 };
    k.ms_per_op("mem.new_ms", || {
        let started = Instant::now();
        black_box(SimMemory::new(bytes));
        started.elapsed()
    });
    // What `run_workload` pays before a workload's own set-up: memory plus
    // heap, directory, scheduler and symbol table.
    k.ms_per_op("harness.domain_new_ms", || {
        let started = Instant::now();
        black_box(HtmDomain::new(DomainConfig::default().with_memory(bytes)));
        started.elapsed()
    });

    let mem = SimMemory::new(SMALL_MEMORY);
    let words = SMALL_MEMORY / 8;
    const N: u64 = 200_000;
    // Stride of 9 words: every access lands on a new cache line, all
    // within a footprint that fits the host's L2.
    let addr = |i: u64| (i * 9 % words) * 8;
    k.ns_per_op("mem.load_ns", N, || {
        time_loop(N, |i| {
            black_box(mem.load(addr(i)));
        })
    });
    k.ns_per_op("mem.store_ns", N, || {
        time_loop(N, |i| mem.store(addr(i), i))
    });
    k.ns_per_op("mem.cas_ns", N, || {
        time_loop(N, |i| {
            let a = addr(i);
            let _ = black_box(mem.compare_exchange(a, mem.load(a), i));
        })
    });
    k.ns_per_op("mem.heap_alloc_ns", N, || {
        let heap = TxHeap::new(0, 1 << 30);
        time_loop(N, |_| {
            black_box(heap.alloc_words(4));
        })
    });
}

pub fn directory(k: &mut Kernels) {
    const N: u64 = 20_000;
    let lines: Vec<LineId> = (0..N).map(LineId).collect();

    k.ns_per_op("dir.tx_read_ns", N, || {
        let dir = Directory::new();
        let tid = dir.register_thread();
        dir.tx_started();
        let took = time_loop(N, |i| {
            black_box(dir.tx_read(lines[i as usize], tid));
        });
        dir.release_aborted(tid, &lines, &[]);
        dir.tx_finished();
        took
    });
    k.ns_per_op("dir.tx_write_ns", N, || {
        let dir = Directory::new();
        let tid = dir.register_thread();
        dir.tx_started();
        let took = time_loop(N, |i| {
            black_box(dir.tx_write(lines[i as usize], tid));
        });
        dir.release_aborted(tid, &[], &lines);
        dir.tx_finished();
        took
    });
    // One committed transaction with an 8-line write set: 8 declares,
    // begin_commit, end_commit.
    const COMMITS: u64 = 2_000;
    k.ns_per_op("dir.commit8_ns", COMMITS, || {
        let dir = Directory::new();
        let tid = dir.register_thread();
        time_loop(COMMITS, |i| {
            dir.tx_started();
            let base = (i % 512) * 8;
            let mut write: Vec<LineId> = (base..base + 8).map(LineId).collect();
            for &line in &write {
                dir.tx_write(line, tid);
            }
            assert!(dir.begin_commit(tid, &mut write), "uncontended commit");
            dir.end_commit(tid, &[], &write);
            dir.tx_finished();
        })
    });
    // The forced (lock-word) store: always takes the shard lock.
    k.ns_per_op("dir.plain_store_ns", N, || {
        let dir = Directory::new();
        let tid = dir.register_thread();
        time_loop(N, |i| {
            dir.plain_store(lines[i as usize], Some(tid), true, || {});
        })
    });
}

pub fn scheduler(k: &mut Kernels) {
    const QUANTUM: u64 = 150;
    const N: u64 = 100_000;
    // One registered thread: every sync is immediately eligible.
    k.ns_per_op("sched.sync_fast_ns", N, || {
        let sched = Scheduler::new(true, QUANTUM);
        sched.register(0, 0);
        let mut clock = 0u64;
        let took = time_loop(N, |_| {
            clock += 10;
            black_box(sched.sync(0, clock));
        });
        sched.retire(0);
        took
    });
    // Two host threads leapfrogging in virtual time: each step overshoots
    // the peer by more than a quantum, so nearly every sync parks until
    // the peer has run — the hand-off a 2-thread simulation pays per park.
    // Reported per blocking sync.
    const STEPS: u64 = 5_000;
    let mut per_block = Vec::new();
    for _ in 0..=k.repeats {
        let sched = Scheduler::new(true, QUANTUM);
        sched.register(0, 0);
        sched.register(1, 0);
        let started = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..2usize {
                let sched = &sched;
                s.spawn(move || {
                    let mut clock = 0u64;
                    for _ in 0..STEPS {
                        clock += 3 * QUANTUM;
                        sched.sync(tid, clock);
                    }
                    sched.retire(tid);
                });
            }
        });
        let took = started.elapsed();
        let blocks = sched
            .blocks
            .load(std::sync::atomic::Ordering::Relaxed)
            .max(1);
        per_block.push(took.as_nanos() as f64 / blocks as f64);
    }
    k.results.push(super::Kernel {
        name: "sched.handoff_ns",
        unit: "ns",
        summary: crate::stats::summarize(&per_block[1..]),
    });
}

/// Counts samples and drops them: isolates PMU delivery from the collector.
struct CountingSink(u64);

impl SampleSink for CountingSink {
    fn on_sample(&mut self, sample: &Sample, stack: &[Frame]) {
        self.0 += 1;
        black_box((sample, stack));
    }
}

pub fn cpu(k: &mut Kernels) {
    const N: u64 = 20_000;
    let domain = small_domain();
    let line_bytes = domain.geometry.line_bytes;
    let base = domain.heap.alloc_aligned(64 * line_bytes, line_bytes);
    let line_addr = move |i: u64| base + (i % 64) * line_bytes;
    let func = domain.funcs.intern("kernel_callee", "kernels.rs", 1);

    // One CPU for all batches: a domain hands out at most 64 thread ids.
    let mut cpu = domain.spawn_cpu(SamplingConfig::disabled());
    k.ns_per_op("cpu.empty_tx_ns", N, || {
        time_loop(N, |_| {
            cpu.xbegin(1).expect("uncontended");
            cpu.xend(2).expect("uncontended");
        })
    });
    // Amortised over a 32-load transaction: includes each line's directory
    // claim and its release at commit.
    const TXS: u64 = 1_000;
    k.ns_per_op("cpu.tx_load_ns", TXS * 32, || {
        time_loop(TXS, |_| {
            cpu.xbegin(1).expect("uncontended");
            for i in 0..32 {
                black_box(cpu.load(2, line_addr(i)).expect("uncontended"));
            }
            cpu.xend(3).expect("uncontended");
        })
    });
    // Loads of lines the transaction already holds: 4 lines, 8 loads each
    // (the first load of each line claims it; that cost is amortised in).
    k.ns_per_op("cpu.tx_hit_ns", TXS * 32, || {
        time_loop(TXS, |_| {
            cpu.xbegin(1).expect("uncontended");
            for i in 0..32 {
                black_box(cpu.load(2, line_addr(i % 4)).expect("uncontended"));
            }
            cpu.xend(3).expect("uncontended");
        })
    });
    // 16 stores to 16 consecutive lines (distinct cache sets).
    k.ns_per_op("cpu.tx_store_ns", TXS * 16, || {
        time_loop(TXS, |t| {
            cpu.xbegin(1).expect("uncontended");
            for i in 0..16 {
                cpu.store(2, line_addr(i), t).expect("uncontended");
            }
            cpu.xend(3).expect("uncontended");
        })
    });
    k.ns_per_op("cpu.plain_load_ns", N, || {
        time_loop(N, |i| {
            black_box(cpu.load(1, line_addr(i)).expect("plain load"));
        })
    });
    k.ns_per_op("cpu.compute_ns", N, || {
        time_loop(N, |_| cpu.compute(1, COMPUTE_CYCLES).expect("outside tx"))
    });
    k.ns_per_op("cpu.call_ret_ns", N, || {
        time_loop(N, |_| {
            cpu.call(1, func).expect("outside tx");
            cpu.ret().expect("outside tx");
        })
    });
    // xbegin, four loads, explicit abort: begin + claim + rollback.
    k.ns_per_op("cpu.abort_rollback_ns", N, || {
        time_loop(N, |_| {
            cpu.xbegin(1).expect("uncontended");
            for i in 0..4 {
                black_box(cpu.load(2, line_addr(i)).expect("uncontended"));
            }
            assert!(
                cpu.xabort(3, 1).is_err(),
                "xabort inside a transaction aborts"
            );
        })
    });
}

/// Simulated cycles per `cpu.compute_ns` operation (the bill converts the
/// kernel to ns per simulated cycle with it).
pub const COMPUTE_CYCLES: u64 = 100;

pub fn pmu(k: &mut Kernels) {
    const N: u64 = 20_000;
    let domain = small_domain();
    let func = domain.funcs.intern("kernel_sampled", "kernels.rs", 2);
    // Period 1 on cycles: every tick overflows and delivers one sample
    // (LBR snapshot included) to a sink that only counts.
    let mut cpu = domain.spawn_cpu(SamplingConfig::only(EventKind::Cycles, 1));
    cpu.set_sink(Box::new(CountingSink(0)));
    cpu.call(1, func).expect("outside tx");
    k.ns_per_op("pmu.sample_delivery_ns", N, || {
        time_loop(N, |_| cpu.compute(3, 1).expect("outside tx"))
    });
    let entry = LbrEntry {
        from: Ip::new(FuncId(1), 2),
        to: Ip::new(FuncId(2), 0),
        kind: BranchKind::Call,
        in_tsx: false,
        abort: false,
    };
    const PUSHES: u64 = 200_000;
    k.ns_per_op("pmu.lbr_push_ns", PUSHES, || {
        let mut lbr = Lbr::new(16);
        let took = time_loop(PUSHES, |_| lbr.push(black_box(entry)));
        black_box(lbr.len());
        took
    });
}
