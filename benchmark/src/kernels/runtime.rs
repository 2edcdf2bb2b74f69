//! Kernels of the RTM runtime (`rtm-runtime`) and the software TM behind
//! its fallback (`txstm`).

use std::hint::black_box;

use rtm_runtime::{
    named_critical_section, AdaptivePolicy, CmKind, FallbackKind, HistTable, SiteTable, TmLib,
};
use txsim_htm::{AbortClass, DomainConfig, FuncId, HtmDomain, Ip, SamplingConfig};

use super::{time_loop, Kernels};

pub fn rtm(k: &mut Kernels) {
    const N: u64 = 10_000;
    let domain = HtmDomain::new(DomainConfig::default().with_memory(4 << 20));
    let lib = TmLib::new(&domain);
    let counter = domain.heap.alloc_padded(8, domain.geometry.line_bytes);
    let func = domain.funcs.intern("kernel_section", "kernels.rs", 3);
    let mut cpu = domain.spawn_cpu(SamplingConfig::disabled());
    let mut tm = lib.thread();

    // An uncontended elided section with a one-word read-modify-write:
    // lock-word wait, xbegin, elision read, body, xend, TM_END.
    k.ns_per_op("rtm.section_ns", N, || {
        time_loop(N, |_| {
            named_critical_section(&mut tm, &mut cpu, func, 7, |cpu| {
                cpu.rmw(8, counter, |v| v + 1).map(|_| ())
            });
        })
    });
    // The instruction sequence of that section issued straight to the CPU:
    // what the engine charges for it without any runtime around it.
    let lock = lib.lock_addr();
    let tm_end = domain.funcs.intern("TM_END", "rtm_runtime.rs", 1);
    k.ns_per_op("rtm.raw_sequence_ns", N, || {
        time_loop(N, |_| {
            cpu.call(7, func).expect("outside tx");
            black_box(cpu.load(7, lock).expect("plain load"));
            cpu.xbegin(7).expect("uncontended");
            black_box(cpu.load(7, lock).expect("uncontended"));
            cpu.rmw(8, counter, |v| v + 1).expect("uncontended");
            cpu.xend(7).expect("uncontended");
            cpu.call(7, tm_end).expect("outside tx");
            cpu.ret().expect("outside tx");
            cpu.ret().expect("outside tx");
        })
    });
    // What the runtime itself adds per section: state word, site plan,
    // contention-manager hooks, ground truth, histograms.
    let overhead = (k.median("rtm.section_ns") - k.median("rtm.raw_sequence_ns")).max(0.0);
    k.derived("rtm.section_overhead_ns", "ns", overhead);
    // The same body under the real (non-elided) global lock.
    k.ns_per_op("rtm.fallback_lock_ns", N, || {
        time_loop(N, |_| {
            tm.locked_section(&mut cpu, 9, |cpu| {
                cpu.rmw(10, counter, |v| v + 1).map(|_| ())
            });
        })
    });
    black_box(domain.mem.load(counter));

    const SITES: u64 = 16;
    let site = |i: u64| Ip::new(FuncId(1 + (i % SITES) as u32), 7);
    const RECORDS: u64 = 200_000;
    k.ns_per_op("rtm.hist_record_ns", RECORDS, || {
        let mut hists = HistTable::new();
        let took = time_loop(RECORDS, |i| hists.record(site(i), 300 + i % 97, 1, None));
        black_box(hists.take_delta().len());
        took
    });
    k.ns_per_op("rtm.site_lookup_ns", RECORDS, || {
        let mut sites = SiteTable::new(AdaptivePolicy::DEFAULT, 5);
        for i in 0..SITES {
            // Sites are seated on their first abort; plan() then finds them.
            sites.note_abort(site(i), AbortClass::Conflict);
        }
        time_loop(RECORDS, |i| {
            black_box(sites.plan(site(i)));
        })
    });
}

pub fn stm(k: &mut Kernels) {
    const N: u64 = 5_000;
    let domain = HtmDomain::new(DomainConfig::default().with_memory(4 << 20));
    // No hardware retries and a body whose hardware attempt always aborts
    // explicitly: every section completes as one TL2 software transaction.
    let lib = TmLib::with_cm(&domain, 0, FallbackKind::Stm, CmKind::Backoff);
    let line_bytes = domain.geometry.line_bytes;
    let words = domain.heap.alloc_aligned(4 * line_bytes, line_bytes);
    let mut cpu = domain.spawn_cpu(SamplingConfig::disabled());
    let mut tm = lib.thread();
    k.ns_per_op("stm.section_ns", N, || {
        time_loop(N, |i| {
            tm.critical_section(&mut cpu, 11, |cpu| {
                cpu.xabort(12, 1)?;
                for w in 0..4 {
                    cpu.store(13, words + w * line_bytes, i)?;
                }
                Ok(())
            });
        })
    });
    let t = tm.truth.totals();
    assert!(
        t.stm_commits > 0 && t.htm_commits == 0,
        "stm kernel must complete in software: {t:?}"
    );
}
