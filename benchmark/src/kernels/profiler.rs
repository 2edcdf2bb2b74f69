//! Kernels of the profiler core (`txsampler`): the per-sample path
//! (collector, call-path reconstruction, CCT, shadow memory), the snapshot
//! hub and the thread-profile merge — plus the cost of `obs` itself.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rtm_runtime::ThreadState;
use txsampler::cct::{NodeKey, ROOT};
use txsampler::collect::{SnapshotHub, SnapshotPolicy};
use txsampler::{merge_profiles, Cct, Collector, ContentionMap, ThreadProfile};
use txsim_mem::CacheGeometry;
use txsim_pmu::{
    BranchKind, EventKind, Frame, FuncId, Ip, LbrEntry, Sample, SampleSink, SamplingConfig,
};

use super::{time_loop, Kernels};

/// Synthetic samples cycling over a converged set of contexts: a four-deep
/// stack, every third sample inside a transaction (with an LBR tail to
/// reconstruct), every fourth a memory event.
fn synthetic_samples(contexts: u32, tid: usize) -> Vec<(Sample, Vec<Frame>)> {
    (0..contexts)
        .map(|c| {
            let stack: Vec<Frame> = (0..4)
                .map(|d| Frame {
                    func: FuncId(d + 1),
                    callsite: Ip::new(FuncId(d), 2 * d + 1 + (c % 7)),
                })
                .collect();
            let in_tx = c % 3 == 0;
            let memory = c % 4 == 1;
            let lbr = if in_tx { in_tx_lbr(c) } else { Vec::new() };
            let sample = Sample {
                event: if memory {
                    EventKind::MemStore
                } else {
                    EventKind::Cycles
                },
                ip: Ip::new(FuncId(4), 100 + c % 11),
                tid,
                in_tx,
                caused_abort: in_tx,
                addr: memory.then_some(64 * (c as u64 % 32)),
                weight: 0,
                abort_class: None,
                tsc: c as u64,
                lbr,
            };
            (sample, stack)
        })
        .collect()
}

/// An LBR tail as the PMU leaves it after a sampling interrupt aborted a
/// transaction two calls deep.
fn in_tx_lbr(c: u32) -> Vec<LbrEntry> {
    let callee = FuncId(40 + c % 4);
    let inner = FuncId(50 + c % 4);
    vec![
        LbrEntry {
            from: Ip::new(FuncId(4), 7 + c % 5),
            to: Ip::new(callee, 0),
            kind: BranchKind::Call,
            in_tsx: true,
            abort: false,
        },
        LbrEntry {
            from: Ip::new(callee, 3),
            to: Ip::new(inner, 0),
            kind: BranchKind::Call,
            in_tsx: true,
            abort: false,
        },
        LbrEntry {
            from: Ip::new(inner, 9),
            to: Ip::new(inner, 9),
            kind: BranchKind::Interrupt,
            in_tsx: false,
            abort: true,
        },
    ]
}

fn new_collector(tid: usize) -> (Collector, txsampler::CollectorHandle) {
    Collector::new(
        tid,
        ThreadState::new(),
        Arc::new(ContentionMap::with_defaults(CacheGeometry::default())),
        &SamplingConfig::txsampler_default(),
    )
}

/// A finished thread profile of `samples` synthetic samples.
fn synthetic_thread_profile(tid: usize, samples: u64) -> ThreadProfile {
    let load = synthetic_samples(64, tid);
    let (mut collector, handle) = new_collector(tid);
    for i in 0..samples {
        let (sample, stack) = &load[i as usize % load.len()];
        collector.on_sample(sample, stack);
    }
    collector.flush();
    handle.take()
}

pub fn collector(k: &mut Kernels) {
    const N: u64 = 50_000;
    let load = synthetic_samples(64, 0);
    // The whole per-sample path: context build, LBR reconstruction,
    // classification, CCT update, shadow memory on memory events.
    k.ns_per_op("collector.on_sample_ns", N, || {
        let (mut collector, handle) = new_collector(0);
        let took = time_loop(N, |i| {
            let (sample, stack) = &load[i as usize % load.len()];
            collector.on_sample(sample, stack);
        });
        collector.flush();
        black_box(handle.take().samples);
        took
    });

    let lbr = in_tx_lbr(0);
    let mut frames = Vec::with_capacity(16);
    k.ns_per_op("callpath.reconstruct_ns", N, || {
        time_loop(N, |_| {
            black_box(txsampler::reconstruct_tx_path_into(
                black_box(&lbr),
                FuncId(4),
                &mut frames,
            ));
        })
    });

    let path: Vec<NodeKey> = (0..5)
        .map(|d| NodeKey::Frame {
            func: FuncId(d + 1),
            callsite: Ip::new(FuncId(d), d + 1),
            speculative: false,
        })
        .chain(std::iter::once(NodeKey::Stmt {
            ip: Ip::new(FuncId(5), 42),
            speculative: false,
        }))
        .collect();
    let mut cct = Cct::new();
    cct.path(path.iter().copied());
    k.ns_per_op("cct.path_hit_ns", N, || {
        time_loop(N, |_| {
            black_box(cct.path(path.iter().copied()));
        })
    });
    const INSERTS: u64 = 5_000;
    k.ns_per_op("cct.insert_ns", INSERTS, || {
        let mut cct = Cct::new();
        let parent = cct.path(path[..5].iter().copied());
        let took = time_loop(INSERTS, |i| {
            black_box(cct.child(
                parent,
                NodeKey::Stmt {
                    ip: Ip::new(FuncId(5), i as u32),
                    speculative: false,
                },
            ));
        });
        black_box(cct.child(ROOT, path[0]));
        took
    });

    k.ns_per_op("shadow.probe_ns", N, || {
        let shadow = ContentionMap::with_defaults(CacheGeometry::default());
        time_loop(N, |i| {
            black_box(shadow.record(
                64 * (i % 256) + 8 * (i % 2),
                (i % 2) as usize,
                i % 3 == 0,
                i,
            ));
        })
    });

    let threads: Vec<ThreadProfile> = (0..4)
        .map(|tid| synthetic_thread_profile(tid, 5_000))
        .collect();
    k.ms_per_op("profile.merge_ms", || {
        let input = threads.clone();
        let started = Instant::now();
        black_box(merge_profiles(input).samples);
        started.elapsed()
    });
}

pub fn hub(k: &mut Kernels) {
    // A delta as a collector publishes it: ~1000 samples over 64 contexts.
    let delta = synthetic_thread_profile(0, 1_000);
    const PUBLISHES: u64 = 500;
    k.ns_per_op("hub.publish_ns", PUBLISHES, || {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(1_000));
        time_loop(PUBLISHES, |_| hub.publish(&delta))
    });
    let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(1_000));
    for _ in 0..64 {
        hub.publish(&delta);
    }
    const READS: u64 = 2_000;
    k.ns_per_op("hub.latest_ns", READS, || {
        time_loop(READS, |_| {
            black_box(hub.latest().epoch);
        })
    });
    let since = hub.epoch() - 8;
    k.ns_per_op("hub.delta_since_ns", READS, || {
        time_loop(READS, |_| {
            black_box(hub.delta_since(since).to);
        })
    });
}

/// What one `obs::count` and one `obs::span` cost while enabled — the unit
/// prices behind `obs.trace_overhead_pct`. Leaves `obs` switched off.
pub fn obs_cost(k: &mut Kernels) {
    const N: u64 = 200_000;
    obs::set_enabled(true);
    k.ns_per_op("obs.count_ns", N, || {
        time_loop(N, |_| obs::count(obs::Counter::WorkersSpawned))
    });
    obs::set_enabled(false);
    obs::set_tracing(true);
    k.ns_per_op("obs.span_ns", N, || {
        let took = time_loop(N, |_| drop(obs::span(obs::Subsystem::Harness, "kernel")));
        // Empty the ring so the spans do not reach any trace file.
        black_box(obs::take_traces().len());
        took
    });
    obs::set_tracing(false);
}
