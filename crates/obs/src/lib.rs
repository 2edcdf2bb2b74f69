//! Self-observability for the TxSampler reproduction.
//!
//! The paper's headline claim is that HTM profiling can be *lightweight*
//! (~4% median overhead, §7/Fig. 5). To make that claim inspectable in the
//! reproduction, this crate instruments the profiler *itself* with three
//! layers, all std-only and disabled by default:
//!
//! 1. **Counters** ([`counters`]): cheap atomic per-subsystem counters
//!    (samples taken/dropped, CCT nodes created/hit, shadow-memory probes,
//!    directory conflict checks, collector-lock acquisitions, LBR window
//!    reconstructions, …) held in a [`Registry`]. Registries are plain
//!    values — tests instantiate their own — with one process-wide instance
//!    behind [`registry`] that the instrumented crates increment through
//!    [`count`]. Snapshots render as a deterministic text table and JSON.
//! 2. **Trace spans** ([`spans`]): a per-thread fixed-capacity ring buffer
//!    of begin/end span events timestamped with the virtual TSC
//!    ([`txsim_pmu::now_tsc`]), recorded through a [`span`] RAII guard that
//!    is a no-op while tracing is disabled. [`chrome`] exports collected
//!    traces as Chrome `trace_event` JSON for `chrome://tracing`/Perfetto.
//! 3. **Self-profile reports** ([`selfprof`]): an overhead decomposition in
//!    the style of the paper's Fig. 5, attributing the profiler's own wall
//!    time to named subsystems; driven by `repro --self-profile`.
//!
//! Both layers are gated on process-wide flags ([`set_enabled`],
//! [`set_tracing`]) that default to **off**: with instrumentation disabled,
//! [`count`] performs a single relaxed atomic load and [`span`] returns an
//! inert guard — no counter is ever incremented and no event is recorded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod counters;
pub mod selfprof;
pub mod spans;

pub use counters::{registry, Counter, Registry, Snapshot, Subsystem};
pub use selfprof::{aggregate_spans, SelfProfile, SpanAgg};
pub use spans::{flush_thread, span, take_traces, SpanEvent, SpanGuard, SpanRing, ThreadTrace};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::LockResult;

static COUNTERS_ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable or disable counter collection process-wide. Off by default.
pub fn set_enabled(on: bool) {
    COUNTERS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether counter collection is enabled.
#[inline]
pub fn enabled() -> bool {
    COUNTERS_ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable span tracing process-wide. Off by default.
pub fn set_tracing(on: bool) {
    TRACING_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span tracing is enabled.
#[inline]
pub fn tracing() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// Increment a counter in the global registry by one. A single relaxed
/// atomic load (and early return) when collection is disabled.
#[inline]
pub fn count(counter: Counter) {
    if enabled() {
        registry().add(counter, 1);
    }
}

/// Increment a counter in the global registry by `n`.
#[inline]
pub fn count_n(counter: Counter, n: u64) {
    if enabled() && n > 0 {
        registry().add(counter, n);
    }
}

/// Take the guard out of a lock result, recovering a poisoned lock instead
/// of propagating the holder's panic, and count the recovery on `counter`.
/// Each caller states why its data stays valid after such a panic.
pub fn recover<G>(result: LockResult<G>, counter: Counter) -> G {
    result.unwrap_or_else(|poisoned| {
        count(counter);
        poisoned.into_inner()
    })
}

/// Timestamp source for spans: the simulator's global virtual TSC.
#[inline]
pub(crate) fn now_ns() -> u64 {
    txsim_pmu::now_tsc()
}
