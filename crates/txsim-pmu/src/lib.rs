//! Simulated performance monitoring unit (PMU).
//!
//! This crate models the three Intel PMU facilities TxSampler depends on:
//!
//! * **Event-based sampling** ([`PmuThread`]): per-thread counters for CPU
//!   cycles, RTM commit/abort retirement and memory load/store retirement,
//!   each with a configurable sampling period. When a counter overflows, the
//!   simulated CPU delivers an interrupt — and, exactly as on real hardware,
//!   an interrupt taken inside a hardware transaction *aborts* it
//!   (Challenge I in the paper).
//! * **Precise samples** ([`Sample`]): each sample carries the precise
//!   instruction pointer, and for memory events the effective address, as
//!   PEBS does.
//! * **Last Branch Records** ([`lbr::Lbr`]): a circular buffer of recent
//!   branches, each tagged with `abort` and `in-tsx` bits, filtered to calls
//!   and returns, which is what lets the profiler reconstruct call paths
//!   inside transactions (Challenge IV).
//!
//! The crate also hosts the simulator's "symbol table" ([`ip::FuncRegistry`]):
//! profilers resolve sampled instruction pointers against it the way a real
//! profiler resolves IPs against a binary's symbols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod ip;
pub mod lbr;
pub mod sample;
pub mod thread;
pub mod tsc;

pub use event::{EventKind, SamplingConfig, EVENT_KINDS};
pub use ip::{Frame, FuncId, FuncInfo, FuncRegistry, Ip};
pub use lbr::{BranchKind, Lbr, LbrEntry};
pub use sample::{AbortClass, Sample, SampleSink};
pub use thread::PmuThread;
pub use tsc::now_tsc;
