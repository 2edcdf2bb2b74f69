//! A simulated CPU with Intel-TSX-style restricted transactional memory (RTM).
//!
//! This crate is the hardware substrate of the TxSampler reproduction. Each
//! worker thread owns a [`SimCpu`] attached to a shared [`HtmDomain`] (the
//! "machine": simulated memory, cache geometry, and the coherence-directory
//! analogue used for conflict detection). Workloads execute *simulated
//! instructions* — [`SimCpu::load`], [`SimCpu::store`], [`SimCpu::compute`],
//! [`SimCpu::call`]/[`SimCpu::ret`], [`SimCpu::syscall`] — each of which
//! advances a per-thread virtual cycle clock, feeds the simulated PMU, and
//! participates in transactional conflict detection when executed between
//! [`SimCpu::xbegin`] and [`SimCpu::xend`].
//!
//! ## Fidelity to TSX
//!
//! * **Conflict detection** is eager, at cache-line granularity, requester
//!   wins: a (transactional or plain) store dooms every other transaction
//!   tracking the line; a transactional load dooms a remote transactional
//!   writer. This is how lock elision works on real TSX — the fallback
//!   thread's plain store to the lock word aborts every speculating reader.
//! * **Capacity aborts** come from an L1-geometry model: a transaction
//!   aborts when its write set overflows a cache set's associativity or the
//!   whole cache, or when its read set exceeds the (larger) read-tracking
//!   budget.
//! * **Synchronous aborts** are raised by HTM-unfriendly instructions
//!   ([`SimCpu::syscall`], [`SimCpu::page_fault`]) and by explicit
//!   [`SimCpu::xabort`].
//! * **PMU interrupts abort transactions** (the paper's Challenge I): a
//!   counter overflow inside a transaction first performs the architectural
//!   rollback — restoring the shadow call stack to its depth at `xbegin` and
//!   recording an abort branch in the LBR — and only then delivers the
//!   sample. A profiler therefore observes exactly what real hardware shows.
//!
//! Aborts surface to software as `Err(`[`TxAbort`]`)` from the failing
//! instruction; user code propagates with `?` and the RTM runtime inspects
//! [`SimCpu::last_abort`] to decide between retry and fallback, like reading
//! the EAX status code after `xbegin`.
//!
//! Transactions do not nest: TSX flattens nested transactions and the RTM
//! runtime layered on top never opens one inside another, so
//! [`SimCpu::xbegin`] simply panics on nesting to catch harness bugs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod cpu;
pub mod directory;
pub mod domain;
pub mod sched;
pub mod status;

pub use cost::CostModel;
pub use cpu::{CpuStats, SimCpu, StmTaken};
pub use domain::{DomainConfig, HtmDomain};
pub use status::{AbortInfo, TxAbort, TxResult, XABORT_LOCK_HELD};

// Re-export the vocabulary users of this crate invariably need.
pub use txsim_mem::{Addr, CacheGeometry, SimMemory, TxHeap};
pub use txsim_pmu::{
    AbortClass, EventKind, Frame, FuncId, FuncRegistry, Ip, SampleSink, SamplingConfig,
};
