//! # HTMBench — a suite of 30+ HTM workloads on the simulated TSX machine
//!
//! The paper's fourth contribution is HTMBench, a curated set of more than
//! thirty programs ported to Intel TSX. This crate reproduces it on the
//! simulator: TM benchmark suites (STAMP, CLOMP-TM), multithreaded suites
//! (PARSEC, Parboil, NPB, SPLASH2, Synchrobench, SSCA2), and applications
//! (LevelDB, B+ tree, key-value stores…), plus the microbenchmarks used to
//! validate TxSampler's correctness (§7.2).
//!
//! Each workload runs on the [`harness`]: worker threads own simulated
//! CPUs, execute critical sections through the RTM runtime, and optionally
//! carry TxSampler collectors; the harness returns exact ground truth,
//! wall/virtual timing and the merged profile. Every program whose case
//! study or Table 2 row names an optimization also ships the *optimized*
//! variant, so the speedup experiments regenerate.
//!
//! ```
//! use htmbench::harness::RunConfig;
//! use htmbench::micro;
//!
//! let out = micro::true_sharing(&RunConfig::quick());
//! assert!(out.truth.totals().aborts_conflict > 0);
//! let profile = out.profile.expect("profiling enabled in quick config");
//! assert!(profile.samples > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod clomp;
pub mod dedup;
pub mod harness;
pub mod histo;
pub mod kvstores;
pub mod leveldb;
pub mod lists;
pub mod micro;
pub mod registry;
pub mod rng;
pub mod stamp;

pub use harness::{run_workload, RunConfig, RunOutcome, Worker};
pub use registry::{all, optimization_pairs, stamp_subset, OptimizationPair, Spec};
