//! # TxSampler — lightweight sampling-based HTM profiling
//!
//! A Rust reproduction of *Lightweight Hardware Transactional Memory
//! Profiling* (PPoPP 2019). TxSampler profiles programs that use hardware
//! transactional memory via PMU event sampling, overcoming the two hazards
//! that break naive PMU profiling of HTM:
//!
//! 1. **Sampling interrupts abort transactions**, so every sample taken in
//!    a transaction is delivered at the fallback address. TxSampler checks
//!    the abort bit of the newest LBR entry to attribute such samples to
//!    the transactional path (Challenge I, §3.1).
//! 2. **The abort rolls back the call stack**, hiding in-transaction
//!    calling contexts. TxSampler reconstructs them from LBR call/return
//!    records and concatenates them with the unwound stack (Challenge IV,
//!    §3.4, [`callpath`]).
//!
//! On top of the corrected samples it builds:
//!
//! * a **time analysis** (§4): `W = T + S`, `T = T_tx + T_fb + T_wait +
//!   T_oh`, driven by the RTM runtime's state-word extension;
//! * an **abort analysis** (§5): per-site abort weights (Equation 3) and
//!   class ratios (Equation 4) from `RTM_RETIRED:ABORTED` samples;
//! * a **contention analysis** (§3.3, [`contention`]): shadow-memory
//!   true/false-sharing classification of sampled memory accesses;
//! * the **decision tree** (Figure 1, [`decision`]): a structured diagnosis
//!   with rule-of-thumb optimization advice;
//! * text **reports** ([`report`]): the calling-context view of Figure 9,
//!   decomposition bars of Figure 7, per-thread histograms.
//!
//! ## Typical harness
//!
//! ```
//! use std::sync::Arc;
//! use rtm_runtime::TmLib;
//! use txsim_htm::{HtmDomain, SamplingConfig};
//! use txsampler::{attach, merge_profiles, ContentionMap};
//!
//! let domain = HtmDomain::with_defaults();
//! let lib = TmLib::new(&domain);
//! let counter = domain.heap.alloc_words(1);
//! let contention = Arc::new(ContentionMap::with_defaults(domain.geometry));
//!
//! // One worker thread (usually many, via std::thread::scope):
//! let mut cpu = domain.spawn_cpu(SamplingConfig::txsampler_default());
//! let mut tm = lib.thread();
//! let handle = attach(&mut cpu, tm.state_handle(), Arc::clone(&contention));
//! for _ in 0..100_000 {
//!     tm.critical_section(&mut cpu, 1, |cpu| cpu.rmw(2, counter, |v| v + 1).map(|_| ()));
//! }
//! drop(cpu);
//!
//! let profile = merge_profiles(vec![handle.take()]);
//! assert!(profile.samples > 0);
//! let diagnosis = txsampler::diagnose(&profile, &Default::default());
//! let view = txsampler::ProfileView::from_registry(&profile, &domain.funcs);
//! println!("{}", txsampler::report::render_diagnosis(&diagnosis, &view));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod callpath;
pub mod cct;
pub mod cct_ref;
pub mod collect;
pub mod contention;
pub mod decision;
pub mod diff;
pub mod imbalance;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod store;
pub mod view;

pub use analyze::{characterize, characterize_profile, merge_profiles, ProgramType};
pub use callpath::{reconstruct_tx_path, reconstruct_tx_path_into, TxCallPath};
pub use cct::{Cct, NodeKey};
pub use collect::{
    attach, attach_with_hub, Collector, CollectorHandle, DeltaKind, DeltaView, EpochSummary,
    SnapshotHub, SnapshotPolicy, SnapshotView, TrendView,
};
pub use contention::{ContentionMap, Sharing};
pub use decision::{diagnose, Diagnosis, Suggestion, Thresholds};
pub use diff::{diff_profiles, render_diff, render_totals_diff, ProfileDiff};
pub use imbalance::{detect_imbalance, Imbalance, ImbalanceKind};
pub use metrics::{BackendMix, Metrics, TimeComponent};
pub use profile::{
    AbortClassRow, Periods, Profile, RunMeta, ThreadProfile, TimeBreakdown, TimeComponentRow,
    ABORT_CLASSES, TIME_COMPONENTS,
};
pub use rtm_runtime::{CmKind, CmStats, Hist32, SiteHists, SiteMap, SiteRecord, HIST_BUCKETS};
pub use view::{NameSource, ProfileView};
