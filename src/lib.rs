//! Umbrella crate for the TxSampler reproduction workspace.
//!
//! Re-exports every layer so examples and integration tests can depend on a
//! single crate. Library users should depend on the individual crates
//! (`txsampler`, `rtm-runtime`, `txsim-htm`, …) directly.

#![forbid(unsafe_code)]

pub use htmbench;
pub use rtm_runtime;
pub use txbench;
pub use txsampler;
pub use txsim_htm;
pub use txsim_mem;
pub use txsim_pmu;
