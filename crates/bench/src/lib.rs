//! Shared plumbing for the figure/table harness (the `repro` binary):
//! experiment runners that regenerate every table and figure of the
//! paper's evaluation, printing paper-style rows.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod serve;

pub use experiments::*;
