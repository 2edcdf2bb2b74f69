//! Per-layer kernels: tight loops over one public function of one layer,
//! timed from outside. Each kernel reports ns/op (or ms/op) as the median
//! of [`REPEATS`] repeats, with min and MAD kept for the detail report.
//!
//! Kernels build their own small fixtures, in a fixed order, after the
//! workload's rounds have finished — they never share state with a
//! workload, so their numbers are the same whichever workload ran before.

mod machine;
pub use machine::COMPUTE_CYCLES;
mod profiler;
mod runtime;

use std::time::{Duration, Instant};

use crate::stats::{summarize, Summary};

/// Timed repeats per kernel (one more, untimed, warms up).
pub const REPEATS: usize = 9;
/// The same under `--smoke`.
pub const SMOKE_REPEATS: usize = 3;

/// One kernel's result.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: &'static str,
    pub unit: &'static str,
    /// Per-operation cost over the repeats, in `unit`.
    pub summary: Summary,
}

/// Collects kernel results in the order the kernels ran.
#[derive(Debug)]
pub struct Kernels {
    pub results: Vec<Kernel>,
    pub repeats: usize,
}

impl Default for Kernels {
    fn default() -> Kernels {
        Kernels {
            results: Vec::new(),
            repeats: REPEATS,
        }
    }
}

impl Kernels {
    /// Run `batch` — which performs `ops` operations and returns the time
    /// they took — once to warm up and `repeats` times for the record.
    pub fn ns_per_op(&mut self, name: &'static str, ops: u64, mut batch: impl FnMut() -> Duration) {
        batch();
        let samples: Vec<f64> = (0..self.repeats)
            .map(|_| batch().as_nanos() as f64 / ops as f64)
            .collect();
        self.results.push(Kernel {
            name,
            unit: "ns",
            summary: summarize(&samples),
        });
    }

    /// Like [`Kernels::ns_per_op`] for operations that take milliseconds.
    pub fn ms_per_op(&mut self, name: &'static str, mut op: impl FnMut() -> Duration) {
        op();
        let samples: Vec<f64> = (0..self.repeats)
            .map(|_| op().as_secs_f64() * 1e3)
            .collect();
        self.results.push(Kernel {
            name,
            unit: "ms",
            summary: summarize(&samples),
        });
    }

    /// Record a value computed from other kernels' medians.
    pub fn derived(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.results.push(Kernel {
            name,
            unit,
            summary: summarize(&[value]),
        });
    }

    /// Median of a kernel that already ran (0 when it did not).
    pub fn median(&self, name: &str) -> f64 {
        self.results
            .iter()
            .find(|k| k.name == name)
            .map_or(0.0, |k| k.summary.median)
    }
}

/// Time `n` iterations of `f`.
pub fn time_loop(n: u64, mut f: impl FnMut(u64)) -> Duration {
    let started = Instant::now();
    for i in 0..n {
        f(i);
    }
    started.elapsed()
}

/// Run every kernel. `smoke` repeats each kernel [`SMOKE_REPEATS`] times
/// and cuts the two kernels that zero-fill 256 MiB to a tenth of the memory
/// (reported as measured, so smoke numbers for those two are not comparable
/// with full runs).
pub fn run_all(smoke: bool) -> Kernels {
    let mut k = Kernels {
        results: Vec::new(),
        repeats: if smoke { SMOKE_REPEATS } else { REPEATS },
    };
    machine::memory(&mut k, smoke);
    machine::directory(&mut k);
    machine::scheduler(&mut k);
    machine::cpu(&mut k);
    machine::pmu(&mut k);
    runtime::rtm(&mut k);
    runtime::stm(&mut k);
    profiler::collector(&mut k);
    profiler::hub(&mut k);
    profiler::obs_cost(&mut k);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_kernel_reports_the_median_of_its_repeats() {
        let mut k = Kernels::default();
        let mut calls = 0u64;
        k.ns_per_op("test.kernel_ns", 1000, || {
            calls += 1;
            Duration::from_nanos(1000 * calls)
        });
        // Warm-up consumed call 1; repeats are calls 2..=10 → 2..=10 ns/op.
        assert_eq!(calls, 1 + REPEATS as u64);
        assert_eq!(k.median("test.kernel_ns"), 6.0);
        assert_eq!(k.results[0].summary.min, 2.0);
        assert_eq!(k.median("absent"), 0.0);
    }
}
