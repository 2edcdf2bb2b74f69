//! The simulated part of every workload: a fixed list of HTMBench
//! programs, each run native and again profiled, through the registry's
//! public `Spec::run`.

use std::sync::Arc;
use std::time::Instant;

use htmbench::harness::{RunConfig, RunOutcome};
use htmbench::registry::Spec;
use rtm_runtime::{CmKind, FallbackKind, SiteTruth};
use txsampler::collect::{SnapshotHub, SnapshotPolicy};
use txsampler::Profile;
use txsim_htm::{CpuStats, DomainConfig, EventKind, FuncRegistry, SamplingConfig};

use crate::run::Recorder;

/// One program of a workload, with everything that fixes its work.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub program: &'static str,
    /// `RunConfig::scale` (100 = the program's nominal input).
    pub scale: u64,
    pub fallback: FallbackKind,
    pub cm: CmKind,
}

const fn lock(program: &'static str, scale: u64) -> Case {
    Case {
        program,
        scale,
        fallback: FallbackKind::Lock,
        cm: CmKind::Backoff,
    }
}

/// How a workload simulates: thread count, sampling, hub, memory, cases.
#[derive(Debug, Clone)]
pub struct SimPlan {
    pub threads: usize,
    pub sampling: SamplingConfig,
    /// Publish collector deltas to a `SnapshotHub` every this many samples.
    pub hub_every: Option<u64>,
    /// Simulated memory per run (each run zero-fills it).
    pub memory_bytes: u64,
    pub cases: Vec<Case>,
}

/// Scales are chosen so each native run simulates 25-50 ms of host time on
/// the 2-core reference host: long enough to time, short enough that a
/// round (every case native and profiled) takes about two seconds, most of
/// which is each run's 256 MiB `SimMemory` zero-fill.
pub const SOLO_CASES: &[Case] = &[
    lock("stamp/vacation", 300),
    lock("stamp/kmeans", 250),
    lock("synchro/skiplist", 25),
    lock("parboil/histo", 100),
    lock("leveldb", 250),
    lock("micro/capacity", 150),
    lock("micro/nested_calls", 250),
];

pub const DUO_CASES: &[Case] = &[
    lock("micro/true_sharing", 12),
    lock("stamp/intruder", 12),
    lock("leveldb", 8),
    lock("parsec2/dedup", 15),
    Case {
        program: "micro/mixed_phase",
        scale: 40,
        fallback: FallbackKind::Adaptive,
        cm: CmKind::Backoff,
    },
    Case {
        program: "micro/true_sharing",
        scale: 3,
        fallback: FallbackKind::Stm,
        cm: CmKind::Karma,
    },
    Case {
        program: "kyotocabinet",
        scale: 20,
        fallback: FallbackKind::Hle,
        cm: CmKind::Backoff,
    },
];

pub const STORM_CASES: &[Case] = &[
    lock("micro/nested_calls", 200),
    lock("micro/false_sharing", 200),
    lock("stamp/vacation", 200),
    lock("synchro/skiplist", 30),
];

/// The twelve programs behind `profile_io`'s fleet-sized profile: the
/// registry programs whose profiles have the most calling contexts.
pub const CORPUS_CASES: &[Case] = &[
    lock("parsec2/dedup", 80),
    lock("micro/nested_calls", 50),
    lock("micro/mixed_phase", 150),
    lock("synchro/linkedlist", 10),
    lock("avltree", 150),
    lock("leveldb", 50),
    lock("synchro/skiplist", 5),
    lock("stamp/yada", 20),
    lock("stamp/intruder", 20),
    lock("stamp/labyrinth", 80),
    lock("parsec3/netdedup", 60),
    lock("stamp/vacation", 60),
];

/// The paper-default memory of a simulated machine.
pub const DEFAULT_MEMORY: u64 = 256 << 20;
/// `profile_io` generates its corpus every round as set-up; a half-size
/// machine keeps the 24 runs that takes affordable. The corpus is the
/// benchmark's input, not the system under test.
pub const CORPUS_MEMORY: u64 = 128 << 20;

/// `--smoke` machines: a sixteenth of the default memory.
pub const SMOKE_MEMORY: u64 = 16 << 20;

/// High-frequency sampling: makes the sampling path the majority of the
/// profiled-minus-native difference.
pub fn storm_sampling() -> SamplingConfig {
    SamplingConfig::txsampler_default()
        .with_period(EventKind::Cycles, Some(400))
        .with_period(EventKind::MemLoad, Some(101))
        .with_period(EventKind::MemStore, Some(101))
        .with_period(EventKind::TxCommit, Some(3))
        .with_period(EventKind::TxAbort, Some(1))
}

impl SimPlan {
    pub fn solo() -> SimPlan {
        SimPlan {
            threads: 1,
            sampling: SamplingConfig::txsampler_default(),
            hub_every: None,
            memory_bytes: DEFAULT_MEMORY,
            cases: SOLO_CASES.to_vec(),
        }
    }

    pub fn duo() -> SimPlan {
        SimPlan {
            threads: 2,
            cases: DUO_CASES.to_vec(),
            ..SimPlan::solo()
        }
    }

    pub fn storm(hub_every: u64) -> SimPlan {
        SimPlan {
            sampling: storm_sampling(),
            hub_every: Some(hub_every),
            cases: STORM_CASES.to_vec(),
            ..SimPlan::solo()
        }
    }

    pub fn corpus() -> SimPlan {
        SimPlan {
            sampling: storm_sampling(),
            memory_bytes: CORPUS_MEMORY,
            cases: CORPUS_CASES.to_vec(),
            ..SimPlan::solo()
        }
    }

    /// `--smoke`: the same programs at about a twentieth of the work —
    /// scale and simulated memory (whose zero-fill is most of a run) alike.
    pub fn smoke(mut self) -> SimPlan {
        for case in &mut self.cases {
            case.scale = (case.scale / 20).max(1);
        }
        self.memory_bytes = SMOKE_MEMORY;
        self
    }

    pub fn new_hub(&self) -> Option<Arc<SnapshotHub>> {
        self.hub_every
            .map(|n| SnapshotHub::new(SnapshotPolicy::EverySamples(n)))
    }

    /// One line per case, for the provenance block.
    pub fn describe(&self) -> Vec<String> {
        self.cases
            .iter()
            .map(|c| {
                format!(
                    "{}@scale={},fallback={},cm={}",
                    c.program,
                    c.scale,
                    c.fallback.label(),
                    c.cm.label()
                )
            })
            .collect()
    }
}

/// What one `Spec::run` call produced, reduced to what the metrics need.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Host time of the whole call, set-up and merge included.
    pub elapsed_s: f64,
    /// Host time of the parallel phase (`RunOutcome::wall`).
    pub wall_s: f64,
    pub cycles: u64,
    pub checksum: u64,
    pub stats: CpuStats,
    pub truth: SiteTruth,
}

impl RunRecord {
    fn of(elapsed_s: f64, out: &RunOutcome) -> RunRecord {
        RunRecord {
            elapsed_s,
            wall_s: out.wall.as_secs_f64(),
            cycles: out.total_cycles,
            checksum: out.checksum,
            stats: out.stats,
            truth: out.truth.totals(),
        }
    }
}

/// One case of one pass: the native run, the profiled run, and what the
/// profiler attributed to it.
#[derive(Debug, Clone)]
pub struct CaseRecord {
    pub native: RunRecord,
    pub profiled: RunRecord,
    /// PMU samples attributed during the profiled run.
    pub samples: u64,
    /// `Profile::estimated_commits` for the profiled run.
    pub est_commits: u64,
    /// Of `samples`, the memory-event ones (loads and stores).
    pub mem_samples: u64,
}

/// All cases of a plan run once, plus the merged profile of the pass.
pub struct PassOutcome {
    pub cases: Vec<CaseRecord>,
    /// Every profiled run of the pass merged into one profile.
    pub product: Profile,
    /// The first half of the cases merged (the "before" side of the diff).
    pub half: Profile,
    /// Sampling period of the memory events (to scale `mem_samples`).
    pub mem_period: u64,
}

/// Sample counts of a profile that `Profile::samples` lumps together.
fn mem_samples_of(p: &Profile) -> u64 {
    let t = p.totals();
    p.samples
        .saturating_sub(t.w + t.commit_samples + t.abort_samples + p.interrupt_abort_samples)
}

/// Look a program up in the registry.
pub fn find_spec<'a>(specs: &'a [Spec], program: &str) -> &'a Spec {
    specs
        .iter()
        .find(|s| s.name == program)
        .unwrap_or_else(|| panic!("program {program} is not in the htmbench registry"))
}

/// Run every case of `plan` native and profiled. `hub`, when given, is
/// attached to every profiled run (its cumulative snapshot is then the
/// pass's product). The seed reaches the programs only through
/// `RunConfig::with_seed`.
pub fn run_pass(
    plan: &SimPlan,
    specs: &[Spec],
    funcs: &FuncRegistry,
    seed: u64,
    hub: Option<&Arc<SnapshotHub>>,
    rec: &mut Recorder,
) -> PassOutcome {
    let mut cases = Vec::with_capacity(plan.cases.len());
    let mut product = Profile::default();
    let mut half = Profile::default();
    // With a hub the per-run profile is cumulative; per-case figures are
    // differences against the previous reading.
    let (mut prev_samples, mut prev_est, mut prev_mem) = (0u64, 0u64, 0u64);
    let mut mem_period = 1;
    for (index, case) in plan.cases.iter().enumerate() {
        let spec = find_spec(specs, case.program);
        let mut base = RunConfig::paper_default()
            .with_threads(plan.threads)
            .with_scale(case.scale)
            .with_seed(seed)
            .with_fallback(case.fallback)
            .with_cm(case.cm)
            .with_funcs(funcs.clone());
        base.domain = DomainConfig {
            memory_bytes: plan.memory_bytes,
            ..base.domain
        };
        base.sampling = plan.sampling.clone();
        let native_cfg = base.clone().native();
        let profiled_cfg = match hub {
            Some(hub) => base.with_hub(Arc::clone(hub)),
            None => base,
        };

        let native = rec.scope("run.native", |_| {
            let started = Instant::now();
            let out = (spec.run)(&native_cfg);
            RunRecord::of(started.elapsed().as_secs_f64(), &out)
        });
        rec.drain_obs_spans();
        let (profiled, profile) = rec.scope("run.profiled", |_| {
            let started = Instant::now();
            let mut out = (spec.run)(&profiled_cfg);
            let record = RunRecord::of(started.elapsed().as_secs_f64(), &out);
            (
                record,
                out.profile.take().expect("profiled run returns a profile"),
            )
        });
        rec.drain_obs_spans();

        mem_period = profile.periods.mem;
        let (samples, est, mem) = (
            profile.samples,
            profile.estimated_commits(),
            mem_samples_of(&profile),
        );
        let record = if hub.is_some() {
            let r = CaseRecord {
                native,
                profiled,
                samples: samples.saturating_sub(prev_samples),
                est_commits: est.saturating_sub(prev_est),
                mem_samples: mem.saturating_sub(prev_mem),
            };
            (prev_samples, prev_est, prev_mem) = (samples, est, mem);
            if index + 1 == plan.cases.len().div_ceil(2) {
                half = profile.clone();
            }
            product = profile;
            r
        } else {
            rec.timed("profile.absorb", || {
                product.absorb_profile(&profile, index * 64)
            });
            if index < plan.cases.len().div_ceil(2) {
                half.absorb_profile(&profile, index * 64);
            }
            CaseRecord {
                native,
                profiled,
                samples,
                est_commits: est,
                mem_samples: mem,
            }
        };
        cases.push(record);
    }
    PassOutcome {
        cases,
        product,
        half,
        mem_period,
    }
}

/// FNV-1a over the simulated statistics of a pass's native runs. Equal
/// digests mean the simulator did exactly the same simulated work.
pub fn sim_digest(cases: &[CaseRecord]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for case in cases {
        let s = &case.native.stats;
        for v in [
            case.native.cycles,
            case.native.checksum,
            s.tx_begins,
            s.commits,
            s.aborts_conflict,
            s.aborts_capacity,
            s.aborts_sync,
            s.aborts_explicit,
            s.aborts_interrupt,
            s.aborts_validation,
            s.stm_commits,
        ] {
            eat(v);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_names_a_registered_program() {
        let specs = htmbench::all();
        for case in SOLO_CASES
            .iter()
            .chain(DUO_CASES)
            .chain(STORM_CASES)
            .chain(CORPUS_CASES)
        {
            assert_eq!(find_spec(&specs, case.program).name, case.program);
        }
        assert_eq!(CORPUS_CASES.len(), 12);
    }

    #[test]
    fn smoke_divides_scales_and_keeps_programs() {
        let full = SimPlan::solo();
        let smoke = SimPlan::solo().smoke();
        assert_eq!(full.cases.len(), smoke.cases.len());
        for (f, s) in full.cases.iter().zip(&smoke.cases) {
            assert_eq!(f.program, s.program);
            assert_eq!(s.scale, (f.scale / 20).max(1));
        }
        assert_eq!(smoke.memory_bytes, SMOKE_MEMORY);
    }
}
