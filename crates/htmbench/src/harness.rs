//! The workload harness: spawns worker threads, each with a simulated CPU,
//! an RTM runtime handle and (optionally) an attached TxSampler collector;
//! runs the workload; gathers ground truth, profiles and timing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::{Counter, Subsystem};
use rtm_runtime::{CmKind, FallbackKind, TmLib, TmThread, Truth};
use txsampler::{merge_profiles, ContentionMap, Profile, SnapshotHub};
use txsim_htm::{CpuStats, DomainConfig, FuncRegistry, HtmDomain, SamplingConfig, SimCpu};

use crate::rng::SmallRng;

/// Configuration of one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of worker threads (the paper evaluates with 14).
    pub threads: usize,
    /// Work multiplier: 100 = the nominal "native input" size. Figures use
    /// 100; unit tests use much smaller values.
    pub scale: u64,
    /// PMU sampling configuration for every worker CPU.
    pub sampling: SamplingConfig,
    /// Attach TxSampler collectors (independent from `sampling` so the
    /// overhead experiment can sample without paying collector cost — and
    /// vice versa).
    pub profile: bool,
    /// Deterministic seed for workload RNGs.
    pub seed: u64,
    /// Domain configuration (memory size, geometry, costs). The harness
    /// always enables cooperative virtual-time scheduling: simulated
    /// contention must not depend on host core count.
    pub domain: DomainConfig,
    /// Live snapshot hub: when set (and `profile` is on), every collector
    /// publishes periodic deltas to it and the run's final profile is the
    /// hub's cumulative snapshot. `None` (the default) keeps the exact
    /// post-mortem path with zero additional work per sample.
    pub hub: Option<Arc<SnapshotHub>>,
    /// Fallback backend the RTM runtime uses when HTM gives up (the
    /// paper's evaluation serializes on a global lock; `stm` and `hle`
    /// exercise the pluggable alternatives).
    pub fallback: FallbackKind,
    /// Contention manager arbitrating software-transaction conflicts.
    /// Only consulted when the fallback path runs software transactions
    /// (`stm` / `adaptive`); HTM-phase runs never invoke it.
    pub cm: CmKind,
}

impl RunConfig {
    /// The paper's evaluation setup: 14 threads, native scale, profiled.
    pub fn paper_default() -> Self {
        RunConfig {
            threads: 14,
            scale: 100,
            sampling: SamplingConfig::txsampler_default(),
            profile: true,
            seed: 0x7c5,
            domain: DomainConfig::default(),
            hub: None,
            fallback: FallbackKind::Lock,
            cm: CmKind::Backoff,
        }
    }

    /// Small and fast, for unit tests: 4 threads, 10% scale, profiled
    /// with dense sampling (short runs need higher rates, §7.1).
    pub fn quick() -> Self {
        RunConfig {
            threads: 4,
            scale: 10,
            sampling: SamplingConfig::dense(),
            profile: true,
            seed: 0x7c5,
            domain: DomainConfig::default(),
            hub: None,
            fallback: FallbackKind::Lock,
            cm: CmKind::Backoff,
        }
    }

    /// Native run: no sampling, no collectors (the Figure 5 baseline).
    pub fn native(mut self) -> Self {
        self.sampling = SamplingConfig::disabled();
        self.profile = false;
        self
    }

    /// Builder: thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: scale.
    pub fn with_scale(mut self, scale: u64) -> Self {
        self.scale = scale;
        self
    }

    /// Builder: seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: attach a live snapshot hub.
    pub fn with_hub(mut self, hub: Arc<SnapshotHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Builder: share a function registry across runs (see
    /// [`DomainConfig::with_funcs`]).
    pub fn with_funcs(mut self, funcs: FuncRegistry) -> Self {
        self.domain.funcs = Some(funcs);
        self
    }

    /// Builder: fallback backend.
    pub fn with_fallback(mut self, fallback: FallbackKind) -> Self {
        self.fallback = fallback;
        self
    }

    /// Builder: contention manager.
    pub fn with_cm(mut self, cm: CmKind) -> Self {
        self.cm = cm;
        self
    }
}

/// Everything a worker thread's closure gets to work with.
pub struct Worker {
    /// The simulated CPU (instruction interface).
    pub cpu: SimCpu,
    /// The RTM runtime handle (`TM_BEGIN`/`TM_END`).
    pub tm: TmThread,
    /// Deterministic per-worker RNG.
    pub rng: SmallRng,
    /// Worker index in `0..threads`.
    pub idx: usize,
    /// Total worker count.
    pub threads: usize,
    /// Scaled work multiplier (`RunConfig::scale`).
    pub scale: u64,
}

impl Worker {
    /// Scale an iteration count by the run's work multiplier
    /// (`n * scale / 100`, at least 1).
    pub fn scaled(&self, n: u64) -> u64 {
        (n * self.scale / 100).max(1)
    }
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Workload name.
    pub name: String,
    /// Host wall-clock duration of the parallel phase (used for the
    /// profiling-overhead experiments: sampling costs host time, not
    /// simulated cycles).
    pub wall: Duration,
    /// Simulated makespan: max over workers of their cycle counts (used for
    /// the speedup experiments: optimizations change simulated work).
    pub makespan_cycles: u64,
    /// Sum of all workers' cycles.
    pub total_cycles: u64,
    /// Merged exact ground truth from the RTM runtime.
    pub truth: Truth,
    /// Summed exact CPU statistics.
    pub stats: CpuStats,
    /// The merged TxSampler profile, when profiling was enabled.
    pub profile: Option<Profile>,
    /// The run's symbol table (shared handle), for resolving profile IPs
    /// to the workload's function names.
    pub funcs: FuncRegistry,
    /// Workload-specific correctness checksum.
    pub checksum: u64,
}

impl RunOutcome {
    /// Abort/commit ratio from ground truth (exact, excludes profiler-
    /// induced and lock-held-elision aborts' effect is included as in the
    /// paper's PMU counters — conflict+capacity+sync+explicit).
    pub fn truth_abort_commit_ratio(&self) -> f64 {
        let t = self.truth.totals();
        if t.htm_commits == 0 {
            return if t.total_aborts() == 0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (t.total_aborts() - t.aborts_interrupt) as f64 / t.htm_commits as f64
    }
}

/// Run a workload: `setup` builds the shared state (allocating from the
/// domain heap), `work` runs on every worker thread concurrently, `verify`
/// computes a checksum after quiescence.
///
/// The domain's memory is untouched zero pages until something stores to
/// it, so `HtmDomain::new` below is cheap at any `memory_bytes`: the host's
/// first-touch page faults land in `setup` (which initializes the shared
/// state) and in the workers, and dropping the domain on return unmaps only
/// the pages those two touched.
pub fn run_workload<S: Sync>(
    name: &str,
    cfg: &RunConfig,
    setup: impl FnOnce(&Arc<HtmDomain>, &RunConfig) -> S,
    work: impl Fn(&mut Worker, &S) + Sync,
    verify: impl FnOnce(&Arc<HtmDomain>, &S) -> u64,
) -> RunOutcome {
    let setup_span = obs::span(Subsystem::Harness, "setup");
    let mut domain_cfg = cfg.domain.clone();
    domain_cfg.cooperative = cfg.threads > 1;
    let domain = HtmDomain::new(domain_cfg);
    let lib = TmLib::with_cm(&domain, 5, cfg.fallback, cfg.cm);
    let contention = Arc::new(ContentionMap::with_defaults(domain.geometry));
    let shared = setup(&domain, cfg);
    drop(setup_span);

    struct WorkerResult {
        cycles: u64,
        truth: Truth,
        stats: CpuStats,
        profile: Option<txsampler::ThreadProfile>,
    }

    let started = Instant::now();
    let start_barrier = std::sync::Barrier::new(cfg.threads);
    let results: Vec<WorkerResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|idx| {
                let domain = Arc::clone(&domain);
                let lib = Arc::clone(&lib);
                let contention = Arc::clone(&contention);
                let shared = &shared;
                let work = &work;
                let start_barrier = &start_barrier;
                let cfg = cfg.clone();
                obs::count(Counter::WorkersSpawned);
                s.spawn(move || {
                    let _worker_span = obs::span(Subsystem::Harness, "worker");
                    let mut cpu = domain.spawn_cpu(cfg.sampling.clone());
                    let mut tm = lib.thread();
                    if cfg.profile {
                        // Latency/retry histograms ride the profile; native
                        // runs keep the detached (single-branch) table.
                        tm.enable_hists();
                    }
                    let handle = if cfg.profile {
                        Some(txsampler::attach_with_hub(
                            &mut cpu,
                            tm.state_handle(),
                            contention,
                            cfg.hub.clone(),
                        ))
                    } else {
                        None
                    };
                    let mut worker = Worker {
                        cpu,
                        tm,
                        rng: SmallRng::seed_from_u64(cfg.seed ^ (idx as u64) << 32 | idx as u64),
                        idx,
                        threads: cfg.threads,
                        scale: cfg.scale,
                    };
                    // All CPUs must be registered with the scheduler before
                    // any thread starts consuming virtual time.
                    start_barrier.wait();
                    work(&mut worker, shared);
                    worker.cpu.retire();
                    // The collector batches into thread-owned state; flush
                    // the residual into the handle's slot before taking it.
                    worker.cpu.flush_sink();
                    let mut profile = handle.map(|h| h.take());
                    if let Some(p) = &mut profile {
                        // Fold the runtime's per-site bookkeeping (backend mix,
                        // histograms, contention-manager interventions) into
                        // the thread profile so both the post-mortem merge and
                        // the hub's residual publish carry it.
                        for (site, record) in worker.tm.take_site_delta() {
                            p.records.entry(site).merge(&record);
                        }
                    }
                    WorkerResult {
                        cycles: worker.cpu.cycles(),
                        truth: worker.tm.truth,
                        stats: *worker.cpu.stats(),
                        profile,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let wall = started.elapsed();

    let mut truth = Truth::default();
    let mut stats = CpuStats::default();
    let mut makespan = 0;
    let mut total_cycles = 0;
    let mut thread_profiles = Vec::new();
    for r in results {
        truth.merge(&r.truth);
        stats.merge(&r.stats);
        makespan = makespan.max(r.cycles);
        total_cycles += r.cycles;
        if let Some(p) = r.profile {
            thread_profiles.push(p);
        }
    }
    let mut profile = match &cfg.hub {
        // Live mode: the collectors already streamed most of their data to
        // the hub; hand it the residual tail deltas, then read the
        // cumulative snapshot back. Note the cumulative profile spans the
        // hub's whole lifetime, which may cover several runs (sustained
        // serving) — exactly what a live dashboard wants.
        Some(hub) if !thread_profiles.is_empty() => {
            for residual in &thread_profiles {
                hub.publish(residual);
            }
            Some(hub.latest().profile)
        }
        _ if thread_profiles.is_empty() => None,
        _ => Some(merge_profiles(thread_profiles)),
    };
    if let Some(p) = &mut profile {
        // Stamp provenance so saved profiles can be diffed with a warning
        // when the runs don't match (different workload or thread count).
        p.meta = txsampler::RunMeta {
            workload: Some(name.to_string()),
            threads: Some(cfg.threads as u32),
            sample_period: Some(p.periods.cycles),
            fallback: Some(cfg.fallback.label().to_string()),
            // For adaptive runs, stamp the final per-backend mix from ground
            // truth: the per-site table is capacity-bounded, truth totals
            // are not.
            mix: (cfg.fallback == FallbackKind::Adaptive).then(|| {
                let t = truth.totals();
                txsampler::BackendMix {
                    lock: t.lock_fallbacks(),
                    stm: t.stm_commits,
                    hle: t.hle_commits,
                    switches: t.backend_switches,
                }
            }),
            // Only STM-capable fallbacks consult the CM; stamping it on
            // HTM-phase runs would imply provenance it cannot have.
            cm: matches!(cfg.fallback, FallbackKind::Stm | FallbackKind::Adaptive)
                .then(|| cfg.cm.label().to_string()),
        };
    }

    let verify_span = obs::span(Subsystem::Harness, "verify");
    let checksum = verify(&domain, &shared);
    assert_eq!(domain.tracked_lines(), 0, "directory must drain");
    drop(verify_span);

    RunOutcome {
        name: name.to_string(),
        wall,
        makespan_cycles: makespan,
        total_cycles,
        truth,
        stats,
        profile,
        funcs: domain.funcs.clone(),
        checksum,
    }
}

/// The outcome of a sustained-load run: how many rounds completed, the
/// total wall time, and the last round's outcome (whose profile, when a
/// hub is attached, is the cumulative snapshot over *all* rounds).
#[derive(Debug)]
pub struct SustainedOutcome {
    /// Rounds fully completed.
    pub rounds: u64,
    /// Wall time across all rounds.
    pub wall: Duration,
    /// The final round's outcome (`None` if zero rounds ran).
    pub last: Option<RunOutcome>,
}

/// Sustained-load driver for live profiling: runs `run` over and over —
/// the long-lived traffic a production profiler attaches to — varying the
/// workload seed every round so contention regimes shift over the
/// execution instead of replaying one deterministic trace. Stops after
/// `rounds` rounds (`0` = unbounded) or as soon as `keep_going` returns
/// false, whichever comes first.
///
/// Pair with [`RunConfig::with_hub`] (and [`RunConfig::with_funcs`], so
/// function ids stay stable across rounds) to watch the cumulative profile
/// evolve through `crates/live` while this drives load.
pub fn run_sustained(
    cfg: &RunConfig,
    rounds: u64,
    keep_going: impl Fn(u64) -> bool,
    run: impl Fn(&RunConfig) -> RunOutcome,
) -> SustainedOutcome {
    let started = Instant::now();
    let mut last = None;
    let mut completed = 0u64;
    while (rounds == 0 || completed < rounds) && keep_going(completed) {
        // Golden-ratio increment: distinct, well-spread seed per round.
        let round_cfg = cfg
            .clone()
            .with_seed(cfg.seed ^ completed.wrapping_mul(0x9e3779b97f4a7c15));
        last = Some(run(&round_cfg));
        completed += 1;
    }
    SustainedOutcome {
        rounds: completed,
        wall: started.elapsed(),
        last,
    }
}
