//! The RTM runtime library: lock-elided critical sections (`TM_BEGIN` /
//! `TM_END`) with the paper's profiler-facing state extension.
//!
//! This is the library the paper adapts from Yoo et al. and extends with
//! ~21 lines (§3.2, §6): a critical section first attempts hardware
//! transactions (after waiting for the global fallback lock to be free),
//! retries transient aborts up to a budget, and finally falls back to
//! acquiring the global lock and running the same user code
//! non-speculatively. Throughout, a thread-private state word records which
//! component is executing — `inCS`, `inHTM`, `inFallback`, `inLockWaiting`,
//! `inOverhead` — and a query function exposes it to profilers.
//!
//! ```
//! use txsim_htm::{HtmDomain, SamplingConfig};
//! use rtm_runtime::TmLib;
//!
//! let domain = HtmDomain::with_defaults();
//! let lib = TmLib::new(&domain);
//! let counter = domain.heap.alloc_words(1);
//!
//! let mut cpu = domain.spawn_cpu(SamplingConfig::disabled());
//! let mut tm = lib.thread();
//! for _ in 0..10 {
//!     tm.critical_section(&mut cpu, 42, |cpu| {
//!         cpu.rmw(43, counter, |v| v + 1)?;
//!         Ok(())
//!     });
//! }
//! assert_eq!(domain.mem.load(counter), 10);
//! assert_eq!(tm.truth.totals().htm_commits + tm.truth.totals().fallbacks, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cm_stats;
pub mod hist;
pub mod hle;
pub mod site_record;
pub mod sites;
pub mod slots;
pub mod state;
pub mod truth;

use std::sync::Arc;

use obs::{Counter, Subsystem};
use txsim_htm::{AbortInfo, Addr, FuncId, HtmDomain, Ip, SimCpu, TxResult, XABORT_LOCK_HELD};
use txsim_pmu::AbortClass;
use txstm::cm::{make_cm, ContentionManager, TxCm};
use txstm::Tl2;

pub use backend::{FallbackKind, GATE_EXCLUSIVE};
pub use cm_stats::{CmEvent, CmStats, CmTable, CM_SITE_CAPACITY};
pub use hist::{Hist32, HistTable, SiteHists, HIST_BUCKETS, HIST_SITE_CAPACITY};
pub use hle::HleLock;
pub use site_record::{BackendMix, SiteMap, SiteRecord};
pub use sites::{AdaptivePolicy, SitePlan, SiteSnapshot, SiteTable, SITE_CAPACITY};
pub use slots::SiteSlots;
pub use state::{
    StateFlags, ThreadState, IN_CS, IN_FALLBACK, IN_HTM, IN_LOCK_WAITING, IN_OVERHEAD, IN_STM,
};
pub use truth::{SiteTruth, Truth};
pub use txstm::cm::{CmKind, DEFAULT_ESCALATE_AFTER};

/// Global (per-domain) RTM library state: the elided fallback lock and the
/// retry policy.
pub struct TmLib {
    /// Address of the global fallback lock word, alone on its cache line.
    lock_addr: Addr,
    /// The runtime's own symbol: `TM_END` returns through library code,
    /// whose (non-transactional) call/return branches appear in the LBR
    /// and delimit one transaction's in-tsx records from the next — the
    /// profiler's reconstruction depends on that boundary.
    f_tm_end: FuncId,
    /// Transient aborts tolerated before taking the fallback path.
    /// The paper's evaluation uses 5.
    pub max_retries: u32,
    /// How fallbacks complete (see [`backend`]).
    fallback: FallbackKind,
    /// The contention manager (see [`txstm::cm`]). Consulted by the STM
    /// flavour too; the section-begin and completion hooks run here so
    /// karma earned on the fallback path is reset exactly once per section.
    cm: Arc<dyn ContentionManager>,
    /// The TL2 engine, gated on the lock word; built for the kinds that
    /// can run software transactions (`stm`, `adaptive`).
    tl2: Option<Tl2>,
}

impl TmLib {
    /// Create the library for a domain with the paper's setup: a retry
    /// budget of 5 and the `lock` fallback.
    pub fn new(domain: &Arc<HtmDomain>) -> Arc<TmLib> {
        TmLib::with_cm(domain, 5, FallbackKind::Lock, CmKind::Backoff)
    }

    /// Fully explicit construction: retry budget, fallback kind, and
    /// contention manager. Allocates the global lock word on its own cache
    /// line (the lock must not false-share with user data — every
    /// transaction reads it). The CM only influences software
    /// transactions: under `lock`/`hle` fallbacks it never intervenes (no
    /// karma is ever earned).
    pub fn with_cm(
        domain: &Arc<HtmDomain>,
        max_retries: u32,
        kind: FallbackKind,
        cm_kind: CmKind,
    ) -> Arc<TmLib> {
        let lock_addr = domain.heap.alloc_padded(8, domain.geometry.line_bytes);
        let runs_stm = matches!(kind, FallbackKind::Stm | FallbackKind::Adaptive);
        Arc::new(TmLib {
            lock_addr,
            f_tm_end: domain.funcs.intern("TM_END", "rtm_runtime.rs", 1),
            max_retries,
            fallback: kind,
            cm: make_cm(cm_kind),
            tl2: runs_stm.then(|| Tl2::new(domain, lock_addr)),
        })
    }

    /// Address of the global lock word (tests and diagnostics).
    pub fn lock_addr(&self) -> Addr {
        self.lock_addr
    }

    /// The configured fallback kind.
    pub fn fallback_kind(&self) -> FallbackKind {
        self.fallback
    }

    /// The configured contention manager's kind.
    pub fn cm_kind(&self) -> CmKind {
        self.cm.kind()
    }

    /// Create the per-thread runtime handle. Threads of an adaptive
    /// library get a live (fixed-capacity, thread-private) [`SiteTable`];
    /// static libraries hand out the zero-capacity detached table, so the
    /// per-site machinery costs one branch per hook.
    pub fn thread(self: &Arc<Self>) -> TmThread {
        let sites = match self.fallback {
            FallbackKind::Adaptive => SiteTable::new(AdaptivePolicy::DEFAULT, self.max_retries),
            _ => SiteTable::detached(),
        };
        TmThread {
            lib: Arc::clone(self),
            state: ThreadState::new(),
            truth: Truth::default(),
            sites,
            hists: HistTable::detached(),
            cm_stats: CmTable::new(),
            cm_tx: TxCm::default(),
            fb_attempts: 0,
        }
    }
}

/// Per-thread runtime state: the state word and ground-truth counters.
pub struct TmThread {
    lib: Arc<TmLib>,
    pub(crate) state: ThreadState,
    /// Exact per-site instrumentation (validation only — see [`truth`]).
    pub truth: Truth,
    /// Per-site adaptive statistics (live only under the adaptive backend).
    pub sites: SiteTable,
    /// Per-site latency/retry-depth histograms (detached — one branch per
    /// section — until a profiling harness calls [`TmThread::enable_hists`]).
    pub hists: HistTable,
    /// Per-site contention-management interventions (yields, stalls,
    /// escalations, priority aborts). Only the contended slow path writes
    /// here.
    pub cm_stats: CmTable,
    /// The running section's contention-management state (karma).
    pub(crate) cm_tx: TxCm,
    /// Software attempts the current fallback execution made (set by the
    /// backend): the STM reports its commit attempts so the retry-depth
    /// histogram sees software starvation, not just the hardware budget.
    pub(crate) fb_attempts: u32,
}

impl TmThread {
    /// Handle to this thread's state word for the profiler — the paper's
    /// proposed runtime extension (`GetState()`).
    pub fn state_handle(&self) -> ThreadState {
        self.state.clone()
    }

    /// Attach the per-site histogram table. Called by profiling harnesses;
    /// without it every completion pays exactly one branch and stores
    /// nothing (the zero-cost-when-detached contract).
    pub fn enable_hists(&mut self) {
        self.hists = HistTable::new();
    }

    /// Drain what the three per-site tables accumulated since the last
    /// call, one [`SiteRecord`] per site in `(func, line)` order. Profiling
    /// harnesses fold this into the thread's profile.
    pub fn take_site_delta(&mut self) -> Vec<(Ip, SiteRecord)> {
        let mut delta = SiteMap::default();
        for snap in self.sites.take_delta() {
            delta.entry(snap.site).mix = snap.mix();
        }
        for (site, hists) in self.hists.take_delta() {
            delta.entry(site).hists = hists;
        }
        for (site, cm) in self.cm_stats.take_delta() {
            delta.entry(site).cm = cm;
        }
        delta
            .sorted()
            .into_iter()
            .map(|(site, record)| (site, *record))
            .collect()
    }

    /// Execute `body` as a critical section beginning at source `line`
    /// (`TM_BEGIN` … `TM_END`).
    ///
    /// The same `body` runs on the HTM path — where any simulated
    /// instruction may abort, surfacing as `Err` which `body` propagates —
    /// and on the fallback path, where instructions never fail. Aborted
    /// attempts discard their memory writes, so re-running the body is the
    /// standard transactional contract.
    pub fn critical_section<T>(
        &mut self,
        cpu: &mut SimCpu,
        line: u32,
        mut body: impl FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        let lock = self.lib.lock_addr;
        let site = Ip::new(cpu.cur_ip().func, line);
        self.state.set(IN_CS | IN_OVERHEAD);
        // Histogram bookkeeping: plain reads of the virtual cycle counter
        // and a thread-local attempt count — no simulated instructions, no
        // shared-cacheline writes, and `hists.record` is one branch when
        // the table is detached.
        let started = cpu.cycles();
        let mut attempts = 0u32;
        let mut fb_dwell = None;

        // Per-site plan: under the adaptive backend the retry budget (and
        // whether to speculate at all) comes from this site's own abort
        // history; static backends keep the library-wide budget.
        let plan = if self.sites.is_adaptive() {
            self.sites.plan(site)
        } else {
            SitePlan {
                max_retries: self.lib.max_retries,
                attempt_htm: true,
            }
        };
        if !plan.attempt_htm {
            // The site's evidence says every attempt dies on a
            // non-transient abort: skip the doomed speculation and its
            // wasted abort cycles, go straight to the fallback path.
            if let Some(iv) = self.lib.cm.on_begin(cpu, line, &mut self.cm_tx) {
                self.cm_stats.note(site, CmEvent::from(iv));
            }
            let fb_start = cpu.cycles();
            let v = self.run_fallback(cpu, line, lock, site, &mut body);
            let done = cpu.cycles();
            self.hists.record(
                site,
                done - started,
                self.fb_attempts,
                Some(done - fb_start),
            );
            self.lib.cm.on_commit(&mut self.cm_tx);
            self.state.set(0);
            return v;
        }

        let mut retries = 0u32;
        let value = loop {
            // Contention-management begin hook, consulted before *every*
            // attempt: a transaction outranked on the karma board spends a
            // bounded politeness window here instead of racing a starving
            // peer's validation — mid-section, a struggling hammer parks
            // as soon as the victim's bid goes up. Costs zero simulated
            // cycles when the manager does not intervene (the
            // single-thread parity contract).
            if let Some(iv) = self.lib.cm.on_begin(cpu, line, &mut self.cm_tx) {
                self.cm_stats.note(site, CmEvent::from(iv));
            }

            // Fast path: wait (outside the transaction) for the lock to be
            // free, then speculate.
            self.wait_lock_free(cpu, line, lock);

            self.state.set(IN_CS | IN_OVERHEAD);
            attempts += 1;
            obs::count(Counter::RtmHtmAttempts);
            match self.elide(cpu, line, lock, &mut body) {
                Ok(v) => {
                    self.state.set(IN_CS | IN_OVERHEAD);
                    // TM_END cleanup runs in (and returns through) the
                    // runtime library; its branches delimit this
                    // transaction's LBR records from the next one's.
                    cpu.call(line, self.lib.f_tm_end).expect("outside tx");
                    cpu.ret().expect("outside tx");
                    self.truth.commit(site);
                    self.sites.note_commit(site);
                    break v;
                }
                Err(_) => {
                    self.state.set(IN_CS | IN_OVERHEAD);
                    let info = cpu.last_abort().expect("abort must record status");
                    self.record_abort(site, info);
                    // Priority accounting: the rolled-back cycles are work
                    // done, and a karma-style manager turns them into rank.
                    self.lib
                        .cm
                        .on_htm_abort(&mut self.cm_tx, info.weight, attempts);

                    let lock_held_elision = info.class == AbortClass::Explicit
                        && info.explicit_code == XABORT_LOCK_HELD;
                    if lock_held_elision {
                        // Not a data pathology: loop back to waiting without
                        // burning retry budget (standard elision practice).
                        continue;
                    }
                    if info.retry_hint && retries < plan.max_retries {
                        retries += 1;
                        obs::count(Counter::RtmRetries);
                        continue;
                    }
                    // Persistent abort (capacity/sync/explicit) or budget
                    // exhausted: take the slow path.
                    let fb_start = cpu.cycles();
                    let v = self.run_fallback(cpu, line, lock, site, &mut body);
                    fb_dwell = Some(cpu.cycles() - fb_start);
                    break v;
                }
            }
        };
        // Retry depth at completion: HTM attempts (including lock-held
        // elision waits) plus the fallback's software attempts when it ran
        // (one for the serial backends; the STM reports its commit
        // attempts, so software starvation shows in the same histogram).
        self.hists.record(
            site,
            cpu.cycles() - started,
            attempts
                + if fb_dwell.is_some() {
                    self.fb_attempts
                } else {
                    0
                },
            fb_dwell,
        );

        // Completion hook: reset karma, withdraw any published bid.
        self.lib.cm.on_commit(&mut self.cm_tx);
        self.state.set(0);
        value
    }

    /// Execute `body` under the global lock *without* attempting HTM —
    /// models a conventional (non-elided) lock acquisition, like the AVL
    /// tree's pthread read lock in §7.3/Table 2. Holding the lock aborts
    /// every concurrently speculating peer (the elision read subscribes
    /// them to the lock word), so this serializes the world.
    ///
    /// Always takes the exclusive (lock-style) path regardless of the
    /// configured fallback backend: this models a conventional pthread
    /// lock acquisition, not a fallback policy decision.
    pub fn locked_section<T>(
        &mut self,
        cpu: &mut SimCpu,
        line: u32,
        mut body: impl FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        let lock = self.lib.lock_addr;
        let site = Ip::new(cpu.cur_ip().func, line);
        self.state.set(IN_CS | IN_OVERHEAD);
        obs::count(Counter::RtmFallbacks);
        let _span = obs::span(Subsystem::Runtime, "fallback");
        let v = self.serialize(cpu, line, lock, GATE_EXCLUSIVE, site, &mut body);
        self.state.set(0);
        v
    }

    /// Spin outside the transaction until the global lock reads free.
    fn wait_lock_free(&mut self, cpu: &mut SimCpu, line: u32, lock: Addr) {
        self.state.set(IN_CS | IN_LOCK_WAITING);
        obs::count(Counter::RtmLockWaits);
        loop {
            let v = cpu.load(line, lock).expect("plain load cannot abort");
            if v == 0 {
                return;
            }
            cpu.spin(line).expect("spin outside tx cannot abort");
        }
    }

    /// The single abort-recording path: exact truth plus (when adaptive)
    /// the per-site EWMAs. Thread-private on both sides — no allocation
    /// beyond truth's own map, no shared cache line is written.
    pub(crate) fn record_abort(&mut self, site: Ip, info: AbortInfo) {
        self.truth.abort(site, info);
        self.sites.note_abort(site, info.class);
    }
}

/// Run `body` as a critical section inside the simulated function `func` —
/// sugar used throughout the benchmark suite so transaction sites get
/// meaningful names in profiles.
pub fn named_critical_section<T>(
    tm: &mut TmThread,
    cpu: &mut SimCpu,
    func: FuncId,
    line: u32,
    body: impl FnMut(&mut SimCpu) -> TxResult<T>,
) -> T {
    cpu.call(line, func).expect("call outside tx cannot abort");
    let v = tm.critical_section(cpu, line, body);
    cpu.ret().expect("ret outside tx cannot abort");
    v
}
