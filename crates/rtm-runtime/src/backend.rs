//! The fallback path: how a critical section completes once the hardware
//! path has given up.
//!
//! [`FallbackKind`] names the policy; [`TmThread::run_fallback`] resolves it
//! to one of three concrete flavours — the static kind, or under `adaptive`
//! whatever [`crate::SiteTable::choose`] picks for the site from its own
//! abort-class / validation / fallback-rate EWMAs (the same
//! [`crate::AdaptivePolicy::classify`] the decision tree's `SwitchBackend`
//! suggestion evaluates, so report advice and runtime behaviour agree by
//! construction):
//!
//! * `lock` — the classic single-global-lock fallback (default):
//!   serialize. One fallback runs at a time and, via elision subscription,
//!   aborts every concurrent hardware transaction.
//! * `stm` — run the fallback as a TL2-style *software* transaction
//!   ([`txstm`]). Independent fallback sections commit concurrently;
//!   commit-time read-set validation failures surface as the
//!   [`AbortClass::Validation`] abort cause. Repeated validation failures
//!   or irrevocable actions (a syscall in the body) escalate: serialize.
//! * `hle` — one more *elided* acquisition of the global lock, then
//!   serialize.
//!
//! ## The two shared sequences
//!
//! Everything above, the hardware path of [`TmThread::critical_section`],
//! [`TmThread::locked_section`] and [`TmThread::hle_section`] are built
//! from two sequences that exist once each, parameterised by the lock word:
//! [`TmThread::elide`] (begin a hardware transaction, *then* subscribe to
//! the word, run the body, commit — the subscription order lazy
//! subscription gets fatally wrong) and [`TmThread::serialize`] (take the
//! word for real, run the body plainly, release with a snooping store).
//!
//! ## The shared lock word
//!
//! All flavours arbitrate through the `TmLib`'s single global lock word so
//! that hardware elision ("lock free?" means "word == 0") keeps working
//! unmodified: `0` is free, [`GATE_EXCLUSIVE`] marks an exclusive holder
//! (serial fallback, [`crate::TmThread::locked_section`], irrevocable STM),
//! and the low bits count active software transactions. Any non-zero value
//! makes hardware attempts wait and dooms subscribed speculators, so
//! hardware and software transactions never overlap — the STM only has to
//! arbitrate software peers, which is exactly what TL2 does.

use std::sync::Arc;

use obs::{Counter, Subsystem};
use txsim_htm::{AbortInfo, Addr, Ip, SimCpu, TxResult, XABORT_LOCK_HELD};
use txsim_pmu::AbortClass;
use txstm::cm::CmDecision;
use txstm::CommitFail;

pub use txstm::GATE_EXCLUSIVE;

use crate::cm_stats::CmEvent;
use crate::state::{IN_CS, IN_FALLBACK, IN_HTM, IN_LOCK_WAITING, IN_OVERHEAD, IN_STM};
use crate::TmThread;

/// Which fallback backend a [`crate::TmLib`] uses — the name that appears
/// on the CLI (`--fallback=`), in store metadata, and in diff provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FallbackKind {
    /// Serialize under the global lock (the paper's runtime; default).
    #[default]
    Lock,
    /// Run fallbacks as TL2 software transactions.
    Stm,
    /// One elided (HLE-style) global-lock acquisition, then a real one.
    Hle,
    /// Pick lock/STM/HLE (and a retry budget) *per site* from live abort
    /// statistics — the profiler's decision tree acted on at runtime.
    Adaptive,
}

impl FallbackKind {
    /// Every valid kind, in CLI presentation order.
    pub const ALL: [FallbackKind; 4] = [
        FallbackKind::Lock,
        FallbackKind::Stm,
        FallbackKind::Hle,
        FallbackKind::Adaptive,
    ];

    /// The canonical lowercase name (CLI value, store meta value).
    pub fn label(self) -> &'static str {
        match self {
            FallbackKind::Lock => "lock",
            FallbackKind::Stm => "stm",
            FallbackKind::Hle => "hle",
            FallbackKind::Adaptive => "adaptive",
        }
    }

    /// Parse a CLI/meta name. Returns `None` for unknown values — callers
    /// must reject, not default (silent defaulting hides typos).
    pub fn parse(s: &str) -> Option<FallbackKind> {
        FallbackKind::ALL.iter().copied().find(|k| k.label() == s)
    }
}

impl std::fmt::Display for FallbackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl TmThread {
    /// One elided attempt at `lock`: begin a hardware transaction, subscribe
    /// to the lock word, run `body`, commit. The transactional read puts
    /// the word in the read set, so a real acquirer's store aborts us; a
    /// word already held cannot be elided at all.
    pub(crate) fn elide<T, B>(
        &mut self,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        body: &mut B,
    ) -> TxResult<T>
    where
        B: FnMut(&mut SimCpu) -> TxResult<T> + ?Sized,
    {
        cpu.xbegin(line)?;
        self.state.set(IN_CS | IN_HTM);
        if cpu.load(line, lock)? != 0 {
            cpu.xabort(line, XABORT_LOCK_HELD)?;
        }
        let v = body(cpu)?;
        cpu.xend(line)?;
        Ok(v)
    }

    /// Take `lock` for real — spin until the snooping CAS moves it from
    /// free to `held`, dooming every speculator subscribed to the word —
    /// run `body` plainly, release, and book one fallback completion of
    /// `site`. The serial tail every flavour eventually reaches.
    pub(crate) fn serialize<T>(
        &mut self,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        held: u64,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        self.state.set(IN_CS | IN_LOCK_WAITING);
        txstm::lock_word(cpu, line, lock, held);
        self.state.set(IN_CS | IN_FALLBACK);
        let v = body(cpu).expect("fallback instructions cannot abort");
        self.state.set(IN_CS | IN_OVERHEAD);
        cpu.store_forced(line, lock, 0)
            .expect("plain store cannot abort");
        self.truth.fallback(site);
        v
    }

    /// The slow path: complete the execution the way the library's
    /// [`FallbackKind`] — or, under `adaptive`, this site's own evidence —
    /// says.
    pub(crate) fn run_fallback<T>(
        &mut self,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        obs::count(Counter::RtmFallbacks);
        let _span = obs::span(Subsystem::Runtime, "fallback");
        // Serial flavours complete in one software attempt; the STM
        // overwrites this with its actual commit-attempt count.
        self.fb_attempts = 1;
        let adaptive = self.lib.fallback == FallbackKind::Adaptive;
        let flavor = if adaptive {
            let (flavor, switched) = self.sites.choose(site);
            if switched {
                obs::count(Counter::RtmBackendSwitches);
                self.truth.backend_switch(site);
            }
            flavor
        } else {
            self.lib.fallback
        };
        let v = match flavor {
            FallbackKind::Lock => self.serialize(cpu, line, lock, GATE_EXCLUSIVE, site, body),
            FallbackKind::Stm => self.fallback_stm(cpu, line, lock, site, body),
            FallbackKind::Hle => self.fallback_hle(cpu, line, lock, site, body),
            FallbackKind::Adaptive => unreachable!("per-site choice is always concrete"),
        };
        if adaptive {
            self.sites.note_fallback(site, flavor);
        }
        v
    }

    /// HLE-style fallback: one more elided acquisition of the global lock,
    /// then a real one. Useful when the retry budget was exhausted by
    /// transient conflicts — the extra attempt often commits without
    /// serializing anyone.
    fn fallback_hle<T>(
        &mut self,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        let attempt = self.elide(cpu, line, lock, body);
        self.state.set(IN_CS | IN_OVERHEAD);
        match attempt {
            Ok(v) => {
                // Still a fallback-path completion for the checksum
                // invariant, even though it committed speculatively.
                self.truth.fallback(site);
                self.truth.hle_commit(site);
                v
            }
            Err(_) => {
                let info = cpu.last_abort().expect("abort must record status");
                self.record_abort(site, info);
                self.serialize(cpu, line, lock, GATE_EXCLUSIVE, site, body)
            }
        }
    }

    /// TL2 software-transaction fallback: fallbacks speculate in software
    /// and commit via versioned write-locks, so independent sections
    /// proceed concurrently instead of convoying on the global lock. The
    /// STM's gate *is* the global lock word `lock`.
    fn fallback_stm<T>(
        &mut self,
        cpu: &mut SimCpu,
        line: u32,
        lock: Addr,
        site: Ip,
        body: &mut dyn FnMut(&mut SimCpu) -> TxResult<T>,
    ) -> T {
        let lib = Arc::clone(&self.lib);
        let tl2 = lib.tl2.as_ref().expect("stm-capable kinds build a TL2");
        self.state.set(IN_CS | IN_LOCK_WAITING);
        tl2.gate_enter(cpu, line);

        let mut attempt = 0u32;
        loop {
            // Consult the contention manager before (re)opening the read
            // window: an outranked transaction spends its politeness window
            // here instead of racing a starving peer's validation.
            if let Some(iv) = lib.cm.on_begin(cpu, line, &mut self.cm_tx) {
                self.cm_stats.note(site, CmEvent::from(iv));
            }
            let rv = tl2.begin(cpu, line);
            self.state.set(IN_CS | IN_FALLBACK | IN_STM);
            match body(cpu) {
                Ok(v) => match tl2.commit(cpu, line, rv) {
                    Ok(()) => {
                        self.state.set(IN_CS | IN_OVERHEAD | IN_STM);
                        cpu.stm_report_commit(line);
                        self.truth.fallback(site);
                        self.truth.stm_commit(site);
                        self.fb_attempts = attempt + 1;
                        tl2.gate_exit(cpu, line);
                        return v;
                    }
                    Err(abort) => {
                        self.state.set(IN_CS | IN_OVERHEAD | IN_STM);
                        cpu.stm_report_abort(abort.ip, abort.weight);
                        self.record_abort(
                            site,
                            AbortInfo::new(AbortClass::Validation, 0, abort.weight),
                        );
                        attempt += 1;
                        // The contention manager decides the reaction; the
                        // engine's `max_attempts` stays the escape hatch
                        // every policy must respect (the progress bound).
                        let max = tl2.config().max_attempts;
                        let res = match abort.cause {
                            CommitFail::LockBusy => {
                                lib.cm
                                    .on_lock_conflict(&mut self.cm_tx, abort.work, attempt, max)
                            }
                            CommitFail::Validation => lib.cm.on_validation_failure(
                                &mut self.cm_tx,
                                abort.work,
                                attempt,
                                max,
                            ),
                        };
                        if res.priority_abort {
                            self.cm_stats.note(site, CmEvent::PriorityAbort);
                        }
                        match res.decision {
                            CmDecision::Backoff => tl2.backoff(cpu, line, attempt),
                            CmDecision::Stall { spins } => {
                                self.cm_stats.note(site, CmEvent::Stall);
                                for _ in 0..spins {
                                    cpu.spin(line).expect("spin outside tx cannot abort");
                                }
                            }
                            CmDecision::Escalate => {
                                // Forced commit: give up on optimism and
                                // take the exclusive gate below.
                                self.cm_stats.note(site, CmEvent::Escalation);
                                break;
                            }
                        }
                    }
                },
                Err(_) => {
                    // Only irrevocable actions (syscall/page fault) abort a
                    // software transaction; roll back and run serially. The
                    // hardware attempts already recorded the sync abort, so
                    // truth is not double-charged here.
                    cpu.stm_cancel();
                    break;
                }
            }
        }

        // Irrevocable escalation. Drop our own gate share *first*: two
        // escalating threads that both kept their shares would each wait
        // forever for the other's to drain.
        self.fb_attempts = attempt + 1;
        tl2.gate_exit(cpu, line);
        obs::count(Counter::RtmLockWaits);
        obs::count(Counter::StmIrrevocable);
        self.serialize(cpu, line, lock, GATE_EXCLUSIVE, site, body)
    }
}
