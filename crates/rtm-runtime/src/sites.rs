//! Per-site runtime statistics and the adaptive fallback policy.
//!
//! The profiler's decision tree (core's `decision.rs`) can only *print*
//! "this site wants a different fallback"; this module closes the loop by
//! keeping the same per-site evidence inside the runtime and acting on it.
//! Each [`crate::TmThread`] owns one [`SiteTable`]: a fixed-capacity,
//! thread-private table keyed by critical-section site ([`Ip`]) holding
//! abort-class / validation-failure / fallback-rate EWMAs, the site's
//! current backend choice, and its retry budget.
//!
//! Design constraints (and why the table looks the way it does):
//!
//! * **Thread-private.** Only the owning thread ever touches its table, so
//!   updating a site on the abort path writes no shared cache line — the
//!   profiler's zero-perturbation story survives the control loop.
//! * **No allocation after construction.** The table is a fixed-capacity
//!   [`SiteSlots`]; a site that cannot find a free slot is counted and
//!   simply runs the unadapted default policy. The abort path therefore
//!   never allocates (unlike a growable map).
//! * **Pay-for-use.** A [`TmLib`](crate::TmLib) configured with a static
//!   backend hands threads a zero-capacity table: every hook degenerates to
//!   one `is_empty` branch.
//!
//! The policy constants live in [`AdaptivePolicy`] and are shared with the
//! decision tree's `SwitchBackend` suggestion, so report advice and runtime
//! behavior provably agree: both sides call [`AdaptivePolicy::classify`]
//! on the same abort-class shares.

use txsim_htm::Ip;
use txsim_pmu::AbortClass;

use crate::backend::FallbackKind;
use crate::site_record::BackendMix;
use crate::slots::SiteSlots;

/// Fixed-point one for the EWMAs (Q10).
const ONE: u32 = 1 << 10;
/// EWMA smoothing shift: alpha = 1/8 per observation.
const SHIFT: u32 = 3;
/// Default slot capacity of a [`SiteTable`] (sites that misbehave; clean
/// sites never occupy a slot).
pub const SITE_CAPACITY: usize = 128;

#[inline]
fn ewma_up(e: &mut u32) {
    *e += (ONE - *e) >> SHIFT;
}

#[inline]
fn ewma_down(e: &mut u32) {
    *e -= *e >> SHIFT;
}

/// The adaptive policy's thresholds. [`AdaptivePolicy::DEFAULT`] is the one
/// the runtime uses *and* the one `decision.rs` consults for its
/// `SwitchBackend` suggestion — keep them one value so the report never
/// advises a switch the runtime would not make.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Share of abort pressure a class must hold to drive the backend
    /// choice (same role as the decision tree's dominant-class cut).
    pub class_dominant: f64,
    /// Validation-failure rate (per section) beyond which the STM backend
    /// is abandoned for the serial lock.
    pub give_up_validation: f64,
    /// Minimum abort-pressure EWMA (fraction of sections aborting) before
    /// any switch: quiet sites keep the default.
    pub min_pressure: f64,
    /// Executions observed at a site before its first switch.
    pub min_execs: u64,
    /// Executions a site must wait between switches (hysteresis — sites
    /// must not flap between backends on every abort).
    pub cooldown: u64,
    /// Fallback-rate EWMA beyond which the doomed hardware attempt is
    /// skipped entirely (straight to the fallback path).
    pub straight_to_fallback: f64,
    /// Every `probe_interval`-th execution of a site that skips hardware
    /// attempts speculates anyway, so a site whose phase changed can
    /// re-learn its way back onto the fast path.
    pub probe_interval: u64,
    /// Retry budget for conflict-dominant sites (transient aborts profit
    /// from extra attempts before serializing).
    pub boosted_retries: u32,
}

impl AdaptivePolicy {
    /// The thresholds shipped with the runtime (and mirrored by the
    /// decision tree).
    pub const DEFAULT: AdaptivePolicy = AdaptivePolicy {
        class_dominant: 0.40,
        give_up_validation: 0.50,
        min_pressure: 0.25,
        min_execs: 8,
        cooldown: 32,
        straight_to_fallback: 0.85,
        probe_interval: 64,
        boosted_retries: 8,
    };

    /// Map per-site abort evidence to the backend that evidence wants, or
    /// `None` when no class dominates (keep whatever runs today).
    ///
    /// Inputs are *shares*: `conflict`/`capacity`/`sync` are each class's
    /// share of the site's hardware-abort pressure, `validation` is the
    /// software-validation failure rate. The mapping:
    ///
    /// * validation failures past [`Self::give_up_validation`] → [`FallbackKind::Lock`]
    ///   (the STM is losing; serialize),
    /// * sync-dominant → [`FallbackKind::Lock`] (irrevocable bodies abort
    ///   every speculative flavor; go straight to serial),
    /// * capacity-dominant → [`FallbackKind::Stm`] (software speculation
    ///   has no footprint limit; independent overflows commit concurrently),
    /// * conflict-dominant → [`FallbackKind::Hle`] (transient; one more
    ///   elided attempt usually commits without serializing anyone).
    pub fn classify(
        &self,
        conflict: f64,
        capacity: f64,
        sync: f64,
        validation: f64,
    ) -> Option<FallbackKind> {
        if validation >= self.give_up_validation {
            return Some(FallbackKind::Lock);
        }
        if sync >= self.class_dominant {
            return Some(FallbackKind::Lock);
        }
        if capacity >= self.class_dominant {
            return Some(FallbackKind::Stm);
        }
        if conflict >= self.class_dominant {
            return Some(FallbackKind::Hle);
        }
        None
    }

    /// The retry budget the policy grants a site running `kind`.
    pub fn budget(&self, kind: FallbackKind, base: u32) -> u32 {
        match kind {
            // Serial backends exist because speculation is futile here:
            // retrying non-transient aborts only burns cycles.
            FallbackKind::Lock | FallbackKind::Stm => 0,
            FallbackKind::Hle => self.boosted_retries.max(base),
            FallbackKind::Adaptive => base,
        }
    }
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy::DEFAULT
    }
}

/// What the runtime should do for one execution of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SitePlan {
    /// Transient-abort retry budget for this execution.
    pub max_retries: u32,
    /// Whether to speculate at all (false → straight to the fallback path).
    pub attempt_htm: bool,
}

/// Point-in-time view of one site's adaptive state, for the harness to fold
/// into profiles and for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSnapshot {
    /// The critical-section site.
    pub site: Ip,
    /// The backend currently chosen for this site.
    pub backend: FallbackKind,
    /// Backend switches performed at this site so far.
    pub switches: u64,
    /// Fallback completions dispatched to the serial lock.
    pub fb_lock: u64,
    /// Fallback completions dispatched to the software TM.
    pub fb_stm: u64,
    /// Fallback completions dispatched to the elided lock.
    pub fb_hle: u64,
}

impl SiteSnapshot {
    fn new(site: Ip, backend: FallbackKind, mix: &BackendMix) -> SiteSnapshot {
        SiteSnapshot {
            site,
            backend,
            switches: mix.switches,
            fb_lock: mix.lock,
            fb_stm: mix.stm,
            fb_hle: mix.hle,
        }
    }

    /// The snapshot's counts as the profile's per-site mix.
    pub fn mix(&self) -> BackendMix {
        BackendMix {
            lock: self.fb_lock,
            stm: self.fb_stm,
            hle: self.fb_hle,
            switches: self.switches,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SiteSlot {
    backend: FallbackKind,
    execs: u64,
    cooldown: u64,
    /// Fallback completions per flavor and switches since the last
    /// `take_delta`.
    delta: BackendMix,
    /// The same, over the table's lifetime (snapshots / diagnostics).
    total: BackendMix,
    // Q10 EWMAs, one observation per event (abort) or completion (decay).
    ewma_conflict: u32,
    ewma_capacity: u32,
    ewma_sync: u32,
    ewma_validation: u32,
    ewma_fallback: u32,
}

impl SiteSlot {
    fn new() -> SiteSlot {
        SiteSlot {
            backend: FallbackKind::Lock,
            execs: 0,
            cooldown: 0,
            delta: BackendMix::default(),
            total: BackendMix::default(),
            ewma_conflict: 0,
            ewma_capacity: 0,
            ewma_sync: 0,
            ewma_validation: 0,
            ewma_fallback: 0,
        }
    }

    /// Hardware abort-class shares (conflict, capacity, sync) plus the
    /// validation rate, as the policy's classify inputs.
    fn shares(&self) -> (f64, f64, f64, f64) {
        let total = (self.ewma_conflict + self.ewma_capacity + self.ewma_sync) as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0, self.ewma_validation as f64 / ONE as f64);
        }
        (
            self.ewma_conflict as f64 / total,
            self.ewma_capacity as f64 / total,
            self.ewma_sync as f64 / total,
            self.ewma_validation as f64 / ONE as f64,
        )
    }

    /// Abort pressure: fraction of recent sections that aborted at all.
    fn pressure(&self) -> f64 {
        let peak = self
            .ewma_conflict
            .max(self.ewma_capacity)
            .max(self.ewma_sync)
            .max(self.ewma_validation)
            .max(self.ewma_fallback);
        peak as f64 / ONE as f64
    }
}

/// Thread-private per-site statistics. See the module docs for the
/// zero-allocation / zero-sharing design constraints.
#[derive(Debug)]
pub struct SiteTable {
    slots: SiteSlots<SiteSlot>,
    policy: AdaptivePolicy,
    base_retries: u32,
}

impl SiteTable {
    /// A table for a thread of an adaptive [`crate::TmLib`].
    pub fn new(policy: AdaptivePolicy, base_retries: u32) -> SiteTable {
        SiteTable {
            slots: SiteSlots::new(SITE_CAPACITY),
            policy,
            base_retries,
        }
    }

    /// The zero-capacity table handed to threads of a *static* library:
    /// every hook returns after one branch and nothing is ever allocated.
    pub fn detached() -> SiteTable {
        SiteTable {
            slots: SiteSlots::detached(),
            policy: AdaptivePolicy::DEFAULT,
            base_retries: 0,
        }
    }

    /// Whether this table adapts at all.
    #[inline]
    pub fn is_adaptive(&self) -> bool {
        !self.slots.is_detached()
    }

    /// Slot capacity (fixed for the table's lifetime — the no-allocation
    /// guarantee tests pin).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Sites that could not be seated and ran unadapted.
    pub fn overflowed(&self) -> u64 {
        self.slots.overflowed()
    }

    /// Section-start hook: the execution plan for `site`. Ticks the site's
    /// execution counter and hysteresis cooldown.
    pub fn plan(&mut self, site: Ip) -> SitePlan {
        let base = self.base_retries;
        let policy = self.policy;
        let Some(slot) = self.slots.get_mut(site) else {
            return SitePlan {
                max_retries: base,
                attempt_htm: true,
            };
        };
        slot.execs += 1;
        slot.cooldown = slot.cooldown.saturating_sub(1);
        let retries = policy.budget(slot.backend, base);
        // Straight-to-fallback: once (almost) every execution ends on the
        // fallback path and the choice is a serial flavor, the hardware
        // attempt is pure waste — skip it, but probe periodically so a
        // phase change can bring the site back.
        let skip = slot.backend != FallbackKind::Hle
            && slot.ewma_fallback as f64 / ONE as f64 >= policy.straight_to_fallback
            && slot.execs % policy.probe_interval != 0;
        SitePlan {
            max_retries: retries,
            attempt_htm: !skip,
        }
    }

    /// Abort-path hook: fold one abort of `class` into the site's EWMAs.
    /// Seats the site on first misbehavior; thereafter pure in-place
    /// arithmetic (no allocation, no shared write).
    pub fn note_abort(&mut self, site: Ip, class: AbortClass) {
        let Some(slot) = self.slots.seat(site, SiteSlot::new) else {
            return;
        };
        match class {
            AbortClass::Conflict => ewma_up(&mut slot.ewma_conflict),
            AbortClass::Capacity => ewma_up(&mut slot.ewma_capacity),
            AbortClass::Sync => ewma_up(&mut slot.ewma_sync),
            AbortClass::Validation => ewma_up(&mut slot.ewma_validation),
            // Lock-held elision and profiler-interrupt aborts say nothing
            // about what fallback the site wants.
            AbortClass::Explicit | AbortClass::Interrupt => {}
        }
    }

    /// Commit hook (HTM path succeeded): decay every EWMA. Only sites that
    /// previously misbehaved are tracked; a clean site stays slot-free.
    pub fn note_commit(&mut self, site: Ip) {
        if let Some(slot) = self.slots.get_mut(site) {
            ewma_down(&mut slot.ewma_conflict);
            ewma_down(&mut slot.ewma_capacity);
            ewma_down(&mut slot.ewma_sync);
            ewma_down(&mut slot.ewma_validation);
            ewma_down(&mut slot.ewma_fallback);
        }
    }

    /// Fallback-entry hook: pick the backend for this completion, applying
    /// hysteresis. Returns the flavor to run and whether this call switched
    /// the site.
    pub fn choose(&mut self, site: Ip) -> (FallbackKind, bool) {
        let policy = self.policy;
        let Some(slot) = self.slots.seat(site, SiteSlot::new) else {
            return (FallbackKind::Lock, false);
        };
        let mut switched = false;
        if slot.execs >= policy.min_execs
            && slot.cooldown == 0
            && slot.pressure() >= policy.min_pressure
        {
            let (conflict, capacity, sync, validation) = slot.shares();
            if let Some(want) = policy.classify(conflict, capacity, sync, validation) {
                if want != slot.backend {
                    slot.backend = want;
                    slot.total.switches += 1;
                    slot.delta.switches += 1;
                    slot.cooldown = policy.cooldown;
                    switched = true;
                }
            }
        }
        (slot.backend, switched)
    }

    /// Fallback-completion hook: count the flavor that ran and raise the
    /// fallback-rate EWMA.
    pub fn note_fallback(&mut self, site: Ip, flavor: FallbackKind) {
        let Some(slot) = self.slots.seat(site, SiteSlot::new) else {
            return;
        };
        let mut done = BackendMix::default();
        match flavor {
            FallbackKind::Lock => done.lock = 1,
            FallbackKind::Stm => done.stm = 1,
            FallbackKind::Hle => done.hle = 1,
            FallbackKind::Adaptive => {
                unreachable!("adaptive dispatch resolves to a concrete flavor")
            }
        }
        slot.delta.merge(&done);
        slot.total.merge(&done);
        ewma_up(&mut slot.ewma_fallback);
    }

    /// Snapshot every seated site (lifetime totals).
    pub fn snapshot(&self) -> Vec<SiteSnapshot> {
        let mut out: Vec<SiteSnapshot> = self
            .slots
            .iter()
            .map(|(site, s)| SiteSnapshot::new(site, s.backend, &s.total))
            .collect();
        out.sort_by_key(|s| (s.site.func.0, s.site.line));
        out
    }

    /// Drain the per-flavor / switch counts accumulated since the last
    /// call (EWMAs, choices and lifetime totals persist). Used by the
    /// harness to publish per-round deltas without double counting.
    pub fn take_delta(&mut self) -> Vec<SiteSnapshot> {
        let mut out = self.slots.drain(|site, slot| {
            (!slot.delta.is_zero())
                .then(|| SiteSnapshot::new(site, slot.backend, &std::mem::take(&mut slot.delta)))
        });
        out.sort_by_key(|s| (s.site.func.0, s.site.line));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsim_htm::FuncId;

    fn site(n: u32) -> Ip {
        Ip::new(FuncId(n), 1)
    }

    fn drive(table: &mut SiteTable, s: Ip, class: AbortClass, rounds: u64) {
        for _ in 0..rounds {
            table.plan(s);
            table.note_abort(s, class);
            let (flavor, _) = table.choose(s);
            table.note_fallback(s, flavor);
        }
    }

    #[test]
    fn detached_table_is_inert() {
        let mut t = SiteTable::detached();
        assert!(!t.is_adaptive());
        assert_eq!(t.capacity(), 0);
        t.note_abort(site(1), AbortClass::Conflict);
        t.note_commit(site(1));
        assert_eq!(t.choose(site(1)), (FallbackKind::Lock, false));
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn capacity_dominant_site_switches_to_stm_once() {
        let mut t = SiteTable::new(AdaptivePolicy::DEFAULT, 5);
        drive(&mut t, site(1), AbortClass::Capacity, 200);
        let snap = &t.snapshot()[0];
        assert_eq!(snap.backend, FallbackKind::Stm);
        assert_eq!(snap.switches, 1, "hysteresis: no flapping");
        assert!(snap.fb_stm > 0);
        assert_eq!(t.capacity(), SITE_CAPACITY, "no growth");
    }

    #[test]
    fn conflict_dominant_site_switches_to_hle_and_boosts_budget() {
        let mut t = SiteTable::new(AdaptivePolicy::DEFAULT, 5);
        drive(&mut t, site(2), AbortClass::Conflict, 200);
        let snap = &t.snapshot()[0];
        assert_eq!(snap.backend, FallbackKind::Hle);
        let plan = t.plan(site(2));
        assert_eq!(
            plan.max_retries,
            AdaptivePolicy::DEFAULT.boosted_retries,
            "conflict sites get the boosted retry budget"
        );
        assert!(plan.attempt_htm, "HLE sites keep speculating");
    }

    #[test]
    fn sync_dominant_site_stays_on_lock_and_skips_doomed_attempts() {
        let mut t = SiteTable::new(AdaptivePolicy::DEFAULT, 5);
        drive(&mut t, site(3), AbortClass::Sync, 200);
        let snap = &t.snapshot()[0];
        assert_eq!(snap.backend, FallbackKind::Lock);
        assert_eq!(snap.switches, 0, "lock is already the right choice");
        let plan = t.plan(site(3));
        assert_eq!(plan.max_retries, 0);
        assert!(
            !plan.attempt_htm,
            "always-falling-back serial site skips the doomed attempt"
        );
    }

    #[test]
    fn skipping_sites_still_probe_periodically() {
        let mut t = SiteTable::new(AdaptivePolicy::DEFAULT, 5);
        drive(&mut t, site(4), AbortClass::Sync, 100);
        let probes = (0..200).filter(|_| t.plan(site(4)).attempt_htm).count();
        assert!(probes > 0, "probe attempts keep the site re-learnable");
        assert!(probes < 20, "but they are rare");
    }

    #[test]
    fn commits_decay_pressure_and_recover_speculation() {
        let mut t = SiteTable::new(AdaptivePolicy::DEFAULT, 5);
        drive(&mut t, site(5), AbortClass::Sync, 100);
        assert!(!t.plan(site(5)).attempt_htm);
        // Phase change: the site now commits cleanly; pressure decays and
        // speculation resumes.
        for _ in 0..100 {
            t.note_commit(site(5));
        }
        assert!(t.plan(site(5)).attempt_htm);
    }

    #[test]
    fn validation_failures_push_stm_site_to_lock() {
        let mut t = SiteTable::new(AdaptivePolicy::DEFAULT, 5);
        drive(&mut t, site(6), AbortClass::Capacity, 100);
        assert_eq!(t.snapshot()[0].backend, FallbackKind::Stm);
        // The STM keeps losing validation at this site.
        for _ in 0..200 {
            t.plan(site(6));
            t.note_abort(site(6), AbortClass::Validation);
            let (flavor, _) = t.choose(site(6));
            t.note_fallback(site(6), flavor);
        }
        assert_eq!(t.snapshot()[0].backend, FallbackKind::Lock);
    }

    #[test]
    fn take_delta_drains_counts_but_keeps_choice() {
        let mut t = SiteTable::new(AdaptivePolicy::DEFAULT, 5);
        drive(&mut t, site(7), AbortClass::Capacity, 50);
        let d1 = t.take_delta();
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].fb_lock + d1[0].fb_stm + d1[0].fb_hle, 50);
        assert!(t.take_delta().is_empty(), "drained");
        let snap = &t.snapshot()[0];
        assert_eq!(
            snap.fb_lock + snap.fb_stm + snap.fb_hle,
            50,
            "totals persist"
        );
        drive(&mut t, site(7), AbortClass::Capacity, 10);
        let d2 = t.take_delta();
        assert_eq!(d2[0].fb_lock + d2[0].fb_stm + d2[0].fb_hle, 10);
    }

    #[test]
    fn classify_matches_documented_mapping() {
        let p = AdaptivePolicy::DEFAULT;
        assert_eq!(p.classify(1.0, 0.0, 0.0, 0.0), Some(FallbackKind::Hle));
        assert_eq!(p.classify(0.0, 1.0, 0.0, 0.0), Some(FallbackKind::Stm));
        assert_eq!(p.classify(0.0, 0.0, 1.0, 0.0), Some(FallbackKind::Lock));
        assert_eq!(p.classify(0.0, 1.0, 0.0, 0.9), Some(FallbackKind::Lock));
        assert_eq!(p.classify(0.3, 0.3, 0.3, 0.0), None, "no dominant class");
    }

    #[test]
    fn table_overflow_is_counted_and_degrades_gracefully() {
        let mut t = SiteTable::new(AdaptivePolicy::DEFAULT, 5);
        for n in 0..(SITE_CAPACITY as u32 + 1) {
            t.note_abort(site(n), AbortClass::Conflict);
            t.note_fallback(site(n), FallbackKind::Lock);
        }
        assert_eq!(t.overflowed(), 2, "both hooks at the unseated site");
        assert_eq!(t.capacity(), SITE_CAPACITY);
        // The first `capacity` sites are seated and intact.
        let seated = t.snapshot();
        assert_eq!(seated.len(), SITE_CAPACITY);
        for (n, snap) in seated.iter().enumerate() {
            assert_eq!((snap.site, snap.fb_lock), (site(n as u32), 1));
        }
        // The unseated site still executes with the default plan.
        let plan = t.plan(site(SITE_CAPACITY as u32));
        assert_eq!(plan.max_retries, 5);
        assert!(plan.attempt_htm);
    }
}
