//! Ground-truth instrumentation.
//!
//! The RTM runtime sees every transaction attempt exactly, so it can keep
//! precise per-site counters almost for free. The paper uses exactly this
//! ("we obtain the ground truth from the instrumentation in the HTM runtime
//! library", §7.2) to validate TxSampler's sampled estimates — and so do our
//! integration tests. The profiler itself never reads these.

use std::collections::HashMap;

use txsim_htm::{AbortClass, AbortInfo, Ip};

crate::counter_fields! {
    /// Exact counters for one critical-section site.
    pub struct SiteTruth {
        /// Successful HTM-path executions.
        pub htm_commits,
        /// Executions that ended up on the fallback path.
        pub fallbacks,
        /// Fallback executions that committed as *software* transactions
        /// (subset of `fallbacks`; the rest ran serially under the lock).
        pub stm_commits,
        /// Fallback executions that committed via the *elided* lock (HLE
        /// flavor; subset of `fallbacks`, disjoint from `stm_commits`).
        pub hle_commits,
        /// Times the adaptive policy switched this site's fallback backend.
        pub backend_switches,
        /// Conflict aborts.
        pub aborts_conflict,
        /// Capacity aborts.
        pub aborts_capacity,
        /// Synchronous aborts.
        pub aborts_sync,
        /// Explicit aborts (including lock-held elision aborts).
        pub aborts_explicit,
        /// Profiler-interrupt-induced aborts.
        pub aborts_interrupt,
        /// Software-transaction commit-time validation failures (STM backend).
        pub aborts_validation,
        /// Total cycles wasted in aborted attempts.
        pub abort_weight,
    }
}

impl SiteTruth {
    /// Total aborts of all classes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_conflict
            + self.aborts_capacity
            + self.aborts_sync
            + self.aborts_explicit
            + self.aborts_interrupt
            + self.aborts_validation
    }

    /// Aborts attributable to the application (excludes profiler-induced
    /// interrupt aborts and lock-held elision aborts, which are
    /// serialization rather than data pathology).
    pub fn app_aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_capacity + self.aborts_sync
    }

    /// The abort/commit ratio r_a/c used to categorize programs (Figure 8).
    pub fn abort_commit_ratio(&self) -> f64 {
        if self.htm_commits == 0 {
            if self.total_aborts() == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.total_aborts() as f64 / self.htm_commits as f64
        }
    }

    fn record_abort(&mut self, info: AbortInfo) {
        *self.aborts_mut(info.class) += 1;
        self.abort_weight += info.weight;
    }

    /// Exact aborts of `class`.
    pub fn aborts(&self, class: AbortClass) -> u64 {
        let mut t = *self;
        *t.aborts_mut(class)
    }

    fn aborts_mut(&mut self, class: AbortClass) -> &mut u64 {
        match class {
            AbortClass::Conflict => &mut self.aborts_conflict,
            AbortClass::Capacity => &mut self.aborts_capacity,
            AbortClass::Sync => &mut self.aborts_sync,
            AbortClass::Explicit => &mut self.aborts_explicit,
            AbortClass::Validation => &mut self.aborts_validation,
            AbortClass::Interrupt => &mut self.aborts_interrupt,
        }
    }

    /// Fallback executions that ran serially under the lock (neither
    /// software-speculative nor elided).
    pub fn lock_fallbacks(&self) -> u64 {
        self.fallbacks
            .saturating_sub(self.stm_commits)
            .saturating_sub(self.hle_commits)
    }
}

/// Per-thread ground truth: exact counters per critical-section site.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    sites: HashMap<Ip, SiteTruth>,
}

impl Truth {
    /// Record a committed HTM execution of `site`.
    pub fn commit(&mut self, site: Ip) {
        self.sites.entry(site).or_default().htm_commits += 1;
    }

    /// Record a fallback execution of `site`.
    pub fn fallback(&mut self, site: Ip) {
        self.sites.entry(site).or_default().fallbacks += 1;
    }

    /// Record that a fallback execution of `site` committed as a software
    /// transaction. Call *in addition to* [`Truth::fallback`]: `fallbacks`
    /// keeps counting every slow-path completion (so `htm_commits +
    /// fallbacks` remains the execution count) and this marks the
    /// speculative subset.
    pub fn stm_commit(&mut self, site: Ip) {
        self.sites.entry(site).or_default().stm_commits += 1;
    }

    /// Record that a fallback execution of `site` committed via the elided
    /// lock (HLE flavor). Same additivity contract as [`Truth::stm_commit`].
    pub fn hle_commit(&mut self, site: Ip) {
        self.sites.entry(site).or_default().hle_commits += 1;
    }

    /// Record that the adaptive policy switched `site`'s fallback backend.
    pub fn backend_switch(&mut self, site: Ip) {
        self.sites.entry(site).or_default().backend_switches += 1;
    }

    /// Record an aborted attempt of `site`.
    pub fn abort(&mut self, site: Ip, info: AbortInfo) {
        self.sites.entry(site).or_default().record_abort(info);
    }

    /// Counters for one site.
    pub fn site(&self, site: Ip) -> SiteTruth {
        self.sites.get(&site).copied().unwrap_or_default()
    }

    /// Iterate all sites.
    pub fn iter(&self) -> impl Iterator<Item = (&Ip, &SiteTruth)> {
        self.sites.iter()
    }

    /// Sum over all sites.
    pub fn totals(&self) -> SiteTruth {
        let mut acc = SiteTruth::default();
        for site in self.sites.values() {
            acc.merge(site);
        }
        acc
    }

    /// Merge another thread's truth into this one (used by harnesses to
    /// aggregate across worker threads).
    pub fn merge(&mut self, other: &Truth) {
        for (site, stats) in &other.sites {
            self.sites.entry(*site).or_default().merge(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsim_htm::FuncId;

    fn site(n: u32) -> Ip {
        Ip::new(FuncId(n), 1)
    }

    #[test]
    fn records_and_sums() {
        let mut t = Truth::default();
        t.commit(site(1));
        t.commit(site(1));
        t.fallback(site(1));
        t.abort(site(1), AbortInfo::new(AbortClass::Conflict, 0, 100));
        t.abort(site(1), AbortInfo::new(AbortClass::Capacity, 0, 50));
        let s = t.site(site(1));
        assert_eq!(s.htm_commits, 2);
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.aborts_conflict, 1);
        assert_eq!(s.aborts_capacity, 1);
        assert_eq!(s.abort_weight, 150);
        assert_eq!(s.total_aborts(), 2);
        assert_eq!(s.abort_commit_ratio(), 1.0);
    }

    #[test]
    fn app_aborts_excludes_interrupt_and_explicit() {
        let mut t = Truth::default();
        t.abort(site(1), AbortInfo::new(AbortClass::Interrupt, 0, 1));
        t.abort(site(1), AbortInfo::new(AbortClass::Explicit, 0xff, 1));
        t.abort(site(1), AbortInfo::new(AbortClass::Sync, 0, 1));
        assert_eq!(t.site(site(1)).app_aborts(), 1);
        assert_eq!(t.site(site(1)).total_aborts(), 3);
    }

    #[test]
    fn merge_combines_sites() {
        let mut a = Truth::default();
        let mut b = Truth::default();
        a.commit(site(1));
        b.commit(site(1));
        b.commit(site(2));
        a.merge(&b);
        assert_eq!(a.site(site(1)).htm_commits, 2);
        assert_eq!(a.site(site(2)).htm_commits, 1);
        assert_eq!(a.totals().htm_commits, 3);
    }

    #[test]
    fn site_merge_sums_every_field() {
        // Every field distinct and non-zero, so a field the merge forgot
        // or summed into a neighbour shows.
        let fields: [u64; SiteTruth::ARITY] = std::array::from_fn(|i| i as u64 + 1);
        let mut sum = SiteTruth::from_fields(fields);
        sum.merge(&SiteTruth::from_fields(fields));
        assert_eq!(sum.to_fields(), fields.map(|v| 2 * v));
    }

    #[test]
    fn ratio_edge_cases() {
        let s = SiteTruth::default();
        assert_eq!(s.abort_commit_ratio(), 0.0);
        let mut t = Truth::default();
        t.abort(site(1), AbortInfo::new(AbortClass::Conflict, 0, 1));
        assert!(t.site(site(1)).abort_commit_ratio().is_infinite());
    }
}
