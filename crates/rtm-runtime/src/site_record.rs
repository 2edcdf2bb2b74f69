//! The per-site record: which runtime-fed families exist and how they
//! combine.
//!
//! Everything the runtime knows about one critical-section site beyond
//! what the PMU samples — the adaptive backend mix, the latency/retry
//! histograms, the contention-manager interventions — travels as one
//! [`SiteRecord`] in one [`SiteMap`], from [`crate::TmThread::take_site_delta`]
//! through thread profile, hub, merged profile and fleet merge. Adding a
//! family (or a counter to one) is an edit here plus its recording hook,
//! its store line and its renderers; nothing that merely *moves* site
//! data names a family.

use std::collections::HashMap;

use txsim_htm::{FuncId, Ip};

use crate::{CmStats, SiteHists};

/// Declare a struct of monotone `u64` counters once. Expands to the
/// struct and the contract every profile metric follows — additive
/// `merge`, saturating `minus`, `is_zero` — plus the ordered
/// `to_fields`/`from_fields` pair the store serializes through, so the
/// field list is written in exactly one place.
#[macro_export]
macro_rules! counter_fields {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $name {
            /// Number of counters (the arity of the serialized record).
            pub const ARITY: usize = [$( stringify!($field) ),+].len();

            /// Add another value's counts into this one.
            pub fn merge(&mut self, o: &$name) {
                $( self.$field += o.$field; )+
            }

            /// Field-wise saturating difference `self - earlier`: all
            /// counters are monotone, so the difference of two cumulative
            /// snapshots is the activity of the window between them.
            pub fn minus(&self, earlier: &$name) -> $name {
                $name {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                }
            }

            /// Whether every counter is zero.
            pub fn is_zero(&self) -> bool {
                *self == $name::default()
            }

            /// The counters in declaration (= serialization) order.
            pub fn to_fields(&self) -> [u64; $name::ARITY] {
                [$( self.$field ),+]
            }

            /// Rebuild from counters in declaration order.
            pub fn from_fields(fields: [u64; $name::ARITY]) -> $name {
                let [$( $field ),+] = fields;
                $name { $( $field ),+ }
            }
        }
    };
}

counter_fields! {
    /// Runtime-reported fallback-backend activity for one site (or a whole
    /// run): how many fallback completions each concrete flavor served,
    /// plus how often the adaptive policy switched the site.
    pub struct BackendMix {
        /// Fallback completions serialized under the global lock.
        pub lock,
        /// Fallback completions dispatched to the software TM.
        pub stm,
        /// Fallback completions dispatched to the elided lock.
        pub hle,
        /// Backend switches performed by the adaptive policy.
        pub switches,
    }
}

impl BackendMix {
    /// Total fallback completions across flavors.
    pub fn total(&self) -> u64 {
        self.lock + self.stm + self.hle
    }

    /// The dominant flavor by completion count (`None` when nothing ran on
    /// the fallback path). Ties resolve in lock → stm → hle order, matching
    /// the runtime's own default-first preference.
    pub fn choice(&self) -> Option<&'static str> {
        if self.total() == 0 {
            return None;
        }
        let mut best = ("lock", self.lock);
        for (label, n) in [("stm", self.stm), ("hle", self.hle)] {
            if n > best.1 {
                best = (label, n);
            }
        }
        Some(best.0)
    }
}

/// Everything the runtime reports about one site. Each family is empty
/// (`is_zero`) when its source was off: `mix` outside the adaptive
/// backend, `hists` without histogram collection, `cm` when no contention
/// manager intervened. Readers of one family skip records where it is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteRecord {
    /// Fallback completions per backend flavor, and backend switches.
    pub mix: BackendMix,
    /// Latency, retry-depth and fallback-dwell distributions.
    pub hists: SiteHists,
    /// Contention-manager interventions.
    pub cm: CmStats,
}

impl SiteRecord {
    /// Add another record's counts into this one, family by family.
    pub fn merge(&mut self, o: &SiteRecord) {
        self.mix.merge(&o.mix);
        self.hists.merge(&o.hists);
        self.cm.merge(&o.cm);
    }

    /// Whether every family is empty.
    pub fn is_zero(&self) -> bool {
        self.mix.is_zero() && self.hists.is_zero() && self.cm.is_zero()
    }
}

/// Site → [`SiteRecord`], with the operations the profile pipeline needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteMap(HashMap<Ip, SiteRecord>);

impl SiteMap {
    /// Mutable access to a site's record, created empty on first use.
    pub fn entry(&mut self, site: Ip) -> &mut SiteRecord {
        self.0.entry(site).or_default()
    }

    /// A site's record, if it has one.
    pub fn get(&self, site: Ip) -> Option<&SiteRecord> {
        self.0.get(&site)
    }

    /// Whether no site has a record.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Add every record of `other` into this map.
    pub fn merge(&mut self, other: &SiteMap) {
        for (site, record) in &other.0 {
            self.entry(*site).merge(record);
        }
    }

    /// A copy with every site's function id rewritten through `f`; sites
    /// that collide after the rewrite merge.
    pub fn remap_funcs(&self, f: &mut dyn FnMut(FuncId) -> FuncId) -> SiteMap {
        let mut out = SiteMap::default();
        for (site, record) in &self.0 {
            out.entry(Ip::new(f(site.func), site.line)).merge(record);
        }
        out
    }

    /// The sum of all records — the run-wide totals of every family.
    pub fn totals(&self) -> SiteRecord {
        let mut acc = SiteRecord::default();
        for record in self.0.values() {
            acc.merge(record);
        }
        acc
    }

    /// Every record in `(func, line)` order — the byte-stable order all
    /// writers and renderers use.
    pub fn sorted(&self) -> Vec<(Ip, &SiteRecord)> {
        let mut out: Vec<_> = self.0.iter().map(|(site, r)| (*site, r)).collect();
        out.sort_by_key(|(site, _)| (site.func.0, site.line));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_mix_merges_diffs_and_chooses() {
        let mut a = BackendMix {
            lock: 2,
            stm: 10,
            hle: 1,
            switches: 1,
        };
        let b = BackendMix {
            lock: 1,
            stm: 0,
            hle: 8,
            switches: 2,
        };
        a.merge(&b);
        assert_eq!(a.total(), 22);
        assert_eq!(a.choice(), Some("stm"));
        let window = a.minus(&b);
        assert_eq!(window.stm, 10);
        assert_eq!(window.switches, 1);
        assert!(b.minus(&a).is_zero(), "saturating, not wrapping");
        assert_eq!(BackendMix::default().choice(), None);
        // Ties prefer the runtime's default flavor.
        let tie = BackendMix {
            lock: 3,
            stm: 3,
            hle: 3,
            switches: 0,
        };
        assert_eq!(tie.choice(), Some("lock"));
    }

    #[test]
    fn fields_round_trip_in_declaration_order() {
        let mix = BackendMix {
            lock: 1,
            stm: 2,
            hle: 3,
            switches: 4,
        };
        assert_eq!(BackendMix::ARITY, 4);
        assert_eq!(mix.to_fields(), [1, 2, 3, 4]);
        assert_eq!(BackendMix::from_fields([1, 2, 3, 4]), mix);
    }

    /// One record per family at `a`, plus a second site `b`.
    fn sample_map(a: Ip, b: Ip) -> SiteMap {
        let mut m = SiteMap::default();
        m.entry(a).mix.lock = 5;
        m.entry(a).hists.record_completion(100, 2, Some(40));
        m.entry(a).cm.yields = 4;
        m.entry(b).mix.stm = 3;
        m
    }

    #[test]
    fn map_merges_totals_and_sorts() {
        let a = Ip::new(FuncId(9), 1);
        let b = Ip::new(FuncId(3), 7);
        let mut m = sample_map(a, b);
        m.merge(&sample_map(a, b));
        assert_eq!(m.get(a).unwrap().mix.lock, 10);
        assert_eq!(m.get(a).unwrap().hists.fb_dwell.count, 2);
        assert_eq!(m.get(a).unwrap().cm.yields, 8);
        let totals = m.totals();
        assert_eq!(totals.mix.total(), 16);
        assert_eq!(totals.hists.tx_cycles.sum, 200);
        let order: Vec<Ip> = m.sorted().into_iter().map(|(site, _)| site).collect();
        assert_eq!(order, vec![b, a]);
        assert!(SiteMap::default().is_empty() && SiteMap::default().totals().is_zero());
    }

    #[test]
    fn remap_merges_sites_that_collide() {
        let a = Ip::new(FuncId(1), 7);
        let b = Ip::new(FuncId(2), 7);
        let m = sample_map(a, b);
        let q = m.remap_funcs(&mut |_| FuncId(100));
        let merged = q.get(Ip::new(FuncId(100), 7)).expect("both land here");
        assert_eq!((merged.mix.lock, merged.mix.stm), (5, 3));
        assert!(q.get(a).is_none());
        assert_eq!(m.get(a).unwrap().mix.lock, 5, "original untouched");
    }
}
