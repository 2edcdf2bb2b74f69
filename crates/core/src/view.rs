//! The analysis pipeline's shared input: a [`ProfileView`] bundles a
//! profile with a name-resolution strategy and the precomputed totals and
//! time breakdown every consumer needs.
//!
//! Before this existed, each renderer (text report, TSV export, Prometheus
//! exposition, diff) re-derived totals and resolved names its own way —
//! four parallel copies of the same metric extraction. Now every pass
//! (`report::render_*`, `report::tsv_row`, the live exposition, the diff
//! renderer) consumes one `ProfileView`, so a new output format is a new
//! pass over the view, not a new derivation path.

use txsim_pmu::{FuncId, FuncRegistry, Ip};

use crate::metrics::Metrics;
use crate::profile::{Profile, TimeBreakdown};
use crate::store::FuncNames;

/// Where a view resolves [`FuncId`]s to human-readable names.
///
/// Live consumers hold the run's [`FuncRegistry`]; offline consumers hold
/// the `func` records loaded from a stored profile; machine-facing
/// consumers (Prometheus, TSV) need no names at all. In every case an
/// unresolvable id degrades to the stable `funcN` label rather than
/// panicking, so the same render code serves all three.
pub enum NameSource<'a> {
    /// Resolve through the run's live function registry.
    Registry(&'a FuncRegistry),
    /// Resolve through `func` records loaded from a stored profile.
    Names(&'a FuncNames),
    /// No names available: every id renders as `funcN`.
    Anonymous,
}

impl NameSource<'_> {
    /// Resolve one function id to a display name.
    pub fn func_name(&self, id: FuncId) -> String {
        match self {
            NameSource::Registry(registry) => registry.name(id),
            NameSource::Names(names) => names
                .get(&id.0)
                .cloned()
                .unwrap_or_else(|| format!("func{}", id.0)),
            NameSource::Anonymous => format!("func{}", id.0),
        }
    }

    /// Resolve an IP to `func:line` text.
    pub fn ip_name(&self, ip: Ip) -> String {
        format!("{}:{}", self.func_name(ip.func), ip.line)
    }
}

/// A profile prepared for rendering: the profile itself, a name source,
/// and the totals/breakdown every pass would otherwise recompute.
pub struct ProfileView<'a> {
    /// The underlying profile.
    pub profile: &'a Profile,
    /// How [`FuncId`]s resolve to names.
    pub names: NameSource<'a>,
    /// Whole-program metric totals (one CCT walk, done once).
    pub totals: Metrics,
    /// The Figure-7 time decomposition of `totals`.
    pub breakdown: TimeBreakdown,
}

impl<'a> ProfileView<'a> {
    /// Build a view with an explicit name source.
    pub fn new(profile: &'a Profile, names: NameSource<'a>) -> ProfileView<'a> {
        let totals = profile.totals();
        let breakdown = TimeBreakdown::from_metrics(&totals);
        ProfileView {
            profile,
            names,
            totals,
            breakdown,
        }
    }

    /// View resolving names through the run's live registry.
    pub fn from_registry(profile: &'a Profile, registry: &'a FuncRegistry) -> ProfileView<'a> {
        ProfileView::new(profile, NameSource::Registry(registry))
    }

    /// View resolving names through loaded `func` records.
    pub fn from_names(profile: &'a Profile, names: &'a FuncNames) -> ProfileView<'a> {
        ProfileView::new(profile, NameSource::Names(names))
    }

    /// View with no name resolution (`funcN` labels).
    pub fn anonymous(profile: &'a Profile) -> ProfileView<'a> {
        ProfileView::new(profile, NameSource::Anonymous)
    }

    /// Resolve a function id to a display name.
    pub fn func_name(&self, id: FuncId) -> String {
        self.names.func_name(id)
    }

    /// Resolve an IP to `func:line` text.
    pub fn ip_name(&self, ip: Ip) -> String {
        self.names.ip_name(ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cct::{NodeKey, ROOT};
    use crate::metrics::TimeComponent;

    #[test]
    fn totals_are_precomputed_once_and_match_profile() {
        let mut p = Profile::default();
        let n = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(1), 2),
                speculative: false,
            },
        );
        p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
        let view = ProfileView::anonymous(&p);
        assert_eq!(view.totals, p.totals());
        assert_eq!(view.breakdown, p.time_breakdown());
    }

    #[test]
    fn name_sources_degrade_to_stable_labels() {
        let registry = FuncRegistry::new();
        let f = registry.intern("alpha", "a.rs", 1);
        let p = Profile::default();

        let view = ProfileView::from_registry(&p, &registry);
        assert_eq!(view.func_name(f), "alpha");

        let names: FuncNames = [(f.0, "alpha".to_string())].into_iter().collect();
        let view = ProfileView::from_names(&p, &names);
        assert_eq!(view.func_name(f), "alpha");
        assert_eq!(view.func_name(FuncId(99)), "func99");

        let view = ProfileView::anonymous(&p);
        assert_eq!(view.ip_name(Ip::new(f, 7)), format!("func{}:7", f.0));
    }
}
