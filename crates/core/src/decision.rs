//! The decision-tree optimization model (paper Figure 1).
//!
//! TxSampler's signature feature: rather than dumping metrics, it walks the
//! user through a structured diagnosis. Time analysis first — is critical-
//! section time significant at all, and which component dominates? — then,
//! when fallback time or lock waiting is high, abort analysis: find the
//! site with the largest abort weight, classify its aborts, and emit the
//! matching rule-of-thumb suggestions (split/shrink/merge transactions,
//! relocate data, move unfriendly instructions out, …).

use rtm_runtime::{AdaptivePolicy, FallbackKind};
use txsim_pmu::Ip;

use crate::metrics::Metrics;
use crate::profile::Profile;
use crate::view::NameSource;

/// Tunable thresholds for the tree's branch points.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Minimum T/W for critical sections to matter (paper: 20%).
    pub r_cs_significant: f64,
    /// A time component is "large" above this share of T.
    pub component_dominant: f64,
    /// An abort-class weight ratio is "high" above this.
    pub class_dominant: f64,
    /// A class above this (but below `class_dominant`) is still reported
    /// as a secondary cause with its own advice.
    pub class_secondary: f64,
    /// Minimum sampled aborts at a site before diagnosing it.
    pub min_abort_samples: u64,
    /// Starvation scan: a site's retry-depth p99 (bucket upper bound) at
    /// or above this is "tail heavy".
    pub starvation_p99_retries: f64,
    /// Starvation scan: a tail-heavy site whose HTM commit share (the
    /// fraction of completions that did *not* take the fallback) is below
    /// this is starved.
    pub starvation_commit_share: f64,
    /// Starvation scan: ignore sites with fewer recorded completions.
    pub starvation_min_completions: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            r_cs_significant: 0.20,
            component_dominant: 0.25,
            class_dominant: 0.40,
            class_secondary: 0.08,
            min_abort_samples: 3,
            starvation_p99_retries: 6.0,
            starvation_commit_share: 0.5,
            starvation_min_completions: 20,
        }
    }
}

/// A rule-of-thumb suggestion from the right-hand side of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suggestion {
    /// Critical sections are insignificant: no HTM-related optimization.
    NoHtmOptimization,
    /// Elide a read lock (high lock waiting with benign aborts).
    ElideReadLock,
    /// Use fine-grained locks to serialize instead of one global lock.
    FineGrainedSerialization,
    /// Redesign the algorithm to reduce shared-data contention.
    RedesignAlgorithm,
    /// Shrink transactions (less work per transaction).
    ShrinkTransactions,
    /// Split one transaction into several smaller ones.
    SplitTransactions,
    /// Relocate contended data to different cache lines (false sharing).
    RelocateDataToDifferentLines,
    /// Relocate/partition data by thread (false sharing).
    RelocateDataByThread,
    /// Relocate data to share cache lines (shrink the footprint).
    RelocateDataToSharedLines,
    /// Merge small transactions into larger ones (high T_oh).
    MergeTransactions,
    /// Move unfriendly instructions/calls out of the transaction.
    MoveUnfriendlyInstructionsOut,
    /// Replace an unfriendly instruction with a friendly equivalent.
    UseFriendlyEquivalent,
    /// Run this site's fallback on a different backend. Emitted when
    /// [`AdaptivePolicy::classify`] — the *same* classifier the adaptive
    /// runtime acts on — maps the site's abort evidence to a backend other
    /// than the one the run used, so report advice and runtime behavior
    /// provably agree.
    SwitchBackend(FallbackKind),
    /// A site's retry-depth tail is heavy while its HTM commit share is
    /// low: one transaction is being repeatedly invalidated (classic
    /// large-write-set starvation). Escalate it — priority/irrevocable
    /// commit, or serialize its writers.
    Starvation,
    /// Transactional path dominates and commits: nothing to fix.
    NothingToFix,
}

impl Suggestion {
    /// Human-readable advice string.
    pub fn describe(self) -> &'static str {
        match self {
            Suggestion::NoHtmOptimization => {
                "critical sections are insignificant (T/W < threshold); no HTM-related optimization is worthwhile"
            }
            Suggestion::ElideReadLock => "elide the read lock",
            Suggestion::FineGrainedSerialization => "use fine-grained locks to serialize",
            Suggestion::RedesignAlgorithm => "redesign the algorithm to reduce shared-data contention",
            Suggestion::ShrinkTransactions => "shrink transactions",
            Suggestion::SplitTransactions => "split transactions",
            Suggestion::RelocateDataToDifferentLines => "relocate contended data to different cache lines",
            Suggestion::RelocateDataByThread => "relocate data based on threads",
            Suggestion::RelocateDataToSharedLines => "relocate data to share cache lines (reduce footprint)",
            Suggestion::MergeTransactions => "merge small transactions into a larger one to reduce overhead",
            Suggestion::MoveUnfriendlyInstructionsOut => {
                "move unfriendly instructions/calls out of the transaction"
            }
            Suggestion::UseFriendlyEquivalent => "use an HTM-friendly equivalent",
            Suggestion::SwitchBackend(FallbackKind::Lock) => {
                "switch this site's fallback to the serial lock (stop speculating on doomed attempts)"
            }
            Suggestion::SwitchBackend(FallbackKind::Stm) => {
                "switch this site's fallback to the software TM (independent overflows commit concurrently)"
            }
            Suggestion::SwitchBackend(FallbackKind::Hle) => {
                "switch this site's fallback to the elided lock (transient conflicts deserve one more attempt)"
            }
            Suggestion::SwitchBackend(FallbackKind::Adaptive) => {
                "run this site under the adaptive fallback policy"
            }
            Suggestion::Starvation => {
                "this site is starved (retry-depth tail heavy, low HTM commit share): escalate it with a priority/irrevocable commit or serialize its small writers"
            }
            Suggestion::NothingToFix => {
                "the transactional path dominates and commits well; no recommendation"
            }
        }
    }
}

/// One traversal step through the tree — the numbered red arrows of the
/// paper's Figure 1 example.
#[derive(Debug, Clone)]
pub struct Step {
    /// What the tree examined; `{site}` in it stands for the name of
    /// [`Step::site`].
    pub observation: String,
    /// The transaction site a per-site step examined.
    pub site: Option<Ip>,
    /// The measured value driving the branch.
    pub value: f64,
}

impl Step {
    /// The observation, with its site named through `names`.
    pub fn describe(&self, names: &NameSource) -> String {
        match self.site {
            Some(site) => self.observation.replace("{site}", &names.ip_name(site)),
            None => self.observation.clone(),
        }
    }
}

/// The diagnosis for one hot abort site.
#[derive(Debug, Clone)]
pub struct SiteDiagnosis {
    /// The transaction site (TM_BEGIN location or hottest statement).
    pub site: Ip,
    /// Site-level metrics driving the diagnosis.
    pub metrics: Metrics,
    /// Dominant abort class label ("conflict" / "capacity" / "sync").
    pub dominant_class: &'static str,
    /// Suggestions for this site.
    pub suggestions: Vec<Suggestion>,
}

/// The full decision-tree output.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Traversal trace (observations with values), in order.
    pub steps: Vec<Step>,
    /// Program-level suggestions from the time analysis.
    pub suggestions: Vec<Suggestion>,
    /// Per-site abort diagnoses, hottest first.
    pub sites: Vec<SiteDiagnosis>,
}

impl Diagnosis {
    /// Union of all suggestions (program-level and per-site).
    pub fn all_suggestions(&self) -> Vec<Suggestion> {
        let mut out = self.suggestions.clone();
        for s in &self.sites {
            for sug in &s.suggestions {
                if !out.contains(sug) {
                    out.push(*sug);
                }
            }
        }
        out
    }
}

/// Walk the decision tree over a merged profile.
pub fn diagnose(profile: &Profile, thresholds: &Thresholds) -> Diagnosis {
    let totals = profile.totals();
    let mut steps = Vec::new();
    let mut suggestions = Vec::new();
    let mut needs_abort_analysis = false;

    // ① Time analysis: is T significant at all?
    let r_cs = totals.r_cs();
    steps.push(Step {
        observation: "time analysis: share of cycles in critical sections (T/W)".into(),
        site: None,
        value: r_cs,
    });
    if r_cs < thresholds.r_cs_significant {
        suggestions.push(Suggestion::NoHtmOptimization);
        return Diagnosis {
            steps,
            suggestions,
            sites: Vec::new(),
        };
    }

    // ② Decompose T into components and branch on the large ones.
    let t = totals.t.max(1) as f64;
    let shares = [
        ("T_tx", totals.t_tx as f64 / t),
        ("T_fb", totals.t_fb as f64 / t),
        ("T_wait", totals.t_wait as f64 / t),
        ("T_oh", totals.t_oh as f64 / t),
    ];
    for (name, share) in shares {
        steps.push(Step {
            observation: format!("time decomposition: {name}/T"),
            site: None,
            value: share,
        });
    }
    let share = |i: usize| shares[i].1;

    if share(3) >= thresholds.component_dominant {
        // Large T_oh ⇒ transaction creation/cleanup dominates.
        suggestions.push(Suggestion::MergeTransactions);
    }
    if share(2) >= thresholds.component_dominant {
        // Large T_wait ⇒ the serialization lock is hot.
        suggestions.push(Suggestion::ElideReadLock);
        suggestions.push(Suggestion::FineGrainedSerialization);
        needs_abort_analysis = true;
    }
    if share(1) >= thresholds.component_dominant {
        // Large T_fb ⇒ frequent aborts or long fallback.
        needs_abort_analysis = true;
    }
    if suggestions.is_empty() && !needs_abort_analysis {
        suggestions.push(Suggestion::NothingToFix);
    }

    // ③④⑤⑥ Abort analysis on the hottest sites.
    let run_backend = profile
        .meta
        .fallback
        .as_deref()
        .and_then(FallbackKind::parse);
    let mut sites = Vec::new();
    if needs_abort_analysis || totals.abort_samples >= thresholds.min_abort_samples {
        for (site, m) in profile.hot_abort_sites().into_iter().take(5) {
            if m.abort_samples < thresholds.min_abort_samples {
                continue;
            }
            // What this site's fallback runs on today: the per-site mix of
            // an adaptive run when recorded, else the run's static backend.
            // Adaptive sites with no fallback activity start on the lock,
            // exactly like the runtime's fresh slots.
            let current = profile
                .records
                .get(site)
                .and_then(|r| r.mix.choice())
                .and_then(FallbackKind::parse)
                .or(run_backend)
                .map(|k| match k {
                    FallbackKind::Adaptive => FallbackKind::Lock,
                    other => other,
                })
                .unwrap_or(FallbackKind::Lock);
            sites.push(diagnose_site(
                site, m, &totals, current, thresholds, &mut steps,
            ));
        }
    }

    // ⑦ Starvation scan: distribution evidence the counters above cannot
    // see. A site whose retry-depth p99 is tail-heavy while most of its
    // completions went through the fallback is being repeatedly
    // invalidated — the large-write-set starvation failure mode. Only
    // runs that recorded histograms reach this (the scan is a no-op on
    // older profiles).
    for (site, h) in profile.hist_sites() {
        if h.retry_depth.count < thresholds.starvation_min_completions {
            continue;
        }
        let Some(p99) = h.retry_depth.percentile(0.99) else {
            continue;
        };
        if (p99 as f64) < thresholds.starvation_p99_retries {
            continue;
        }
        let commit_share = 1.0 - h.fb_dwell.count as f64 / h.retry_depth.count.max(1) as f64;
        if commit_share >= thresholds.starvation_commit_share {
            continue;
        }
        steps.push(Step {
            observation: format!(
                "starvation scan at {{site}}: retry-depth p99 <= {p99}, HTM commit share"
            ),
            site: Some(site),
            value: commit_share,
        });
        if let Some(existing) = sites.iter_mut().find(|s| s.site == site) {
            if !existing.suggestions.contains(&Suggestion::Starvation) {
                existing.suggestions.push(Suggestion::Starvation);
            }
        } else {
            sites.push(SiteDiagnosis {
                site,
                metrics: Metrics::default(),
                dominant_class: "starvation",
                suggestions: vec![Suggestion::Starvation],
            });
        }
    }

    Diagnosis {
        steps,
        suggestions,
        sites,
    }
}

fn diagnose_site(
    site: Ip,
    m: Metrics,
    totals: &Metrics,
    current: FallbackKind,
    thresholds: &Thresholds,
    steps: &mut Vec<Step>,
) -> SiteDiagnosis {
    let (r_conf, r_cap, r_sync) = (m.r_conflict(), m.r_capacity(), m.r_sync());
    steps.push(Step {
        observation: "abort analysis at {site}: weight shares conflict/capacity/sync".into(),
        site: Some(site),
        value: m.abort_weight as f64,
    });

    // Figure 1 branches the abort-type analysis per cause; a transaction
    // can (and in Dedup does) suffer several at once, so every class above
    // the secondary threshold contributes its advice, and the dominant one
    // labels the site.
    let mut suggestions = Vec::new();
    if r_conf >= thresholds.class_secondary {
        // Conflict aborts: true vs. false sharing decides the advice. The
        // shadow-memory evidence attaches to the sampled memory accesses,
        // which may sit at different statements than the transaction site;
        // fall back to program-wide contention counts when the site's own
        // are empty.
        let (true_sh, false_sh) = if m.true_sharing + m.false_sharing > 0 {
            (m.true_sharing, m.false_sharing)
        } else {
            (totals.true_sharing, totals.false_sharing)
        };
        if false_sh > true_sh {
            suggestions.push(Suggestion::RelocateDataToDifferentLines);
            suggestions.push(Suggestion::RelocateDataByThread);
        } else {
            suggestions.push(Suggestion::RedesignAlgorithm);
            suggestions.push(Suggestion::ShrinkTransactions);
            suggestions.push(Suggestion::SplitTransactions);
        }
    }
    if r_cap >= thresholds.class_secondary {
        suggestions.push(Suggestion::SplitTransactions);
        suggestions.push(Suggestion::ShrinkTransactions);
        suggestions.push(Suggestion::RelocateDataToSharedLines);
    }
    if r_sync >= thresholds.class_secondary {
        suggestions.push(Suggestion::MoveUnfriendlyInstructionsOut);
        suggestions.push(Suggestion::UseFriendlyEquivalent);
    }
    suggestions.dedup();

    // The control-loop branch: ask the adaptive runtime's own classifier
    // what backend this evidence wants. Reaching here already implies real
    // abort pressure (`min_abort_samples`), the sampled analog of the
    // policy's `min_pressure` gate; disagreement with the current choice
    // becomes advice the adaptive backend would act on by itself.
    if let Some(target) = AdaptivePolicy::DEFAULT.classify(r_conf, r_cap, r_sync, m.r_validation())
    {
        if target != current {
            suggestions.push(Suggestion::SwitchBackend(target));
        }
    }

    let dominant_class = if suggestions.is_empty() {
        suggestions.push(Suggestion::ShrinkTransactions);
        "mixed"
    } else if r_conf >= r_cap && r_conf >= r_sync && r_conf >= thresholds.class_dominant {
        "conflict"
    } else if r_cap >= r_sync && r_cap >= thresholds.class_dominant {
        "capacity"
    } else if r_sync >= thresholds.class_dominant {
        "sync"
    } else {
        "mixed"
    };

    SiteDiagnosis {
        site,
        metrics: m,
        dominant_class,
        suggestions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cct::{NodeKey, ROOT};
    use crate::metrics::TimeComponent;
    use txsim_pmu::{AbortClass, FuncId};

    fn profile_with(f: impl FnOnce(&mut Profile)) -> Profile {
        let mut p = Profile::default();
        f(&mut p);
        p
    }

    fn stmt(p: &mut Profile, func: u32, line: u32) -> crate::cct::NodeId {
        p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(func), line),
                speculative: false,
            },
        )
    }

    #[test]
    fn insignificant_cs_short_circuits() {
        let p = profile_with(|p| {
            let n = stmt(p, 1, 1);
            for _ in 0..90 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::Outside);
            }
            for _ in 0..10 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
        });
        let d = diagnose(&p, &Thresholds::default());
        assert_eq!(d.suggestions, vec![Suggestion::NoHtmOptimization]);
        assert!(d.sites.is_empty());
    }

    #[test]
    fn high_overhead_suggests_merging() {
        let p = profile_with(|p| {
            let n = stmt(p, 1, 1);
            for _ in 0..50 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::Overhead);
            }
            for _ in 0..50 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
        });
        let d = diagnose(&p, &Thresholds::default());
        assert!(d.suggestions.contains(&Suggestion::MergeTransactions));
    }

    #[test]
    fn high_wait_suggests_lock_relief_and_abort_analysis() {
        let p = profile_with(|p| {
            let n = stmt(p, 1, 1);
            for _ in 0..80 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::LockWaiting);
            }
            for _ in 0..20 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            // A conflict-heavy site with true sharing.
            let m = p.cct.metrics_mut(n);
            m.abort_samples = 10;
            m.abort_weight = 1000;
            m.aborts_conflict = 10;
            m.conflict_weight = 1000;
            m.true_sharing = 5;
        });
        let d = diagnose(&p, &Thresholds::default());
        assert!(d.suggestions.contains(&Suggestion::ElideReadLock));
        assert_eq!(d.sites.len(), 1);
        assert_eq!(d.sites[0].dominant_class, "conflict");
        assert!(d.sites[0]
            .suggestions
            .contains(&Suggestion::SplitTransactions));
        assert!(!d.sites[0]
            .suggestions
            .contains(&Suggestion::RelocateDataToDifferentLines));
    }

    #[test]
    fn site_steps_name_their_site_through_the_name_source() {
        let p = profile_with(|p| {
            let n = stmt(p, 3, 9);
            for _ in 0..100 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::LockWaiting);
            }
            for _ in 0..10 {
                p.cct
                    .metrics_mut(n)
                    .add_abort_sample(AbortClass::Conflict, 100);
            }
        });
        let d = diagnose(&p, &Thresholds::default());
        let step = d
            .steps
            .iter()
            .find(|s| s.site.is_some())
            .expect("an abort-analysis step");
        assert_eq!(step.site, Some(Ip::new(FuncId(3), 9)));
        let names = [(3, "hot_update".to_string())].into_iter().collect();
        assert_eq!(
            step.describe(&NameSource::Names(&names)),
            "abort analysis at hot_update:9: weight shares conflict/capacity/sync"
        );
        assert!(step
            .describe(&NameSource::Anonymous)
            .starts_with("abort analysis at func3:9:"));
    }

    #[test]
    fn false_sharing_flips_conflict_advice() {
        let p = profile_with(|p| {
            let n = stmt(p, 1, 1);
            for _ in 0..60 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::Fallback);
            }
            for _ in 0..40 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            let m = p.cct.metrics_mut(n);
            m.abort_samples = 10;
            m.abort_weight = 1000;
            m.aborts_conflict = 10;
            m.conflict_weight = 1000;
            m.false_sharing = 9;
            m.true_sharing = 1;
        });
        let d = diagnose(&p, &Thresholds::default());
        assert!(d.sites[0]
            .suggestions
            .contains(&Suggestion::RelocateDataToDifferentLines));
    }

    #[test]
    fn capacity_aborts_suggest_splitting() {
        let p = profile_with(|p| {
            let n = stmt(p, 1, 1);
            for _ in 0..70 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::Fallback);
            }
            for _ in 0..30 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            let m = p.cct.metrics_mut(n);
            m.abort_samples = 10;
            m.abort_weight = 1000;
            m.aborts_capacity = 9;
            m.capacity_weight = 900;
            m.aborts_conflict = 1;
            m.conflict_weight = 100;
        });
        let d = diagnose(&p, &Thresholds::default());
        assert_eq!(d.sites[0].dominant_class, "capacity");
        assert!(d.sites[0]
            .suggestions
            .contains(&Suggestion::SplitTransactions));
    }

    #[test]
    fn sync_aborts_suggest_moving_instructions() {
        let p = profile_with(|p| {
            let n = stmt(p, 1, 1);
            for _ in 0..70 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::Fallback);
            }
            for _ in 0..30 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            let m = p.cct.metrics_mut(n);
            m.abort_samples = 10;
            m.abort_weight = 1000;
            m.aborts_sync = 10;
            m.sync_weight = 1000;
        });
        let d = diagnose(&p, &Thresholds::default());
        assert_eq!(d.sites[0].dominant_class, "sync");
        assert!(d.sites[0]
            .suggestions
            .contains(&Suggestion::MoveUnfriendlyInstructionsOut));
    }

    #[test]
    fn capacity_site_on_lock_run_wants_stm() {
        let p = profile_with(|p| {
            let n = stmt(p, 1, 1);
            for _ in 0..70 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::Fallback);
            }
            for _ in 0..30 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            let m = p.cct.metrics_mut(n);
            m.abort_samples = 10;
            m.abort_weight = 1000;
            m.aborts_capacity = 10;
            m.capacity_weight = 1000;
            p.meta.fallback = Some("lock".to_string());
        });
        let d = diagnose(&p, &Thresholds::default());
        assert!(d.sites[0]
            .suggestions
            .contains(&Suggestion::SwitchBackend(FallbackKind::Stm)));
        // Same evidence on an STM run: the classifier agrees with the
        // current choice, so no switch is advised.
        let mut q = p.clone();
        q.meta.fallback = Some("stm".to_string());
        let d = diagnose(&q, &Thresholds::default());
        assert!(!d.sites[0]
            .suggestions
            .iter()
            .any(|s| matches!(s, Suggestion::SwitchBackend(_))));
    }

    #[test]
    fn conflict_site_wants_hle_and_sync_site_keeps_lock() {
        let p = profile_with(|p| {
            let conflict = stmt(p, 1, 1);
            for _ in 0..60 {
                p.cct
                    .metrics_mut(conflict)
                    .add_cycles_sample(TimeComponent::Fallback);
            }
            for _ in 0..40 {
                p.cct
                    .metrics_mut(conflict)
                    .add_cycles_sample(TimeComponent::Tx);
            }
            let m = p.cct.metrics_mut(conflict);
            m.abort_samples = 10;
            m.abort_weight = 1000;
            m.aborts_conflict = 10;
            m.conflict_weight = 1000;
            m.true_sharing = 5;
            let sync = stmt(p, 2, 2);
            let m = p.cct.metrics_mut(sync);
            m.abort_samples = 10;
            m.abort_weight = 500;
            m.aborts_sync = 10;
            m.sync_weight = 500;
            p.meta.fallback = Some("lock".to_string());
        });
        let d = diagnose(&p, &Thresholds::default());
        let by_site = |func: u32| {
            d.sites
                .iter()
                .find(|s| s.site.func.0 == func)
                .expect("site diagnosed")
        };
        assert!(by_site(1)
            .suggestions
            .contains(&Suggestion::SwitchBackend(FallbackKind::Hle)));
        // Sync-dominant wants the lock — which the run already uses.
        assert!(!by_site(2)
            .suggestions
            .iter()
            .any(|s| matches!(s, Suggestion::SwitchBackend(_))));
    }

    #[test]
    fn per_site_mix_overrides_run_backend() {
        // An adaptive run that already moved the site to STM: the recorded
        // per-site mix, not the run-level `fallback=adaptive`, is the
        // current choice, so no switch is advised.
        let p = profile_with(|p| {
            let n = stmt(p, 1, 1);
            for _ in 0..70 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::Fallback);
            }
            for _ in 0..30 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            let m = p.cct.metrics_mut(n);
            m.abort_samples = 10;
            m.abort_weight = 1000;
            m.aborts_capacity = 10;
            m.capacity_weight = 1000;
            p.meta.fallback = Some("adaptive".to_string());
            p.records.entry(Ip::new(FuncId(1), 1)).mix = crate::metrics::BackendMix {
                stm: 20,
                switches: 1,
                ..Default::default()
            };
        });
        let d = diagnose(&p, &Thresholds::default());
        assert!(!d.sites[0]
            .suggestions
            .iter()
            .any(|s| matches!(s, Suggestion::SwitchBackend(_))));
        // Without the mix, `fallback=adaptive` means fresh slots on the
        // lock — the switch is advised again.
        let mut q = p.clone();
        q.records = Default::default();
        let d = diagnose(&q, &Thresholds::default());
        assert!(d.sites[0]
            .suggestions
            .contains(&Suggestion::SwitchBackend(FallbackKind::Stm)));
    }

    #[test]
    fn starved_site_fires_starvation_branch() {
        let site = Ip::new(FuncId(7), 3);
        let p = profile_with(|p| {
            let n = stmt(p, 7, 3);
            for _ in 0..60 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::Fallback);
            }
            for _ in 0..40 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            // 30 completions, most at depth 7 through the fallback: tail
            // heavy, commit share 1/30.
            let h = &mut p.records.entry(site).hists;
            h.record_completion(500, 1, None);
            for _ in 0..29 {
                h.record_completion(9000, 7, Some(4000));
            }
        });
        let d = diagnose(&p, &Thresholds::default());
        assert!(d.all_suggestions().contains(&Suggestion::Starvation));
        let diag = d
            .sites
            .iter()
            .find(|s| s.site == site)
            .expect("starved site diagnosed");
        assert_eq!(diag.dominant_class, "starvation");
        assert!(d
            .steps
            .iter()
            .any(|s| s.observation.contains("starvation scan")));

        // A healthy site with the same volume never fires: depth 1, no
        // fallback completions.
        let q = profile_with(|p| {
            let n = stmt(p, 7, 3);
            for _ in 0..100 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            let h = &mut p.records.entry(site).hists;
            for _ in 0..30 {
                h.record_completion(500, 1, None);
            }
        });
        let d = diagnose(&q, &Thresholds::default());
        assert!(!d.all_suggestions().contains(&Suggestion::Starvation));

        // Tail-heavy but committing in HTM (retries succeed eventually):
        // not starvation either.
        let r = profile_with(|p| {
            let n = stmt(p, 7, 3);
            for _ in 0..100 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            let h = &mut p.records.entry(site).hists;
            for _ in 0..30 {
                h.record_completion(500, 7, None);
            }
        });
        let d = diagnose(&r, &Thresholds::default());
        assert!(!d.all_suggestions().contains(&Suggestion::Starvation));
    }

    #[test]
    fn healthy_tx_path_recommends_nothing() {
        let p = profile_with(|p| {
            let n = stmt(p, 1, 1);
            for _ in 0..95 {
                p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
            }
            for _ in 0..5 {
                p.cct
                    .metrics_mut(n)
                    .add_cycles_sample(TimeComponent::Overhead);
            }
        });
        let d = diagnose(&p, &Thresholds::default());
        assert_eq!(d.suggestions, vec![Suggestion::NothingToFix]);
    }
}
