//! Differential profiling: align two profiles and report what changed.
//!
//! TxSampler's workflow is iterative — profile, follow the decision tree,
//! apply the suggested fix, re-profile (the paper's Table 2 measures
//! exactly those before/after pairs). This module closes that loop: given
//! a baseline profile A and a comparison profile B it
//!
//! 1. **aligns the two CCTs by call path** — nodes match when their
//!    root-to-node chain of [`NodeKey`]s matches, never by node id, so
//!    profiles from separate runs (different interleavings, different CCT
//!    growth order) align as long as the workloads intern functions
//!    deterministically;
//! 2. computes per-node and per-site metric deltas ([`Metrics::minus`]
//!    for the monotone counters, signed deltas for derived ratios like
//!    `r_cs` and the component shares);
//! 3. ranks the top regressed and improved call paths;
//! 4. re-runs the Figure-1 decision tree on both sides and reports which
//!    suggestions were *resolved*, which *persist*, and which *newly
//!    appeared*.
//!
//! Provenance (the v2 store header) is compared first: diffing a 4-thread
//! run against a 14-thread run is legal but the output says so loudly.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;

use rtm_runtime::{CmStats, SiteHists};
use txsim_pmu::Ip;

use crate::cct::{Cct, NodeId, NodeKey, ROOT};
use crate::decision::{diagnose, Suggestion, Thresholds};
use crate::metrics::{BackendMix, Metrics};
use crate::profile::{Profile, TimeBreakdown, ABORT_CLASSES, TIME_COMPONENTS};
use crate::report::{band, folded_frame, key_rank, pct, time_entries};
use crate::view::NameSource;

/// One aligned CCT node whose exclusive metrics differ between the sides.
#[derive(Debug, Clone)]
pub struct NodeDiff {
    /// Root-to-node key path (root excluded).
    pub path: Vec<NodeKey>,
    /// Exclusive metrics on the baseline side (zero when absent).
    pub a: Metrics,
    /// Exclusive metrics on the comparison side (zero when absent).
    pub b: Metrics,
}

impl NodeDiff {
    /// Signed work delta (B − A) in exclusive W samples.
    pub fn dw(&self) -> i64 {
        self.b.w as i64 - self.a.w as i64
    }

    /// Signed abort-weight delta (B − A).
    pub fn dabort_weight(&self) -> i64 {
        self.b.abort_weight as i64 - self.a.abort_weight as i64
    }
}

/// One transaction site's abort metrics on both sides.
#[derive(Debug, Clone)]
pub struct SiteDiff {
    /// The site IP (aggregation key of [`Profile::hot_abort_sites`]).
    pub site: Ip,
    /// Baseline-side per-site metrics (zero when absent).
    pub a: Metrics,
    /// Comparison-side per-site metrics (zero when absent).
    pub b: Metrics,
}

impl SiteDiff {
    /// Signed abort-weight delta (B − A).
    pub fn dabort_weight(&self) -> i64 {
        self.b.abort_weight as i64 - self.a.abort_weight as i64
    }
}

/// One transaction site's latency/retry histograms on both sides.
#[derive(Debug, Clone)]
pub struct HistSiteDiff {
    /// The site IP (aggregation key of [`Profile::hist_sites`]).
    pub site: Ip,
    /// Baseline-side histograms (zero when absent).
    pub a: SiteHists,
    /// Comparison-side histograms (zero when absent).
    pub b: SiteHists,
}

impl HistSiteDiff {
    /// Signed tx-cycles p99 bucket-index shift (B − A). `None` unless both
    /// sides recorded commits at this site.
    pub fn d_p99_bucket(&self) -> Option<i32> {
        let a = self.a.tx_cycles.percentile_bucket(0.99)?;
        let b = self.b.tx_cycles.percentile_bucket(0.99)?;
        Some(b as i32 - a as i32)
    }
}

/// How the decision tree's advice moved between the two sides.
#[derive(Debug, Clone, Default)]
pub struct SuggestionChanges {
    /// Suggested on A, no longer suggested on B.
    pub resolved: Vec<Suggestion>,
    /// Suggested on both sides.
    pub persisting: Vec<Suggestion>,
    /// Not suggested on A, suggested on B.
    pub appeared: Vec<Suggestion>,
}

/// The full structured diff of two profiles.
#[derive(Debug, Clone)]
pub struct ProfileDiff {
    /// Baseline totals.
    pub a_totals: Metrics,
    /// Comparison totals.
    pub b_totals: Metrics,
    /// Baseline time decomposition.
    pub a_breakdown: TimeBreakdown,
    /// Comparison time decomposition.
    pub b_breakdown: TimeBreakdown,
    /// Monotone counters gained on B relative to A ([`Metrics::minus`],
    /// saturating — a counter that shrank reads zero here).
    pub gained: Metrics,
    /// Monotone counters lost on B relative to A (the other direction).
    pub lost: Metrics,
    /// Sample counts of the two sides.
    pub samples: (u64, u64),
    /// Aligned nodes whose exclusive metrics differ, canonical path order.
    pub nodes: Vec<NodeDiff>,
    /// Abort sites present on either side with differing abort metrics.
    pub sites: Vec<SiteDiff>,
    /// Sites with latency/retry histograms on either side whose
    /// histograms differ (empty when neither side has any).
    pub hist_sites: Vec<HistSiteDiff>,
    /// Decision-tree movement between the sides.
    pub suggestions: SuggestionChanges,
    /// Baseline fallback-backend mix (the stamped run-level mix when
    /// present, else the sum of per-site mixes; zero for static runs).
    pub a_mix: BackendMix,
    /// Comparison fallback-backend mix.
    pub b_mix: BackendMix,
    /// Baseline contention-manager intervention totals (zero when no CM
    /// ran — older profiles render identically).
    pub a_cm: CmStats,
    /// Comparison contention-manager intervention totals.
    pub b_cm: CmStats,
    /// Provenance mismatches (different workload/threads/period).
    pub warnings: Vec<String>,
}

/// Signed share delta per time component (B − A), in catalog order.
fn share_deltas(a: &TimeBreakdown, b: &TimeBreakdown) -> [f64; 5] {
    TIME_COMPONENTS.map(|c| (c.share)(b) - (c.share)(a))
}

impl ProfileDiff {
    /// Signed share delta per time component (B − A), in
    /// [`TIME_COMPONENTS`] order: non-CS, HTM, fallback, lock-wait,
    /// overhead.
    pub fn share_deltas(&self) -> [f64; 5] {
        share_deltas(&self.a_breakdown, &self.b_breakdown)
    }

    /// The time component whose share shrank the most (label, signed
    /// delta), if any shrank — "where did the run stop spending time".
    pub fn dominant_improvement(&self) -> Option<(&'static str, f64)> {
        let (c, d) = TIME_COMPONENTS
            .iter()
            .zip(self.share_deltas())
            .min_by(|(_, x), (_, y)| x.total_cmp(y))?;
        (d < 0.0).then_some((c.label, d))
    }

    /// The time component whose share grew the most (label, signed delta),
    /// if any grew.
    pub fn dominant_regression(&self) -> Option<(&'static str, f64)> {
        let (c, d) = TIME_COMPONENTS
            .iter()
            .zip(self.share_deltas())
            .max_by(|(_, x), (_, y)| x.total_cmp(y))?;
        (d > 0.0).then_some((c.label, d))
    }

    /// Signed r_cs delta (B − A).
    pub fn d_r_cs(&self) -> f64 {
        self.b_totals.r_cs() - self.a_totals.r_cs()
    }

    /// Nodes ranked most-regressed first (largest positive ΔW).
    pub fn top_regressed(&self, n: usize) -> Vec<&NodeDiff> {
        let mut v: Vec<&NodeDiff> = self.nodes.iter().filter(|d| d.dw() > 0).collect();
        v.sort_by_key(|d| std::cmp::Reverse(d.dw()));
        v.truncate(n);
        v
    }

    /// Nodes ranked most-improved first (largest negative ΔW).
    pub fn top_improved(&self, n: usize) -> Vec<&NodeDiff> {
        let mut v: Vec<&NodeDiff> = self.nodes.iter().filter(|d| d.dw() < 0).collect();
        v.sort_by_key(|d| d.dw());
        v.truncate(n);
        v
    }

    /// Sites whose tx-cycles p99 regressed by at least `min_buckets`
    /// log-buckets (so ≥ 2 means "p99 at least ~4× worse"). Only sites
    /// with enough commits on *both* sides to make the tail meaningful
    /// (≥ 32 each) participate — fresh or vanished sites never trigger.
    pub fn p99_regressions(&self, min_buckets: u32) -> Vec<&HistSiteDiff> {
        self.hist_sites
            .iter()
            .filter(|d| d.a.tx_cycles.count >= 32 && d.b.tx_cycles.count >= 32)
            .filter(|d| d.d_p99_bucket().is_some_and(|s| s >= min_buckets as i32))
            .collect()
    }
}

/// Compare the provenance of two profiles, returning human-readable
/// warnings for every field recorded on both sides that disagrees.
fn provenance_warnings(a: &Profile, b: &Profile) -> Vec<String> {
    let mut warnings = Vec::new();
    if let (Some(wa), Some(wb)) = (&a.meta.workload, &b.meta.workload) {
        if wa != wb {
            warnings.push(format!("workload differs: '{wa}' vs '{wb}'"));
        }
    }
    if let (Some(ta), Some(tb)) = (a.meta.threads, b.meta.threads) {
        if ta != tb {
            warnings.push(format!("thread count differs: {ta} vs {tb}"));
        }
    }
    if let (Some(pa), Some(pb)) = (a.meta.sample_period, b.meta.sample_period) {
        if pa != pb {
            warnings.push(format!(
                "sample period differs: {pa} vs {pb} (sample counts are not directly comparable)"
            ));
        }
    }
    if let (Some(fa), Some(fb)) = (&a.meta.fallback, &b.meta.fallback) {
        if fa != fb {
            warnings.push(format!(
                "fallback backend differs: '{fa}' vs '{fb}' \
                 (fallback-time movement may reflect the backend, not the workload)"
            ));
        }
    }
    if let (Some(ca), Some(cb)) = (&a.meta.cm, &b.meta.cm) {
        if ca != cb {
            warnings.push(format!(
                "contention manager differs: '{ca}' vs '{cb}' \
                 (retry-depth movement may reflect the arbitration policy, not the workload)"
            ));
        }
    }
    warnings
}

/// The children of `node` (none when the node is absent), with their keys,
/// in canonical [`key_rank`] order.
fn ranked_children(cct: &Cct, node: Option<NodeId>) -> Vec<(NodeKey, NodeId)> {
    let mut children: Vec<(NodeKey, NodeId)> = node
        .into_iter()
        .flat_map(|n| cct.children(n))
        .filter_map(|c| Some((cct.key(c)?, c)))
        .collect();
    children.sort_unstable_by_key(|&(k, _)| key_rank(k));
    children
}

/// Recursive simultaneous walk of both CCTs, matching children by
/// [`NodeKey`]. The union of child keys is visited in canonical
/// [`key_rank`] order, so the emitted node list is deterministic
/// regardless of either tree's insertion order. Both sides' children are
/// sorted by that order and merge-joined, so each level costs a sort, not
/// a scan per key.
fn align(
    a: &Cct,
    an: Option<NodeId>,
    b: &Cct,
    bn: Option<NodeId>,
    path: &mut Vec<NodeKey>,
    out: &mut Vec<NodeDiff>,
) {
    let a_children = ranked_children(a, an);
    let b_children = ranked_children(b, bn);
    let (mut i, mut j) = (0, 0);
    while i < a_children.len() || j < b_children.len() {
        // `key_rank` is injective, so equal ranks mean the same key.
        let order = match (a_children.get(i), b_children.get(j)) {
            (Some(&(ka, _)), Some(&(kb, _))) => key_rank(ka).cmp(&key_rank(kb)),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        let (key, ac, bc) = match order {
            Ordering::Less => (a_children[i].0, Some(a_children[i].1), None),
            Ordering::Greater => (b_children[j].0, None, Some(b_children[j].1)),
            Ordering::Equal => (
                a_children[i].0,
                Some(a_children[i].1),
                Some(b_children[j].1),
            ),
        };
        i += usize::from(ac.is_some());
        j += usize::from(bc.is_some());
        let am = ac.map(|c| *a.metrics(c)).unwrap_or_default();
        let bm = bc.map(|c| *b.metrics(c)).unwrap_or_default();
        path.push(key);
        if am != bm {
            out.push(NodeDiff {
                path: path.clone(),
                a: am,
                b: bm,
            });
        }
        align(a, ac, b, bc, path, out);
        path.pop();
    }
}

/// Classify the decision-tree movement between side A and side B.
fn suggestion_changes(a: &Profile, b: &Profile, thresholds: &Thresholds) -> SuggestionChanges {
    let before = diagnose(a, thresholds).all_suggestions();
    let after = diagnose(b, thresholds).all_suggestions();
    SuggestionChanges {
        resolved: before
            .iter()
            .filter(|s| !after.contains(s))
            .copied()
            .collect(),
        persisting: before
            .iter()
            .filter(|s| after.contains(s))
            .copied()
            .collect(),
        appeared: after
            .iter()
            .filter(|s| !before.contains(s))
            .copied()
            .collect(),
    }
}

/// Diff two profiles: A is the baseline, B the comparison.
pub fn diff_profiles(a: &Profile, b: &Profile, thresholds: &Thresholds) -> ProfileDiff {
    let a_totals = a.totals();
    let b_totals = b.totals();

    let mut nodes = Vec::new();
    align(
        &a.cct,
        Some(ROOT),
        &b.cct,
        Some(ROOT),
        &mut Vec::new(),
        &mut nodes,
    );

    // Per-site join on the abort-site aggregation both reports use.
    // B's sites are indexed once and each is taken as A's walk matches it,
    // so what remains are B's sites absent from A.
    let mut b_sites: HashMap<Ip, Metrics> = b.hot_abort_sites().into_iter().collect();
    let mut sites: Vec<SiteDiff> = Vec::new();
    for (site, am) in a.hot_abort_sites() {
        let bm = b_sites.remove(&site).unwrap_or_default();
        if am != bm {
            sites.push(SiteDiff { site, a: am, b: bm });
        }
    }
    sites.extend(b_sites.into_iter().map(|(site, bm)| SiteDiff {
        site,
        a: Metrics::default(),
        b: bm,
    }));
    sites.sort_by_key(|d| {
        (
            std::cmp::Reverse(d.dabort_weight().unsigned_abs()),
            d.site.func.0,
            d.site.line,
        )
    });

    // Per-site histogram join: every site with distributions on either
    // side whose histograms differ.
    let hists_of = |p: &Profile, site: Ip| p.records.get(site).map(|r| r.hists);
    let mut hist_sites: Vec<HistSiteDiff> = Vec::new();
    for (site, ra) in a.records.sorted() {
        let bh = hists_of(b, site).unwrap_or_default();
        if ra.hists != bh {
            hist_sites.push(HistSiteDiff {
                site,
                a: ra.hists,
                b: bh,
            });
        }
    }
    for (site, rb) in b.records.sorted() {
        if !rb.hists.is_zero() && hists_of(a, site).is_none() {
            hist_sites.push(HistSiteDiff {
                site,
                a: SiteHists::default(),
                b: rb.hists,
            });
        }
    }
    hist_sites.sort_by_key(|d| {
        (
            std::cmp::Reverse(d.d_p99_bucket().unwrap_or(0)),
            d.site.func.0,
            d.site.line,
        )
    });

    ProfileDiff {
        a_breakdown: TimeBreakdown::from_metrics(&a_totals),
        b_breakdown: TimeBreakdown::from_metrics(&b_totals),
        gained: b_totals.minus(&a_totals),
        lost: a_totals.minus(&b_totals),
        samples: (a.samples, b.samples),
        a_totals,
        b_totals,
        nodes,
        sites,
        hist_sites,
        suggestions: suggestion_changes(a, b, thresholds),
        a_mix: a.meta.mix.unwrap_or_else(|| a.backend_totals()),
        b_mix: b.meta.mix.unwrap_or_else(|| b.backend_totals()),
        a_cm: a.cm_totals(),
        b_cm: b.cm_totals(),
        warnings: provenance_warnings(a, b),
    }
}

/// Signed percentage-point text: `+3.2pp` / `-5.0pp`.
fn pp(delta: f64) -> String {
    format!("{:+.1}pp", delta * 100.0)
}

/// Render a totals-level diff — time decomposition bars for both sides,
/// signed component-share deltas, abort movement and ratio deltas. Also
/// serves epoch-window diffs in `crates/live`, where only metric totals
/// (no CCTs) are retained per epoch.
pub fn render_totals_diff(label_a: &str, label_b: &str, a: &Metrics, b: &Metrics) -> String {
    let ab = TimeBreakdown::from_metrics(a);
    let bb = TimeBreakdown::from_metrics(b);
    let mut out = String::new();
    for (label, br) in [(label_a, &ab), (label_b, &bb)] {
        band(&mut out, &format!("time {label:>2} "), &time_entries(br));
        out.push('\n');
    }
    out.push_str("Δshare   ");
    for (c, d) in TIME_COMPONENTS.iter().zip(share_deltas(&ab, &bb)) {
        write!(out, " {} {}", c.label, pp(d)).unwrap();
    }
    out.push('\n');
    writeln!(
        out,
        "aborts: samples {} → {} ({:+}), weight {} → {} ({:+})",
        a.abort_samples,
        b.abort_samples,
        b.abort_samples as i64 - a.abort_samples as i64,
        a.abort_weight,
        b.abort_weight,
        b.abort_weight as i64 - a.abort_weight as i64,
    )
    .unwrap();
    out.push_str("  by class:");
    let mut sep = " ";
    for r in &ABORT_CLASSES {
        let (na, nb) = (r.count(a), r.count(b));
        if !r.stm_only || na + nb > 0 {
            write!(out, "{sep}{} {na} → {nb}", r.label()).unwrap();
            sep = ", ";
        }
    }
    out.push('\n');
    if a.t_fb_stm + b.t_fb_stm > 0 {
        writeln!(
            out,
            "fallback-stm: {} → {} of {} → {} fallback samples (share {} → {})",
            a.t_fb_stm,
            b.t_fb_stm,
            a.t_fb,
            b.t_fb,
            pct(a.stm_fallback_share()),
            pct(b.stm_fallback_share()),
        )
        .unwrap();
    }
    writeln!(
        out,
        "r_cs {:.3} → {:.3} ({:+.3}); a/c {:.3} → {:.3} ({:+.3})",
        a.r_cs(),
        b.r_cs(),
        b.r_cs() - a.r_cs(),
        a.abort_commit_ratio(),
        b.abort_commit_ratio(),
        b.abort_commit_ratio() - a.abort_commit_ratio(),
    )
    .unwrap();
    out
}

/// `p50/p99` upper-bound text for one histogram, `-` when empty.
fn hist_p50_p99(h: &rtm_runtime::Hist32) -> String {
    match (h.percentile(0.50), h.percentile(0.99)) {
        (Some(p50), Some(p99)) => format!("{p50}/{p99}"),
        _ => "-".to_string(),
    }
}

/// Render one node path as a `;`-joined folded-style stack.
fn path_label(path: &[NodeKey], names: &NameSource) -> String {
    let frames: Vec<String> = path.iter().map(|&key| folded_frame(key, names)).collect();
    frames.join(";")
}

/// Render the full diff report. Deterministic for a given pair of
/// profiles and name source.
pub fn render_diff(diff: &ProfileDiff, names: &NameSource) -> String {
    let mut out = String::new();
    writeln!(out, "== profile diff: A (baseline) → B (comparison)").unwrap();
    for w in &diff.warnings {
        writeln!(out, "warning: {w}").unwrap();
    }
    writeln!(
        out,
        "samples: {} → {} ({:+})",
        diff.samples.0,
        diff.samples.1,
        diff.samples.1 as i64 - diff.samples.0 as i64,
    )
    .unwrap();
    out.push_str(&render_totals_diff(
        "A",
        "B",
        &diff.a_totals,
        &diff.b_totals,
    ));
    if !diff.a_mix.is_zero() || !diff.b_mix.is_zero() {
        let (a, b) = (&diff.a_mix, &diff.b_mix);
        writeln!(
            out,
            "backend mix: lock {} → {}, stm {} → {}, hle {} → {}; switches {} → {} ({:+})",
            a.lock,
            b.lock,
            a.stm,
            b.stm,
            a.hle,
            b.hle,
            a.switches,
            b.switches,
            b.switches as i64 - a.switches as i64,
        )
        .unwrap();
    }
    if !diff.a_cm.is_zero() || !diff.b_cm.is_zero() {
        let (a, b) = (&diff.a_cm, &diff.b_cm);
        writeln!(
            out,
            "cm interventions: yields {} → {}, stalls {} → {}, escalations {} → {}, \
             priority aborts {} → {}",
            a.yields,
            b.yields,
            a.stalls,
            b.stalls,
            a.escalations,
            b.escalations,
            a.priority_aborts,
            b.priority_aborts,
        )
        .unwrap();
    }
    match diff.dominant_improvement() {
        Some((component, delta)) => {
            writeln!(out, "dominant improvement: {component} {}", pp(delta)).unwrap()
        }
        None => writeln!(out, "dominant improvement: none").unwrap(),
    }
    if let Some((component, delta)) = diff.dominant_regression() {
        writeln!(out, "dominant regression: {component} {}", pp(delta)).unwrap();
    }

    let improved = diff.top_improved(5);
    if !improved.is_empty() {
        writeln!(out, "\ntop improved call paths (ΔW):").unwrap();
        for d in improved {
            writeln!(out, "  {:>+7}  {}", d.dw(), path_label(&d.path, names)).unwrap();
        }
    }
    let regressed = diff.top_regressed(5);
    if !regressed.is_empty() {
        writeln!(out, "\ntop regressed call paths (ΔW):").unwrap();
        for d in regressed {
            writeln!(out, "  {:>+7}  {}", d.dw(), path_label(&d.path, names)).unwrap();
        }
    }

    let site_changes: Vec<&SiteDiff> = diff
        .sites
        .iter()
        .filter(|d| d.dabort_weight() != 0)
        .take(5)
        .collect();
    if !site_changes.is_empty() {
        writeln!(out, "\nabort-site weight changes:").unwrap();
        for d in site_changes {
            writeln!(
                out,
                "  {:>+7}  {} ({} → {} abort samples)",
                d.dabort_weight(),
                names.ip_name(d.site),
                d.a.abort_samples,
                d.b.abort_samples,
            )
            .unwrap();
        }
    }

    let hist_changes: Vec<&HistSiteDiff> = diff.hist_sites.iter().take(5).collect();
    if !hist_changes.is_empty() {
        writeln!(
            out,
            "\npercentile shifts (log-bucket upper bounds, p50/p99):"
        )
        .unwrap();
        for d in hist_changes {
            writeln!(
                out,
                "  {}:{} tx-cycles {} → {}, retries {} → {} ({} → {} commits)",
                names.func_name(d.site.func),
                d.site.line,
                hist_p50_p99(&d.a.tx_cycles),
                hist_p50_p99(&d.b.tx_cycles),
                hist_p50_p99(&d.a.retry_depth),
                hist_p50_p99(&d.b.retry_depth),
                d.a.tx_cycles.count,
                d.b.tx_cycles.count,
            )
            .unwrap();
        }
        let regressions = diff.p99_regressions(2);
        for r in &regressions {
            writeln!(
                out,
                "  regression: {}:{} tx-cycles p99 moved {:+} buckets",
                names.func_name(r.site.func),
                r.site.line,
                r.d_p99_bucket().unwrap_or(0),
            )
            .unwrap();
        }
    }

    writeln!(out, "\ndecision tree:").unwrap();
    let s = &diff.suggestions;
    if s.resolved.is_empty() && s.persisting.is_empty() && s.appeared.is_empty() {
        writeln!(out, "  no suggestions on either side").unwrap();
    }
    for sug in &s.resolved {
        writeln!(out, "  resolved: {}", sug.describe()).unwrap();
    }
    for sug in &s.persisting {
        writeln!(out, "  persists: {}", sug.describe()).unwrap();
    }
    for sug in &s.appeared {
        writeln!(out, "  new: {}", sug.describe()).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TimeComponent;
    use txsim_pmu::FuncId;

    fn keyed_frame(f: u32, speculative: bool) -> NodeKey {
        NodeKey::Frame {
            func: FuncId(f),
            callsite: Ip::new(FuncId(0), 1),
            speculative,
        }
    }

    fn stmt(f: u32, line: u32, speculative: bool) -> NodeKey {
        NodeKey::Stmt {
            ip: Ip::new(FuncId(f), line),
            speculative,
        }
    }

    /// Build a profile from (path, w_samples, abort_weight) triples.
    fn profile_of(paths: &[(&[NodeKey], u64, u64)]) -> Profile {
        let mut p = Profile::default();
        for (path, w, weight) in paths {
            let node = p.cct.path(path.iter().copied());
            let m = p.cct.metrics_mut(node);
            for _ in 0..*w {
                m.add_cycles_sample(TimeComponent::Tx);
            }
            if *weight > 0 {
                m.abort_samples += 1;
                m.abort_weight += weight;
                m.aborts_conflict += 1;
                m.conflict_weight += weight;
            }
            p.samples += w;
        }
        p
    }

    #[test]
    fn alignment_is_by_path_not_node_id() {
        // Same two paths inserted in opposite orders: node ids differ,
        // paths match, so identical metrics produce an empty diff.
        let x = [keyed_frame(1, false), stmt(1, 5, false)];
        let y = [keyed_frame(2, false), stmt(2, 9, false)];
        let a = profile_of(&[(&x, 3, 0), (&y, 4, 0)]);
        let b = profile_of(&[(&y, 4, 0), (&x, 3, 0)]);
        let d = diff_profiles(&a, &b, &Thresholds::default());
        assert!(d.nodes.is_empty(), "got node diffs: {:?}", d.nodes);
    }

    #[test]
    fn one_sided_nodes_diff_against_zero() {
        let x = [keyed_frame(1, false), stmt(1, 5, false)];
        let y = [keyed_frame(1, false), stmt(1, 7, true)];
        let a = profile_of(&[(&x, 3, 0)]);
        let b = profile_of(&[(&x, 3, 0), (&y, 9, 0)]);
        let d = diff_profiles(&a, &b, &Thresholds::default());
        assert_eq!(d.nodes.len(), 1);
        assert_eq!(d.nodes[0].path, y.to_vec());
        assert_eq!(d.nodes[0].a.w, 0);
        assert_eq!(d.nodes[0].b.w, 9);
        assert_eq!(d.nodes[0].dw(), 9);
        // And the reverse direction ranks it as improved.
        let d = diff_profiles(&b, &a, &Thresholds::default());
        assert_eq!(d.top_improved(5)[0].dw(), -9);
        assert!(d.top_regressed(5).is_empty());
    }

    #[test]
    fn provenance_mismatch_warns() {
        let mut a = profile_of(&[]);
        let mut b = profile_of(&[]);
        a.meta.workload = Some("histo".to_string());
        b.meta.workload = Some("histo/padded".to_string());
        a.meta.threads = Some(14);
        b.meta.threads = Some(4);
        a.meta.fallback = Some("lock".to_string());
        b.meta.fallback = Some("stm".to_string());
        let d = diff_profiles(&a, &b, &Thresholds::default());
        assert_eq!(d.warnings.len(), 3);
        assert!(d.warnings[0].contains("workload differs"));
        assert!(d.warnings[1].contains("thread count differs"));
        assert!(d.warnings[2].contains("fallback backend differs"));
        // Absent provenance on either side warns about nothing.
        b.meta = Default::default();
        assert!(diff_profiles(&a, &b, &Thresholds::default())
            .warnings
            .is_empty());
    }

    #[test]
    fn dominant_components_track_share_movement() {
        // A: all time in fallback. B: all time in HTM.
        let mut a = Profile::default();
        let n = a.cct.path([stmt(1, 1, false)]);
        for _ in 0..10 {
            a.cct
                .metrics_mut(n)
                .add_cycles_sample(TimeComponent::Fallback);
        }
        let mut b = Profile::default();
        let n = b.cct.path([stmt(1, 1, true)]);
        for _ in 0..10 {
            b.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
        }
        let d = diff_profiles(&a, &b, &Thresholds::default());
        assert_eq!(d.dominant_improvement(), Some(("fallback", -1.0)));
        assert_eq!(d.dominant_regression(), Some(("HTM", 1.0)));
        // Identical sides have neither.
        let d = diff_profiles(&a, &a, &Thresholds::default());
        assert_eq!(d.dominant_improvement(), None);
        assert_eq!(d.dominant_regression(), None);
    }

    #[test]
    fn monotone_deltas_reuse_metrics_minus() {
        let x = [stmt(1, 1, true)];
        let a = profile_of(&[(&x, 5, 100)]);
        let b = profile_of(&[(&x, 8, 0)]);
        let d = diff_profiles(&a, &b, &Thresholds::default());
        assert_eq!(d.gained.w, 3);
        assert_eq!(d.gained.abort_weight, 0);
        assert_eq!(d.lost.abort_weight, 100);
        assert_eq!(d.lost.w, 0);
    }

    #[test]
    fn backend_mix_deltas_render_when_either_side_is_adaptive() {
        let x = [stmt(1, 1, true)];
        let a = profile_of(&[(&x, 5, 100)]);
        let mut b = profile_of(&[(&x, 5, 0)]);
        // Static vs static: no mix line at all.
        let d = diff_profiles(&a, &b, &Thresholds::default());
        assert!(d.a_mix.is_zero() && d.b_mix.is_zero());
        assert!(!render_diff(&d, &NameSource::Anonymous).contains("backend mix:"));
        // Adaptive comparison run: meta mix wins and renders.
        b.meta.mix = Some(BackendMix {
            lock: 1,
            stm: 7,
            hle: 2,
            switches: 3,
        });
        let d = diff_profiles(&a, &b, &Thresholds::default());
        let text = render_diff(&d, &NameSource::Anonymous);
        assert!(
            text.contains("backend mix: lock 0 → 1, stm 0 → 7, hle 0 → 2; switches 0 → 3 (+3)"),
            "{text}"
        );
        // Without a stamped meta mix the per-site table is summed instead.
        b.meta.mix = None;
        b.records.entry(Ip::new(FuncId(1), 1)).mix = BackendMix {
            hle: 4,
            switches: 1,
            ..Default::default()
        };
        let d = diff_profiles(&a, &b, &Thresholds::default());
        assert_eq!(d.b_mix.hle, 4);
        assert_eq!(d.b_mix.switches, 1);
    }

    #[test]
    fn hist_percentile_shifts_diff_and_regression_gate() {
        let x = [stmt(1, 1, true)];
        let mut a = profile_of(&[(&x, 5, 0)]);
        let mut b = profile_of(&[(&x, 5, 0)]);
        let site = Ip::new(FuncId(1), 1);
        let mut ah = SiteHists::default();
        let mut bh = SiteHists::default();
        for _ in 0..40 {
            ah.record_completion(100, 1, None); // bucket 6, le 127
            bh.record_completion(900, 3, None); // bucket 9, le 1023
        }
        a.records.entry(site).hists = ah;
        b.records.entry(site).hists = bh;
        let d = diff_profiles(&a, &b, &Thresholds::default());
        assert_eq!(d.hist_sites.len(), 1);
        assert_eq!(d.hist_sites[0].d_p99_bucket(), Some(3));
        assert_eq!(d.p99_regressions(2).len(), 1);
        assert!(d.p99_regressions(4).is_empty());
        let text = render_diff(&d, &NameSource::Anonymous);
        assert!(text.contains("percentile shifts"), "{text}");
        assert!(
            text.contains("func1:1 tx-cycles 127/127 → 1023/1023"),
            "{text}"
        );
        assert!(
            text.contains("retries 1/1 → 3/3 (40 → 40 commits)"),
            "{text}"
        );
        assert!(
            text.contains("regression: func1:1 tx-cycles p99 moved +3 buckets"),
            "{text}"
        );
        // Identical histograms produce no entry at all.
        let d = diff_profiles(&a, &a, &Thresholds::default());
        assert!(d.hist_sites.is_empty());
        // Thin tails (< 32 commits a side) never trigger the gate, even
        // with a large shift.
        let mut thin = SiteHists::default();
        for _ in 0..10 {
            thin.record_completion(100, 1, None);
        }
        a.records.entry(site).hists = thin;
        let d = diff_profiles(&a, &b, &Thresholds::default());
        assert_eq!(d.hist_sites.len(), 1);
        assert!(d.p99_regressions(2).is_empty());
        // A one-sided (new) site diffs against zero but cannot regress.
        let d = diff_profiles(&profile_of(&[(&x, 5, 0)]), &b, &Thresholds::default());
        assert_eq!(d.hist_sites.len(), 1);
        assert_eq!(d.hist_sites[0].d_p99_bucket(), None);
        assert!(d.p99_regressions(1).is_empty());
    }

    #[test]
    fn render_is_deterministic_and_names_components() {
        let x = [keyed_frame(1, false), stmt(1, 5, true)];
        let a = profile_of(&[(&x, 10, 500)]);
        let b = profile_of(&[(&x, 4, 0)]);
        let d = diff_profiles(&a, &b, &Thresholds::default());
        let text = render_diff(&d, &NameSource::Anonymous);
        assert_eq!(text, render_diff(&d, &NameSource::Anonymous));
        assert!(text.contains("dominant improvement:"), "{text}");
        assert!(text.contains("func1:5_[tx]"), "{text}");
        assert!(text.contains("decision tree:"), "{text}");
    }

    /// Run `align` from both roots and return the node diffs.
    fn aligned(a: &Profile, b: &Profile) -> Vec<NodeDiff> {
        let mut out = Vec::new();
        align(
            &a.cct,
            Some(ROOT),
            &b.cct,
            Some(ROOT),
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    #[test]
    fn align_keeps_keys_present_on_one_side_only() {
        let shared = [keyed_frame(1, false), stmt(1, 5, false)];
        let only_a = [keyed_frame(2, false), stmt(2, 3, false)];
        let only_b = [keyed_frame(3, false), stmt(3, 4, true)];
        let a = profile_of(&[(&shared, 2, 0), (&only_a, 5, 0)]);
        let b = profile_of(&[(&shared, 2, 0), (&only_b, 7, 0)]);
        let out = aligned(&a, &b);
        let a_leaf = out.iter().find(|d| d.path == only_a).expect("A-only leaf");
        assert_eq!((a_leaf.a.w, a_leaf.b.w), (5, 0));
        let b_leaf = out.iter().find(|d| d.path == only_b).expect("B-only leaf");
        assert_eq!((b_leaf.a.w, b_leaf.b.w), (0, 7));
        // The one-sided frames carry zero metrics on both sides and the
        // shared path is equal, so only the two leaves differ.
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn align_recurses_below_equal_nodes() {
        // The frames carry equal metrics on both sides and produce no
        // NodeDiff, but the leaves below them differ and must be found.
        let frame = [keyed_frame(1, false)];
        let leaf = [keyed_frame(1, false), stmt(1, 5, false)];
        let a = profile_of(&[(&frame, 4, 0), (&leaf, 1, 0)]);
        let b = profile_of(&[(&frame, 4, 0), (&leaf, 6, 0)]);
        let out = aligned(&a, &b);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].path, leaf.to_vec());
        assert_eq!((out[0].a.w, out[0].b.w), (1, 6));
    }

    #[test]
    fn align_emits_siblings_in_key_rank_order() {
        // Siblings interleave between the sides and are inserted in
        // descending order; every one differs, so each is emitted.
        let keys = [
            stmt(4, 1, true),
            stmt(4, 1, false),
            stmt(2, 9, false),
            keyed_frame(7, true),
            keyed_frame(7, false),
            keyed_frame(3, false),
        ];
        let paths: Vec<[NodeKey; 1]> = keys.iter().map(|&k| [k]).collect();
        let a_paths: Vec<(&[NodeKey], u64, u64)> =
            paths.iter().step_by(2).map(|p| (&p[..], 1, 0)).collect();
        let b_paths: Vec<(&[NodeKey], u64, u64)> = paths.iter().map(|p| (&p[..], 2, 0)).collect();
        let out = aligned(&profile_of(&a_paths), &profile_of(&b_paths));
        let got: Vec<NodeKey> = out.iter().map(|d| d.path[0]).collect();
        let mut want = keys.to_vec();
        want.sort_by_key(|&k| key_rank(k));
        assert_eq!(got, want);
    }
}
