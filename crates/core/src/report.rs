//! Report rendering — the text equivalent of TxSampler's GUI (§6):
//! a calling-context view with metric columns (Figure 9), time and abort
//! decomposition bars (Figure 7), per-thread histograms, and the decision
//! tree's narrative. Plus TSV export for the experiment harness.
//!
//! Every renderer here is a *pass* over a [`ProfileView`] — the profile
//! plus resolved names plus precomputed totals — so text reports, TSV,
//! the Prometheus exposition and the diff renderer all derive their
//! numbers the same way. [`render_report`] chains the standard passes
//! into the full offline report (`repro report` / `repro profile`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use txsim_pmu::{FuncRegistry, Ip};

use crate::cct::{NodeId, NodeKey, ROOT};
use crate::decision::{Diagnosis, Thresholds};
use crate::metrics::Metrics;
use crate::profile::{AbortClassRow, Profile, TimeBreakdown, ABORT_CLASSES, TIME_COMPONENTS};
use crate::store::FuncNames;
use crate::view::{NameSource, ProfileView};

/// Render a percentage.
pub(crate) fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// A fixed-width ASCII bar of `width` cells showing component shares.
pub fn bar(shares: &[(char, f64)], width: usize) -> String {
    let mut out = String::with_capacity(width);
    let mut acc = 0.0f64;
    let mut drawn = 0usize;
    for &(ch, share) in shares {
        acc += share.max(0.0);
        let target = (acc * width as f64).round() as usize;
        while drawn < target.min(width) {
            out.push(ch);
            drawn += 1;
        }
    }
    while drawn < width {
        out.push(' ');
        drawn += 1;
    }
    out
}

/// Canonical ordering key for a [`NodeKey`] (deterministic tie-breaking).
pub(crate) fn key_rank(key: NodeKey) -> (u8, u32, u32, u32, bool) {
    match key {
        NodeKey::Frame {
            func,
            callsite,
            speculative,
        } => (0, func.0, callsite.func.0, callsite.line, speculative),
        NodeKey::Stmt { ip, speculative } => (1, ip.func.0, ip.line, 0, speculative),
    }
}

/// One band entry: bar symbol, label and share.
pub type BandEntry = (char, &'static str, f64);

/// A `width`-cell [`bar`] of band entries.
pub fn band_bar(entries: &[BandEntry], width: usize) -> String {
    let shares: Vec<(char, f64)> = entries.iter().map(|&(c, _, share)| (c, share)).collect();
    bar(&shares, width)
}

/// Write one band, without its line end: `head`, a 50-cell bar, then each
/// entry's label and share.
pub(crate) fn band(out: &mut String, head: &str, entries: &[BandEntry]) {
    write!(out, "{head}|{}|", band_bar(entries, 50)).unwrap();
    for (_, label, share) in entries {
        write!(out, " {label} {}", pct(*share)).unwrap();
    }
}

/// The time components of `b` as band entries.
pub fn time_entries(b: &TimeBreakdown) -> [BandEntry; 5] {
    TIME_COMPONENTS.map(|c| (c.symbol, c.label, (c.share)(b)))
}

/// The abort classes `value` measures (`None`: not measured) as band
/// entries, each with its share of `total`. An STM-only class is left out
/// while it is zero.
pub fn abort_entries(total: u64, value: impl Fn(&AbortClassRow) -> Option<u64>) -> Vec<BandEntry> {
    ABORT_CLASSES
        .iter()
        .filter_map(|r| {
            let v = value(r)?;
            let share = v as f64 / total.max(1) as f64;
            (!r.stm_only || v > 0).then_some((r.symbol, r.label(), share))
        })
        .collect()
}

/// Render the whole-program time decomposition (Figure 7, top band). When
/// the run used the STM fallback backend, a second band splits fallback
/// time into its software-transaction and serial (under-the-lock) shares.
pub fn render_time_breakdown(view: &ProfileView) -> String {
    let mut out = String::new();
    band(&mut out, "time  ", &time_entries(&view.breakdown));
    out.push('\n');
    let m = &view.totals;
    if m.t_fb_stm > 0 {
        let stm = m.stm_fallback_share();
        let fb_shares = [('s', stm), ('L', 1.0 - stm)];
        writeln!(
            out,
            "fb    |{}| fb-stm {} fb-lock {}  (of fallback time)",
            bar(&fb_shares, 50),
            pct(stm),
            pct(1.0 - stm),
        )
        .unwrap();
    }
    out
}

/// Render the abort decomposition (Figure 7, middle and bottom bands):
/// counts and weights by class.
pub fn render_abort_breakdown(view: &ProfileView) -> String {
    let m = view.totals;
    let mut out = String::new();
    let counts = abort_entries(m.abort_samples, |r| Some(r.count(&m)));
    band(&mut out, "aborts", &counts);
    writeln!(
        out,
        "  (samples: {}, est. events: {})",
        m.abort_samples,
        m.abort_samples * view.profile.periods.abort,
    )
    .unwrap();
    let weights = abort_entries(m.abort_weight, |r| r.weight(&m));
    band(&mut out, "weight", &weights);
    writeln!(out, "  (total weight: {})", m.abort_weight).unwrap();
    out
}

/// Options for the calling-context view.
#[derive(Debug, Clone, Copy)]
pub struct CctViewOptions {
    /// Hide subtrees whose inclusive W share is below this fraction.
    pub min_share: f64,
    /// Maximum tree depth rendered.
    pub max_depth: usize,
}

impl Default for CctViewOptions {
    fn default() -> Self {
        CctViewOptions {
            min_share: 0.01,
            max_depth: 16,
        }
    }
}

/// Render the calling-context view (Figure 9): an indented tree with
/// metric columns. Speculative (in-transaction) subtrees are introduced by
/// a `begin_in_tx` pseudo node, matching the paper's GUI.
pub fn render_cct(view: &ProfileView, opts: &CctViewOptions) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<58} {:>8} {:>7} {:>7} {:>9} {:>7}",
        "calling context", "W", "T%", "Ttx%", "abort-wt", "a/c"
    )
    .unwrap();
    let inclusive = view.profile.cct.inclusive_all();
    render_node(view, &inclusive, ROOT, 0, opts, &mut out, false);
    out
}

/// Render `node` and its significant descendants; `inclusive` holds every
/// node's inclusive metrics ([`crate::cct::Cct::inclusive_all`]).
fn render_node(
    view: &ProfileView,
    inclusive: &[Metrics],
    node: NodeId,
    depth: usize,
    opts: &CctViewOptions,
    out: &mut String,
    parent_speculative: bool,
) {
    if depth > opts.max_depth {
        return;
    }
    let profile = view.profile;
    let totals = &view.totals;
    let incl = &inclusive[node as usize];
    let w_share = incl.w as f64 / totals.w.max(1) as f64;
    let significant = w_share >= opts.min_share || incl.abort_weight > 0 || incl.abort_samples > 0;
    if node != ROOT && !significant {
        return;
    }

    let indent = "  ".repeat(depth);
    let speculative_now = profile
        .cct
        .key(node)
        .map(|k| k.speculative())
        .unwrap_or(false);
    if speculative_now && !parent_speculative {
        writeln!(out, "{indent}[begin_in_tx]").unwrap();
    }
    let label = match profile.cct.key(node) {
        None => "<thread root>".to_string(),
        Some(NodeKey::Frame { func, callsite, .. }) => {
            format!("{} (from {})", view.func_name(func), view.ip_name(callsite))
        }
        Some(NodeKey::Stmt { ip, .. }) => format!("@ {}", view.ip_name(ip)),
    };
    let t_share = incl.t as f64 / totals.t.max(1) as f64;
    let ttx_share = incl.t_tx as f64 / totals.t_tx.max(1) as f64;
    writeln!(
        out,
        "{:<58} {:>8} {:>7} {:>7} {:>9} {:>7.2}",
        format!("{indent}{label}"),
        incl.w,
        pct(t_share),
        pct(ttx_share),
        incl.abort_weight,
        incl.abort_commit_ratio(),
    )
    .unwrap();

    // Children sorted by inclusive W, largest first; ties broken by a
    // canonical key encoding so renders are deterministic across merges
    // and store round-trips.
    let mut children: Vec<NodeId> = profile.cct.children(node).collect();
    children.sort_by_key(|&c| {
        (
            std::cmp::Reverse(inclusive[c as usize].w),
            profile.cct.key(c).map(key_rank),
        )
    });
    for child in children {
        render_node(
            view,
            inclusive,
            child,
            depth + 1,
            opts,
            out,
            speculative_now || parent_speculative,
        );
    }
}

/// One folded-stack frame label. Speculative (in-transaction) frames get
/// the flamegraph.pl-style `_[tx]` annotation so the transaction-interior
/// call paths — the paper's contribution — are visually distinct in the
/// rendered flamegraph.
pub(crate) fn folded_frame(key: NodeKey, names: &NameSource) -> String {
    // Not `ip_name` plus a suffix: this runs for every CCT node, and the
    // extra copy showed in `render_folded`'s time.
    match key {
        NodeKey::Frame {
            func, speculative, ..
        } => {
            let name = names.func_name(func);
            if speculative {
                format!("{name}_[tx]")
            } else {
                name
            }
        }
        NodeKey::Stmt { ip, speculative } => {
            let tx = if speculative { "_[tx]" } else { "" };
            format!("{}:{}{tx}", names.func_name(ip.func), ip.line)
        }
    }
}

/// Render the CCT as collapsed-stack ("folded") text — one
/// `frame;frame;frame weight` line per calling context, weighted by
/// estimated cycles (exclusive W samples × the cycles sampling period) —
/// the input format of Brendan Gregg's `flamegraph.pl` and of every
/// flamegraph web viewer. Lines are aggregated per distinct stack and
/// sorted, so the output is canonical: two profiles with equal CCT metrics
/// fold identically regardless of node insertion order.
pub fn render_folded(view: &ProfileView) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    let mut frames: Vec<String> = Vec::new();
    fold_node(view.profile, ROOT, &view.names, &mut frames, &mut stacks);
    let mut out = String::new();
    for (stack, weight) in stacks {
        writeln!(out, "{stack} {weight}").unwrap();
    }
    out
}

fn fold_node(
    profile: &Profile,
    node: NodeId,
    names: &NameSource,
    frames: &mut Vec<String>,
    stacks: &mut BTreeMap<String, u64>,
) {
    if node != ROOT {
        frames.push(folded_frame(
            profile.cct.key(node).expect("non-root has key"),
            names,
        ));
        let w = profile.cct.metrics(node).w;
        if w > 0 {
            let weight = w * profile.periods.cycles.max(1);
            *stacks.entry(frames.join(";")).or_insert(0) += weight;
        }
    }
    let mut children: Vec<NodeId> = profile.cct.children(node).collect();
    children.sort_by_key(|&c| profile.cct.key(c).map(key_rank));
    for child in children {
        fold_node(profile, child, names, frames, stacks);
    }
    if node != ROOT {
        frames.pop();
    }
}

/// [`render_folded`] resolving names through the run's live registry.
pub fn render_folded_registry(profile: &Profile, registry: &FuncRegistry) -> String {
    render_folded(&ProfileView::from_registry(profile, registry))
}

/// [`render_folded`] resolving names through `func` records loaded from a
/// stored profile (see [`crate::store::load_with_funcs`]); unknown ids fall
/// back to a stable `funcN` label.
pub fn render_folded_names(profile: &Profile, names: &FuncNames) -> String {
    render_folded(&ProfileView::from_names(profile, names))
}

/// Render the per-thread commit/abort histogram for a transaction site
/// (the GUI's thread view used to spot imbalance and starvation).
pub fn render_thread_histogram(view: &ProfileView, site: Ip) -> String {
    let rows = view.profile.thread_histogram(site);
    let max = rows
        .iter()
        .map(|&(_, c, a)| c.max(a))
        .max()
        .unwrap_or(0)
        .max(1);
    let mut out = String::new();
    writeln!(out, "site {}:", view.ip_name(site)).unwrap();
    for (tid, commits, aborts) in rows {
        let cw = (commits * 30 / max) as usize;
        let aw = (aborts * 30 / max) as usize;
        writeln!(
            out,
            "  t{tid:<3} commits {:>6} |{:<30}|  aborts {:>6} |{:<30}|",
            commits,
            "#".repeat(cw),
            aborts,
            "*".repeat(aw),
        )
        .unwrap();
    }
    out
}

/// Render the decision-tree diagnosis as a numbered narrative.
pub fn render_diagnosis(diagnosis: &Diagnosis, view: &ProfileView) -> String {
    let mut out = String::new();
    writeln!(out, "decision-tree traversal:").unwrap();
    for (i, step) in diagnosis.steps.iter().enumerate() {
        let observation = step.describe(&view.names);
        writeln!(out, "  ({}) {observation} = {:.3}", i + 1, step.value).unwrap();
    }
    writeln!(out, "program-level guidance:").unwrap();
    for s in &diagnosis.suggestions {
        writeln!(out, "  - {}", s.describe()).unwrap();
    }
    for site in &diagnosis.sites {
        writeln!(
            out,
            "site {} — dominant abort class: {} (avg weight {:.0})",
            view.ip_name(site.site),
            site.dominant_class,
            site.metrics.avg_abort_weight().unwrap_or(0.0),
        )
        .unwrap();
        for s in &site.suggestions {
            writeln!(out, "  - {}", s.describe()).unwrap();
        }
    }
    out
}

/// One-line "profiler self-cost" footer summarizing what the profiler spent
/// on itself during a run, from an observability counter snapshot: samples
/// processed and discarded, and trace-span retention. Returns an empty
/// string when the snapshot is all zero (instrumentation was off), so
/// callers can print it unconditionally.
pub fn render_self_cost(snapshot: &obs::Snapshot) -> String {
    use obs::Counter;
    if snapshot.is_zero() {
        return String::new();
    }
    let taken = snapshot.get(Counter::SamplesTaken);
    let dropped = snapshot.get(Counter::SamplesDropped);
    let drop_rate = dropped as f64 / (taken + dropped).max(1) as f64;
    let retained = snapshot.get(Counter::SpansRecorded);
    let overwritten = snapshot.get(Counter::SpansDropped);
    let occupancy = retained as f64 / (retained + overwritten).max(1) as f64;
    let mut out = format!(
        "profiler self-cost: {taken} samples processed, {dropped} dropped ({:.1}%); \
         {retained} trace spans retained, {overwritten} overwritten ({:.0}% kept)\n",
        drop_rate * 100.0,
        occupancy * 100.0,
    );
    // Serve-mode overhead is itself measured: report what the live layer
    // spent on snapshot merging and request serving, when it ran at all.
    let merges = snapshot.get(Counter::SnapshotsMerged);
    if merges > 0 {
        writeln!(
            out,
            "live hub self-cost: {merges} snapshot merges, {} merge cycles ({:.0} cycles/merge)",
            snapshot.get(Counter::SnapshotMergeCycles),
            snapshot.get(Counter::SnapshotMergeCycles) as f64 / merges as f64,
        )
        .unwrap();
    }
    let http = [
        ("healthz", Counter::HttpHealthzRequests),
        ("metrics", Counter::HttpMetricsRequests),
        ("profile", Counter::HttpProfileRequests),
        ("flamegraph", Counter::HttpFlamegraphRequests),
        ("delta", Counter::HttpDeltaRequests),
        ("trend", Counter::HttpTrendRequests),
        ("diff", Counter::HttpDiffRequests),
        ("other", Counter::HttpOtherRequests),
    ];
    if http.iter().any(|&(_, c)| snapshot.get(c) > 0) {
        let detail: Vec<String> = http
            .iter()
            .map(|&(name, c)| format!("{name} {}", snapshot.get(c)))
            .collect();
        writeln!(
            out,
            "live http requests served: {} ({})",
            http.iter().map(|&(_, c)| snapshot.get(c)).sum::<u64>(),
            detail.join(", "),
        )
        .unwrap();
    }
    out
}

/// Export the headline metrics as one TSV row (used by the figure harness).
pub fn tsv_row(name: &str, view: &ProfileView) -> String {
    let m = view.totals;
    let shares: Vec<String> = time_entries(&view.breakdown)
        .iter()
        .map(|(_, _, share)| format!("{share:.4}"))
        .collect();
    format!(
        "{}\t{:.4}\t{:.4}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{}",
        name,
        m.r_cs(),
        m.abort_commit_ratio(),
        shares.join("\t"),
        m.abort_samples,
        m.aborts_conflict,
        m.aborts_capacity,
        m.aborts_sync,
        m.true_sharing,
        m.false_sharing,
        m.stm_fallback_share(),
        m.aborts_validation,
    )
}

/// Header matching [`tsv_row`].
pub fn tsv_header() -> &'static str {
    "name\tr_cs\tr_ac\toutside\ttx\tfallback\tlock_wait\toverhead\tabort_samples\tconflict\tcapacity\tsync\ttrue_sharing\tfalse_sharing\tfb_stm_share\tvalidation"
}

/// Options for the standard report pipeline.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Calling-context view options.
    pub cct: CctViewOptions,
    /// Decision-tree thresholds.
    pub thresholds: Thresholds,
    /// Imbalance detection: flag sites whose best/worst thread ratio
    /// exceeds this factor.
    pub imbalance_factor: f64,
    /// Imbalance detection: ignore sites with fewer samples than this.
    pub imbalance_min_samples: u64,
    /// At most this many imbalance findings are rendered.
    pub max_imbalances: usize,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            cct: CctViewOptions::default(),
            thresholds: Thresholds::default(),
            imbalance_factor: 2.0,
            imbalance_min_samples: 50,
            max_imbalances: 3,
        }
    }
}

/// One analysis pass: a named renderer over a [`ProfileView`]. Passes that
/// have nothing to say return an empty string and are skipped by
/// [`render_report`].
pub struct ReportPass {
    /// Section name (stable, machine-friendly).
    pub name: &'static str,
    /// Render this section from the shared view.
    pub run: fn(&ProfileView, &ReportOptions) -> String,
}

/// Summary pass: sample counts, derived program ratios, provenance.
fn summary_pass(view: &ProfileView, _opts: &ReportOptions) -> String {
    let p = view.profile;
    let mut out = format!(
        "profile: {} samples, {} threads, r_cs {:.3}, a/c {:.3}\n",
        p.samples,
        p.threads.len(),
        view.totals.r_cs(),
        view.totals.abort_commit_ratio(),
    );
    if !p.meta.is_empty() {
        out.push_str("run:");
        if let Some(workload) = &p.meta.workload {
            let _ = write!(out, " workload={workload}");
        }
        if let Some(threads) = p.meta.threads {
            let _ = write!(out, " threads={threads}");
        }
        if let Some(period) = p.meta.sample_period {
            let _ = write!(out, " period={period}");
        }
        if let Some(fallback) = &p.meta.fallback {
            let _ = write!(out, " fallback={fallback}");
        }
        if let Some(cm) = &p.meta.cm {
            let _ = write!(out, " cm={cm}");
        }
        if let Some(mix) = &p.meta.mix {
            let _ = write!(
                out,
                " mix=lock:{}/stm:{}/hle:{} switches={}",
                mix.lock, mix.stm, mix.hle, mix.switches
            );
        }
        out.push('\n');
    }
    out
}

/// Backend pass: the adaptive control loop's footprint. Renders the
/// run-level fallback mix and each site's chosen backend; empty (and
/// therefore skipped) for static-backend runs, so their reports are
/// unchanged.
fn backend_pass(view: &ProfileView, _opts: &ReportOptions) -> String {
    let p = view.profile;
    let totals = p.backend_totals();
    if totals.is_zero() && p.meta.mix.is_none() {
        return String::new();
    }
    let mix = p.meta.mix.unwrap_or(totals);
    let mut out = format!(
        "fallback mix: lock {} stm {} hle {}  (backend switches: {})\n",
        mix.lock, mix.stm, mix.hle, mix.switches
    );
    for (site, r) in p.records.sorted() {
        let m = &r.mix;
        if m.is_zero() {
            continue;
        }
        writeln!(
            out,
            "  site {:<30} -> {:<4}  lock {:>6} stm {:>6} hle {:>6} switches {:>3}",
            view.ip_name(site),
            m.choice().unwrap_or("-"),
            m.lock,
            m.stm,
            m.hle,
            m.switches,
        )
        .unwrap();
    }
    out
}

/// Render one histogram's p50/p90/p99/max as `a/b/c/d` (log-bucket upper
/// bounds), or `-` when nothing was recorded.
fn hist_quartet(h: &rtm_runtime::Hist32) -> String {
    match (
        h.percentile(0.50),
        h.percentile(0.90),
        h.percentile(0.99),
        h.max_value(),
    ) {
        (Some(p50), Some(p90), Some(p99), Some(max)) => format!("{p50}/{p90}/{p99}/{max}"),
        _ => "-".to_string(),
    }
}

/// Percentiles pass: per-site latency and retry-depth distributions from
/// the runtime's log-bucketed histograms. Values are bucket upper bounds
/// ("p99 <= N"). Empty (and therefore skipped) when the run recorded no
/// histograms, so reports of older profiles are unchanged.
fn percentiles_pass(view: &ProfileView, _opts: &ReportOptions) -> String {
    let sites = view.profile.hist_sites();
    if sites.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "percentiles (log-bucket upper bounds, p50/p90/p99/max; sites by retry-depth p99):\n",
    );
    for (site, h) in sites.into_iter().take(8) {
        writeln!(
            out,
            "  site {:<30} n {:>7}  tx-cycles {:<24} retries {:<14} fb-dwell {}",
            view.ip_name(site),
            h.tx_cycles.count,
            hist_quartet(&h.tx_cycles),
            hist_quartet(&h.retry_depth),
            hist_quartet(&h.fb_dwell),
        )
        .unwrap();
    }
    out
}

/// Diagnosis pass: run the Figure-1 decision tree and narrate it.
fn diagnosis_pass(view: &ProfileView, opts: &ReportOptions) -> String {
    let diagnosis = crate::decision::diagnose(view.profile, &opts.thresholds);
    render_diagnosis(&diagnosis, view)
}

/// Imbalance pass: per-thread skew findings (§5 contention metrics).
fn imbalance_pass(view: &ProfileView, opts: &ReportOptions) -> String {
    let mut out = String::new();
    for imb in crate::imbalance::detect_imbalance(
        view.profile,
        opts.imbalance_factor,
        opts.imbalance_min_samples,
    )
    .into_iter()
    .take(opts.max_imbalances)
    {
        writeln!(
            out,
            "imbalance: site {} {:?} skew {:.1}x worst thread t{}",
            view.ip_name(imb.site),
            imb.kind,
            imb.factor,
            imb.worst_tid
        )
        .unwrap();
    }
    out
}

/// Contention pass: sharing diagnoses, the contention manager's
/// intervention ledger (when one ran), plus the per-thread histogram of
/// the hottest abort site (when thread-level site data exists).
fn contention_pass(view: &ProfileView, _opts: &ReportOptions) -> String {
    let mut out = String::new();
    let m = &view.totals;
    if m.true_sharing + m.false_sharing > 0 {
        writeln!(
            out,
            "sharing: {} true-sharing, {} false-sharing samples",
            m.true_sharing, m.false_sharing
        )
        .unwrap();
    }
    // CM lines render only for runs that actually had a contention manager
    // in play (per-site interventions, or at least `cm=` provenance), so
    // reports of older profiles are byte-identical.
    let mut sites: Vec<_> = view
        .profile
        .records
        .sorted()
        .into_iter()
        .map(|(site, r)| (site, &r.cm))
        .filter(|(_, s)| !s.is_zero())
        .collect();
    if !sites.is_empty() || view.profile.meta.cm.is_some() {
        let t = view.profile.cm_totals();
        writeln!(
            out,
            "contention manager ({}): {} yields, {} stalls, {} escalations, {} priority aborts",
            view.profile.meta.cm.as_deref().unwrap_or("?"),
            t.yields,
            t.stalls,
            t.escalations,
            t.priority_aborts
        )
        .unwrap();
        sites.sort_by_key(|(_, s)| std::cmp::Reverse(s.total()));
        for (site, s) in sites.into_iter().take(8) {
            writeln!(
                out,
                "  site {:<30} yields {:>7} stalls {:>7} escalations {:>5} priority-aborts {:>5}",
                view.ip_name(site),
                s.yields,
                s.stalls,
                s.escalations,
                s.priority_aborts,
            )
            .unwrap();
        }
    }
    if let Some((site, _)) = view.profile.hot_abort_sites().first() {
        let has_site_rows = view
            .profile
            .threads
            .iter()
            .any(|t| t.sites.contains_key(site));
        if has_site_rows {
            out.push_str(&render_thread_histogram(view, *site));
        }
    }
    out
}

/// The standard offline-report pipeline, in render order.
pub const REPORT_PASSES: &[ReportPass] = &[
    ReportPass {
        name: "summary",
        run: summary_pass,
    },
    ReportPass {
        name: "time",
        run: |view, _| render_time_breakdown(view),
    },
    ReportPass {
        name: "aborts",
        run: |view, _| render_abort_breakdown(view),
    },
    ReportPass {
        name: "backends",
        run: backend_pass,
    },
    ReportPass {
        name: "percentiles",
        run: percentiles_pass,
    },
    ReportPass {
        name: "cct",
        run: |view, opts| render_cct(view, &opts.cct),
    },
    ReportPass {
        name: "diagnosis",
        run: diagnosis_pass,
    },
    ReportPass {
        name: "imbalance",
        run: imbalance_pass,
    },
    ReportPass {
        name: "contention",
        run: contention_pass,
    },
];

/// Run every standard pass over the view and join the non-empty sections
/// with blank lines — the full report `repro report`/`repro profile`
/// print. Deterministic for a given profile and name source.
pub fn render_report(view: &ProfileView, opts: &ReportOptions) -> String {
    let sections: Vec<String> = REPORT_PASSES
        .iter()
        .map(|pass| (pass.run)(view, opts))
        .filter(|s| !s.is_empty())
        .collect();
    sections.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cct::NodeKey;
    use crate::metrics::TimeComponent;
    use txsim_pmu::FuncId;

    fn sample_profile(registry: &FuncRegistry) -> Profile {
        let main = registry.intern("main", "m.rs", 1);
        let work = registry.intern("work", "m.rs", 10);
        let mut p = Profile::default();
        let frame = p.cct.child(
            ROOT,
            NodeKey::Frame {
                func: main,
                callsite: Ip::UNKNOWN,
                speculative: false,
            },
        );
        let spec = p.cct.child(
            frame,
            NodeKey::Frame {
                func: work,
                callsite: Ip::new(main, 5),
                speculative: true,
            },
        );
        let leaf = p.cct.child(
            spec,
            NodeKey::Stmt {
                ip: Ip::new(work, 12),
                speculative: true,
            },
        );
        for _ in 0..10 {
            p.cct.metrics_mut(leaf).add_cycles_sample(TimeComponent::Tx);
        }
        p.cct.metrics_mut(leaf).abort_samples = 2;
        p.cct.metrics_mut(leaf).abort_weight = 500;
        p.cct.metrics_mut(leaf).aborts_capacity = 2;
        p.cct.metrics_mut(leaf).capacity_weight = 500;
        p.cct.metrics_mut(leaf).commit_samples = 4;
        p
    }

    #[test]
    fn bar_fills_width() {
        let b = bar(&[('a', 0.5), ('b', 0.5)], 10);
        assert_eq!(b.len(), 10);
        assert_eq!(b, "aaaaabbbbb");
        let b = bar(&[('a', 0.333), ('b', 0.667)], 9);
        assert_eq!(b.len(), 9);
        assert_eq!(&b[..3], "aaa");
    }

    #[test]
    fn bar_handles_empty_and_overflow() {
        assert_eq!(bar(&[], 5), "     ");
        let b = bar(&[('x', 2.0)], 5);
        assert_eq!(b, "xxxxx");
    }

    #[test]
    fn cct_view_shows_begin_in_tx_pseudo_node() {
        let registry = FuncRegistry::new();
        let p = sample_profile(&registry);
        let view = render_cct(
            &ProfileView::from_registry(&p, &registry),
            &CctViewOptions::default(),
        );
        assert!(view.contains("[begin_in_tx]"), "view:\n{view}");
        assert!(view.contains("work"));
        assert!(view.contains("@ work:12"));
        // The pseudo node appears exactly once for the contiguous
        // speculative subtree.
        assert_eq!(view.matches("[begin_in_tx]").count(), 1);
    }

    #[test]
    fn time_breakdown_renders_percentages() {
        let registry = FuncRegistry::new();
        let p = sample_profile(&registry);
        let s = render_time_breakdown(&ProfileView::from_registry(&p, &registry));
        assert!(s.contains("HTM 100.0%"), "got: {s}");
    }

    #[test]
    fn abort_breakdown_shows_capacity_dominance() {
        let registry = FuncRegistry::new();
        let p = sample_profile(&registry);
        let s = render_abort_breakdown(&ProfileView::from_registry(&p, &registry));
        assert!(s.contains("capacity 100.0%"), "got: {s}");
    }

    #[test]
    fn tsv_roundtrip_field_count() {
        let registry = FuncRegistry::new();
        let p = sample_profile(&registry);
        let header_fields = tsv_header().split('\t').count();
        let row_fields = tsv_row("x", &ProfileView::from_registry(&p, &registry))
            .split('\t')
            .count();
        assert_eq!(header_fields, row_fields);
    }

    #[test]
    fn full_report_chains_all_passes() {
        let registry = FuncRegistry::new();
        let mut p = sample_profile(&registry);
        p.meta.workload = Some("sample".to_string());
        let view = ProfileView::from_registry(&p, &registry);
        let report = render_report(&view, &ReportOptions::default());
        assert!(report.contains("profile: "), "summary present:\n{report}");
        assert!(report.contains("workload=sample"));
        assert!(report.contains("time  |"));
        assert!(report.contains("aborts|"));
        assert!(report.contains("calling context"));
        assert!(report.contains("decision-tree traversal:"));
        // Sections are separated by exactly one blank line.
        assert!(report.contains("\n\ntime  |"));
        // Deterministic across runs.
        assert_eq!(report, render_report(&view, &ReportOptions::default()));
    }

    #[test]
    fn folded_output_marks_speculative_frames_and_scales_weights() {
        let registry = FuncRegistry::new();
        let mut p = sample_profile(&registry);
        p.periods.cycles = 100;
        let folded = render_folded_registry(&p, &registry);
        assert_eq!(folded, "main;work_[tx];work:12_[tx] 1000\n");
        // Resolving through loaded func records produces identical text.
        let names: crate::store::FuncNames = (0..registry.len() as u32)
            .map(|id| (id, registry.name(FuncId(id))))
            .collect();
        assert_eq!(render_folded_names(&p, &names), folded);
        // Without names the labels degrade to stable ids, not garbage.
        let anon = render_folded_names(&p, &Default::default());
        assert_eq!(anon, "func1;func2_[tx];func2:12_[tx] 1000\n");
    }

    #[test]
    fn folded_aggregates_interior_and_leaf_weights() {
        let registry = FuncRegistry::new();
        let main = registry.intern("main", "m.rs", 1);
        let mut p = Profile::default();
        let frame = p.cct.child(
            ROOT,
            NodeKey::Frame {
                func: main,
                callsite: Ip::UNKNOWN,
                speculative: false,
            },
        );
        let leaf = p.cct.child(
            frame,
            NodeKey::Stmt {
                ip: Ip::new(main, 3),
                speculative: false,
            },
        );
        p.cct.metrics_mut(frame).w = 2; // self time in main
        p.cct.metrics_mut(leaf).w = 5;
        let folded = render_folded_registry(&p, &registry);
        assert_eq!(folded, "main 2\nmain;main:3 5\n");
    }

    #[test]
    fn backend_pass_renders_only_for_adaptive_runs() {
        let registry = FuncRegistry::new();
        let mut p = sample_profile(&registry);
        let view = ProfileView::from_registry(&p, &registry);
        let report = render_report(&view, &ReportOptions::default());
        assert!(
            !report.contains("fallback mix:"),
            "static runs stay unchanged"
        );

        p.meta.fallback = Some("adaptive".to_string());
        p.meta.mix = Some(crate::metrics::BackendMix {
            lock: 9,
            stm: 4,
            hle: 2,
            switches: 3,
        });
        p.records.entry(Ip::new(FuncId(1), 12)).mix = crate::metrics::BackendMix {
            stm: 4,
            switches: 1,
            ..Default::default()
        };
        let view = ProfileView::from_registry(&p, &registry);
        let report = render_report(&view, &ReportOptions::default());
        assert!(
            report.contains("fallback mix: lock 9 stm 4 hle 2  (backend switches: 3)"),
            "got:\n{report}"
        );
        assert!(report.contains("-> stm"), "got:\n{report}");
        assert!(report.contains("mix=lock:9/stm:4/hle:2 switches=3"));
    }

    #[test]
    fn percentiles_pass_renders_only_with_histograms() {
        let registry = FuncRegistry::new();
        let mut p = sample_profile(&registry);
        let view = ProfileView::from_registry(&p, &registry);
        let report = render_report(&view, &ReportOptions::default());
        assert!(
            !report.contains("percentiles ("),
            "histogram-free runs stay unchanged"
        );

        let site = Ip::new(FuncId(1), 12);
        let h = &mut p.records.entry(site).hists;
        for _ in 0..98 {
            h.record_completion(100, 1, None);
        }
        h.record_completion(5000, 7, Some(3000));
        h.record_completion(6000, 8, Some(3500));
        let view = ProfileView::from_registry(&p, &registry);
        let report = render_report(&view, &ReportOptions::default());
        assert!(report.contains("percentiles ("), "got:\n{report}");
        // p50 retries = 1; p99 is the 99th value (the 7, bucket [4,7]);
        // max is the 8's bucket bound (bucket [8,15]).
        assert!(report.contains("retries 1/1/7/15"), "got:\n{report}");
        assert!(report.contains("n     100"), "got:\n{report}");
        // Deterministic.
        assert_eq!(report, render_report(&view, &ReportOptions::default()));
    }

    #[test]
    fn thread_histogram_renders_rows() {
        let registry = FuncRegistry::new();
        let mut p = sample_profile(&registry);
        let site = Ip::new(FuncId(1), 10);
        p.threads = vec![
            crate::profile::ThreadSummary {
                tid: 0,
                totals: Default::default(),
                sites: [(site, (10, 2))].into_iter().collect(),
            },
            crate::profile::ThreadSummary {
                tid: 1,
                totals: Default::default(),
                sites: [(site, (1, 30))].into_iter().collect(),
            },
        ];
        let s = render_thread_histogram(&ProfileView::from_registry(&p, &registry), site);
        assert!(s.contains("t0"));
        assert!(s.contains("t1"));
        assert!(s.lines().count() >= 3);
    }
}
