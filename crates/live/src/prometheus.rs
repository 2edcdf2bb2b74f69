//! Prometheus text exposition (version 0.0.4) for the live snapshot hub.
//!
//! Rendered from a [`SnapshotView`] plus the hub's window metrics and the
//! process-wide obs counter registry — no state of its own, so a scrape is
//! always a consistent point-in-time view of one published epoch.
//!
//! Metric families:
//!
//! - `txsampler_snapshot_epoch` (gauge): version of the snapshot scraped.
//! - `txsampler_samples_total` (counter): samples absorbed into the hub.
//! - `txsampler_cycle_share{component=...}` (gauge): the Figure-7 time
//!   decomposition of the cumulative profile; the five components sum to
//!   1.0 whenever any work was sampled.
//! - `txsampler_window_cycle_share{component=...}` (gauge): same shares
//!   over the delta between the two most recent epochs only.
//! - `txsampler_commits_total`, `txsampler_aborts_total{cause=...}`,
//!   `txsampler_abort_weight_total{cause=...}` (counters): sampled RTM
//!   outcome counts and abort-weight cycles by abort class.
//! - `txsampler_fallback_cycle_share{flavor="stm"|"lock"}` (gauge): how
//!   the fallback slice splits between software transactions and
//!   lock-serialized execution (all-lock unless the `stm` backend runs).
//! - `txsampler_sharing_total{kind="true"|"false"}` (counter): sampled
//!   memory accesses diagnosed as true/false sharing.
//! - `txsampler_truncated_paths_total`, `txsampler_interrupt_abort_samples_total`
//!   (counters): LBR truncations and discounted profiler-induced aborts.
//! - `txsampler_threads` (gauge): threads that have published a delta.
//! - `txsampler_tx_cycles` / `txsampler_retry_depth` (histogram): per-site
//!   log-bucketed committed-transaction duration and retry depth at
//!   completion (`_bucket{site=...,le=...}` + `_sum` + `_count`); the
//!   runtime's power-of-two buckets map directly onto cumulative `le`
//!   bounds, with the catch-all top bucket folded into `+Inf`.
//! - `txsampler_cm_interventions_total{kind=...}` (counter): contention-
//!   manager interventions (yield/stall/escalation/priority_abort) across
//!   all sites; `txsampler_cm_site_interventions_total{site=...,kind=...}`
//!   breaks the nonzero ones down per abort site.
//! - `txsampler_obs_events_total{subsystem=...,counter=...}` (counter):
//!   the profiler's self-observability counters (its own cost).
//!
//! The `component` and `cause` label values, and their order, come from
//! the Figure-7 catalog ([`txsampler::TIME_COMPONENTS`],
//! [`txsampler::ABORT_CLASSES`]); every cause has a count series, and
//! every cause that carries a weight (all but `explicit`) a weight series.

use std::fmt::Write as _;

use obs::{Counter, Snapshot};
use txsampler::{
    CmStats, Hist32, Metrics, ProfileView, SiteHists, SnapshotView, TimeBreakdown, ABORT_CLASSES,
    HIST_BUCKETS, TIME_COMPONENTS,
};

/// Render one metric family header.
pub(crate) fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

pub(crate) fn gauge_f64(out: &mut String, line: &str, v: f64) {
    // Prometheus floats: plain decimal; avoid `NaN`/`inf` surprises.
    let v = if v.is_finite() { v } else { 0.0 };
    let _ = writeln!(out, "{line} {v}");
}

/// Render one gauge family with a sample per time component, labelled by
/// its wire key.
pub(crate) fn shares(out: &mut String, name: &str, help: &str, b: &TimeBreakdown) {
    family(out, name, "gauge", help);
    for c in &TIME_COMPONENTS {
        gauge_f64(
            out,
            &format!("{name}{{component=\"{}\"}}", c.key),
            (c.share)(b),
        );
    }
}

/// Render one unlabelled single-sample family per `(name, kind, help,
/// value)` row.
pub(crate) fn scalars(out: &mut String, rows: &[(&str, &str, &str, u64)]) {
    for &(name, kind, help, value) in rows {
        family(out, name, kind, help);
        let _ = writeln!(out, "{name} {value}");
    }
}

/// Render one counter family whose samples differ in one `label`.
fn labelled<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    label: &str,
    samples: impl IntoIterator<Item = (&'a str, u64)>,
) {
    family(out, name, "counter", help);
    for (value, n) in samples {
        let _ = writeln!(out, "{name}{{{label}=\"{value}\"}} {n}");
    }
}

/// Contention-manager intervention counts by `kind` label.
fn cm_kinds(s: &CmStats) -> [(&'static str, u64); 4] {
    [
        ("yield", s.yields),
        ("stall", s.stalls),
        ("escalation", s.escalations),
        ("priority_abort", s.priority_aborts),
    ]
}

/// Render the full exposition for one snapshot.
///
/// `window` is the metric delta between the two most recent epochs (the
/// hub's [`txsampler::SnapshotHub::window`]); `obs` is a point-in-time
/// copy of the self-observability registry.
pub fn render(view: &SnapshotView, window: Option<&Metrics>, obs: &Snapshot) -> String {
    let mut out = String::new();
    // Same derivation path as every other renderer: one ProfileView, its
    // precomputed totals and breakdown (names are irrelevant here).
    let pv = ProfileView::anonymous(&view.profile);
    let totals = pv.totals;
    let profile = &view.profile;

    scalars(
        &mut out,
        &[
            (
                "txsampler_snapshot_epoch",
                "gauge",
                "Version of the live profile snapshot this scrape observed.",
                view.epoch,
            ),
            (
                "txsampler_samples_total",
                "counter",
                "PMU samples absorbed into the live snapshot hub.",
                profile.samples,
            ),
        ],
    );

    shares(
        &mut out,
        "txsampler_cycle_share",
        "Share of sampled cycles per time component (cumulative; sums to 1 when any work was sampled).",
        &pv.breakdown,
    );
    shares(
        &mut out,
        "txsampler_window_cycle_share",
        "Share of sampled cycles per time component over the most recent epoch window.",
        &TimeBreakdown::from_metrics(window.unwrap_or(&Metrics::default())),
    );

    scalars(
        &mut out,
        &[(
            "txsampler_commits_total",
            "counter",
            "Sampled RTM commit events.",
            totals.commit_samples,
        )],
    );

    labelled(
        &mut out,
        "txsampler_aborts_total",
        "Sampled application-caused RTM abort events by cause.",
        "cause",
        ABORT_CLASSES.map(|r| (r.label(), r.count(&totals))),
    );
    labelled(
        &mut out,
        "txsampler_abort_weight_total",
        "Sampled abort weight (wasted cycles) by cause.",
        "cause",
        ABORT_CLASSES
            .iter()
            .filter_map(|r| Some((r.label(), r.weight(&totals)?))),
    );

    family(
        &mut out,
        "txsampler_fallback_cycle_share",
        "gauge",
        "Share of fallback time per fallback flavor (software TM vs lock-serialized); zero when no fallback time was sampled.",
    );
    let stm_share = totals.stm_fallback_share();
    gauge_f64(
        &mut out,
        "txsampler_fallback_cycle_share{flavor=\"stm\"}",
        stm_share,
    );
    gauge_f64(
        &mut out,
        "txsampler_fallback_cycle_share{flavor=\"lock\"}",
        if totals.t_fb > 0 {
            1.0 - stm_share
        } else {
            0.0
        },
    );

    labelled(
        &mut out,
        "txsampler_sharing_total",
        "Sampled memory accesses diagnosed as true or false sharing.",
        "kind",
        [
            ("true", totals.true_sharing),
            ("false", totals.false_sharing),
        ],
    );

    // From here on `totals` sums the runtime-fed site records; the
    // per-site families make one sorted pass over the records, each
    // skipping the sites where it is empty.
    let records = profile.records.sorted();
    let totals = profile.records.totals();

    scalars(
        &mut out,
        &[
            (
                "txsampler_truncated_paths_total",
                "counter",
                "Samples whose in-transaction path was truncated by the LBR window.",
                profile.truncated_paths,
            ),
            (
                "txsampler_interrupt_abort_samples_total",
                "counter",
                "Abort samples discounted as profiler-induced.",
                profile.interrupt_abort_samples,
            ),
            (
                "txsampler_threads",
                "gauge",
                "Worker threads that have published at least one delta.",
                profile.threads.len() as u64,
            ),
            (
                "txsampler_backend_switches_total",
                "counter",
                "Per-site fallback backend switches performed by the adaptive runtime.",
                totals.mix.switches,
            ),
        ],
    );

    family(
        &mut out,
        "txsampler_site_backend",
        "gauge",
        "Currently dominant fallback flavor per abort site (1 = this site's fallbacks run on this backend).",
    );
    for (ip, r) in &records {
        if let Some(flavor) = r.mix.choice() {
            let _ = writeln!(
                out,
                "txsampler_site_backend{{site=\"{}:{}\",backend=\"{flavor}\"}} 1",
                ip.func.0, ip.line
            );
        }
    }

    labelled(
        &mut out,
        "txsampler_cm_interventions_total",
        "Contention-manager interventions by kind (zero when no CM ran).",
        "kind",
        cm_kinds(&totals.cm),
    );

    family(
        &mut out,
        "txsampler_cm_site_interventions_total",
        "counter",
        "Contention-manager interventions per abort site and kind (nonzero entries only).",
    );
    for (ip, r) in &records {
        let site = format!("{}:{}", ip.func.0, ip.line);
        for (kind, n) in cm_kinds(&r.cm) {
            if n > 0 {
                let _ = writeln!(
                    out,
                    "txsampler_cm_site_interventions_total{{site=\"{site}\",kind=\"{kind}\"}} {n}"
                );
            }
        }
    }

    // Per-site latency/retry histograms. The 32 power-of-two
    // buckets render as cumulative `le` bounds `2^(i+1)-1`; the catch-all
    // top bucket has no finite upper bound, so it folds into `+Inf` (whose
    // count therefore always equals `_count`, as Prometheus requires).
    type Component = fn(&SiteHists) -> &Hist32;
    let families: [(&str, &str, Component); 2] = [
        (
            "txsampler_tx_cycles",
            "Committed critical-section duration in sampled cycles per transaction site (log-bucketed).",
            |h| &h.tx_cycles,
        ),
        (
            "txsampler_retry_depth",
            "Retry depth at completion (HTM attempts plus fallback) per transaction site (log-bucketed).",
            |h| &h.retry_depth,
        ),
    ];
    for (name, help, component) in families {
        family(&mut out, name, "histogram", help);
        for (ip, r) in &records {
            let hist = component(&r.hists);
            if hist.count == 0 {
                continue;
            }
            let site = format!("{}:{}", ip.func.0, ip.line);
            let mut cumulative = 0u64;
            for i in 0..HIST_BUCKETS - 1 {
                cumulative += hist.buckets[i];
                let _ = writeln!(
                    out,
                    "{name}_bucket{{site=\"{site}\",le=\"{}\"}} {cumulative}",
                    Hist32::bucket_le(i)
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{{site=\"{site}\",le=\"+Inf\"}} {}",
                hist.count
            );
            let _ = writeln!(out, "{name}_sum{{site=\"{site}\"}} {}", hist.sum);
            let _ = writeln!(out, "{name}_count{{site=\"{site}\"}} {}", hist.count);
        }
    }

    family(
        &mut out,
        "txsampler_obs_events_total",
        "counter",
        "Self-observability counters of the profiler itself.",
    );
    for &c in Counter::ALL {
        let _ = writeln!(
            out,
            "txsampler_obs_events_total{{subsystem=\"{}\",counter=\"{}\"}} {}",
            c.subsystem().label(),
            c.name(),
            obs.get(c)
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Registry;
    use txsampler::cct::{NodeKey, ROOT};
    use txsampler::{Profile, TimeComponent};
    use txsim_pmu::{FuncId, Ip};

    fn sample_view() -> SnapshotView {
        let mut p = Profile::default();
        let n = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(1), 4),
                speculative: false,
            },
        );
        for (component, times) in [
            (TimeComponent::Outside, 6),
            (TimeComponent::Tx, 2),
            (TimeComponent::LockWaiting, 2),
        ] {
            for _ in 0..times {
                p.cct.metrics_mut(n).add_cycles_sample(component);
            }
        }
        p.cct.metrics_mut(n).commit_samples = 3;
        p.cct.metrics_mut(n).aborts_conflict = 2;
        p.cct.metrics_mut(n).abort_samples = 2;
        p.cct.metrics_mut(n).conflict_weight = 40;
        p.cct.metrics_mut(n).abort_weight = 40;
        p.samples = 15;
        SnapshotView {
            epoch: 7,
            profile: p,
        }
    }

    #[test]
    fn exposition_is_well_formed_and_shares_sum_to_one() {
        let view = sample_view();
        let text = render(&view, None, &Registry::new().snapshot());
        // Every non-comment line is `name{labels} value` with a parseable
        // float value.
        let mut share_sum = 0.0;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty());
            let v: f64 = value.parse().expect("value parses as float");
            if name.starts_with("txsampler_cycle_share{") {
                share_sum += v;
            }
        }
        assert!((share_sum - 1.0).abs() < 1e-9, "cycle shares sum to 1");
        assert!(text.contains("txsampler_snapshot_epoch 7"));
        assert!(text.contains("txsampler_samples_total 15"));
        assert!(text.contains("txsampler_aborts_total{cause=\"conflict\"} 2"));
        assert!(text.contains("txsampler_abort_weight_total{cause=\"conflict\"} 40"));
        assert!(text.contains("txsampler_aborts_total{cause=\"validation\"} 0"));
        assert!(text.contains("txsampler_abort_weight_total{cause=\"validation\"} 0"));
        // No fallback time in the fixture: both flavors read zero rather
        // than emitting NaN.
        assert!(text.contains("txsampler_fallback_cycle_share{flavor=\"stm\"} 0"));
        assert!(text.contains("txsampler_fallback_cycle_share{flavor=\"lock\"} 0"));
    }

    #[test]
    fn window_shares_render_when_present() {
        let view = sample_view();
        let mut window = Metrics::default();
        window.add_cycles_sample(TimeComponent::Tx);
        let text = render(&view, Some(&window), &Registry::new().snapshot());
        assert!(text.contains("txsampler_window_cycle_share{component=\"tx\"} 1"));
        let no_window = render(&view, None, &Registry::new().snapshot());
        assert!(no_window.contains("txsampler_window_cycle_share{component=\"tx\"} 0"));
    }

    #[test]
    fn backend_metrics_render_choice_and_switches() {
        let mut view = sample_view();
        let m = &mut view.profile.records.entry(Ip::new(FuncId(1), 21)).mix;
        m.stm = 5;
        m.lock = 1;
        m.switches = 2;
        let text = render(&view, None, &Registry::new().snapshot());
        assert!(text.contains("txsampler_backend_switches_total 2"));
        assert!(text.contains("txsampler_site_backend{site=\"1:21\",backend=\"stm\"} 1"));
        // A profile with no per-site mixes still renders the family header
        // and a zero switch counter (static backends).
        let plain = render(&sample_view(), None, &Registry::new().snapshot());
        assert!(plain.contains("txsampler_backend_switches_total 0"));
        assert!(!plain.contains("txsampler_site_backend{"));
    }

    #[test]
    fn histogram_families_are_conformant() {
        let mut view = sample_view();
        let site = Ip::new(FuncId(1), 4);
        let mut h = SiteHists::default();
        for _ in 0..9 {
            h.record_completion(100, 1, None); // bucket 6 (le 127)
        }
        h.record_completion(5000, 7, Some(3000)); // bucket 12 (le 8191)
        view.profile.records.entry(site).hists = h;
        let text = render(&view, None, &Registry::new().snapshot());

        // Walk the tx-cycles family for our site: le values must be
        // strictly increasing, counts monotone non-decreasing, and the
        // +Inf bucket must equal _count.
        let prefix = "txsampler_tx_cycles_bucket{site=\"1:4\",le=\"";
        let mut last_le = 0u64;
        let mut last_count = 0u64;
        let mut buckets = 0;
        let mut inf_count = None;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix(prefix) else {
                continue;
            };
            let (le, count) = rest.split_once("\"} ").expect("bucket line shape");
            let count: u64 = count.parse().unwrap();
            assert!(count >= last_count, "cumulative counts must be monotone");
            last_count = count;
            if le == "+Inf" {
                inf_count = Some(count);
            } else {
                let le: u64 = le.parse().unwrap();
                assert!(le > last_le || buckets == 0, "le bounds must increase");
                last_le = le;
            }
            buckets += 1;
        }
        assert_eq!(buckets, HIST_BUCKETS, "31 finite bounds plus +Inf");
        assert_eq!(inf_count, Some(10), "+Inf bucket equals the sample count");
        assert!(text.contains("txsampler_tx_cycles_sum{site=\"1:4\"} 5900"));
        assert!(text.contains("txsampler_tx_cycles_count{site=\"1:4\"} 10"));
        // The cumulative count at le=127 covers the nine fast commits.
        assert!(text.contains("txsampler_tx_cycles_bucket{site=\"1:4\",le=\"127\"} 9"));
        // Retry-depth family rides along; fb_dwell is not exposed.
        assert!(text.contains("txsampler_retry_depth_count{site=\"1:4\"} 10"));
        assert!(!text.contains("txsampler_fb_dwell"));
        // Histogram-free profiles render the family headers only.
        let plain = render(&sample_view(), None, &Registry::new().snapshot());
        assert!(plain.contains("# TYPE txsampler_tx_cycles histogram"));
        assert!(!plain.contains("txsampler_tx_cycles_bucket{"));
    }

    #[test]
    fn cm_families_render_totals_and_per_site_breakdown() {
        let mut view = sample_view();
        let s = &mut view.profile.records.entry(Ip::new(FuncId(1), 4)).cm;
        s.yields = 7;
        s.escalations = 2;
        let text = render(&view, None, &Registry::new().snapshot());
        assert!(text.contains("txsampler_cm_interventions_total{kind=\"yield\"} 7"));
        assert!(text.contains("txsampler_cm_interventions_total{kind=\"stall\"} 0"));
        assert!(text.contains("txsampler_cm_interventions_total{kind=\"escalation\"} 2"));
        assert!(
            text.contains("txsampler_cm_site_interventions_total{site=\"1:4\",kind=\"yield\"} 7")
        );
        // Zero per-site kinds are omitted; CM-free profiles render the
        // family headers and zero totals only.
        assert!(!text.contains("site=\"1:4\",kind=\"stall\""));
        let plain = render(&sample_view(), None, &Registry::new().snapshot());
        assert!(plain.contains("txsampler_cm_interventions_total{kind=\"yield\"} 0"));
        assert!(!plain.contains("txsampler_cm_site_interventions_total{"));
    }

    #[test]
    fn obs_counters_appear_with_subsystem_labels() {
        let registry = Registry::new();
        registry.add(Counter::SnapshotsMerged, 5);
        let text = render(&sample_view(), None, &registry.snapshot());
        assert!(text.contains(
            "txsampler_obs_events_total{subsystem=\"live\",counter=\"snapshots_merged\"} 5"
        ));
    }
}
