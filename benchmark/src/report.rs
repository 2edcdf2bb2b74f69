//! Turn what a run recorded into the named metrics: the end-to-end block
//! (from untraced rounds) and the per-layer block (from traced rounds, the
//! kernels, and the bill that sets them against the measured wall).

use std::collections::BTreeMap;

use rtm_runtime::SiteTruth;
use txsim_htm::{CostModel, CpuStats};

use crate::cases::PassOutcome;
use crate::kernels::Kernels;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{peak_rss_mb, Recorder, Samples};
use crate::stats;
use crate::workloads::Baseline;

/// Per-case medians summed over a workload's cases.
#[derive(Debug, Default, Clone, Copy)]
struct SimTotals {
    native_wall_s: f64,
    prof_wall_s: f64,
    native_cycles: f64,
    prof_cycles: f64,
    samples: f64,
    mem_samples: f64,
    /// Σ |estimated − true| HTM commits, and Σ true.
    commit_err: f64,
    commit_truth: f64,
}

fn sim_totals(s: &Samples) -> SimTotals {
    let mut t = SimTotals::default();
    for i in 0.. {
        let key = |what: &str| format!("case.{i}.{what}");
        if s.get(&key("native_wall_s")).is_empty() {
            break;
        }
        t.native_wall_s += s.median(&key("native_wall_s"));
        t.prof_wall_s += s.median(&key("prof_wall_s"));
        t.native_cycles += s.median(&key("native_cycles"));
        t.prof_cycles += s.median(&key("prof_cycles"));
        t.samples += s.median(&key("samples"));
        t.mem_samples += s.median(&key("mem_samples"));
        let truth = s.median(&key("truth_commits"));
        t.commit_err += (s.median(&key("est_commits")) - truth).abs();
        t.commit_truth += truth;
    }
    t
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// MB of text per second: median bytes over median seconds per call.
fn mb_per_s(s: &Samples, bytes_key: &str, secs_key: &str) -> f64 {
    ratio(s.median(bytes_key) / 1e6, s.median(secs_key))
}

/// The end-to-end metrics, from the untraced rounds only.
pub fn end_to_end(rec: &Recorder) -> Vec<(&'static str, f64)> {
    let s = &rec.plain;
    let t = sim_totals(s);
    let diff_s: Vec<f64> = s
        .get("diff.compute")
        .iter()
        .zip(s.get("diff.render"))
        .map(|(a, b)| a + b)
        .collect();
    let value = |name: &str| match name {
        "setup_s" => s.median("setup_s"),
        "wall_s" => s.median("wall_s"),
        "sim_mcps" => ratio(t.native_cycles / 1e6, t.native_wall_s),
        "profiled_over_native" => ratio(t.prof_wall_s, t.native_wall_s),
        "cycles_profiled_over_native" => ratio(t.prof_cycles, t.native_cycles),
        "samples_per_s" => ratio(t.samples, t.prof_wall_s),
        "peak_rss_mb" => peak_rss_mb(),
        "save_mb_per_s" => mb_per_s(s, "store.bytes", "store.save"),
        "load_mb_per_s" => mb_per_s(s, "store.bytes", "store.load"),
        "report_ms" => s.median("report.render") * 1e3,
        "diff_ms" => stats::median(&diff_s) * 1e3,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END.iter().map(|m| (m.name, value(m.name))).collect()
}

fn sum_stats(pass: &PassOutcome) -> (CpuStats, SiteTruth) {
    let mut stats = CpuStats::default();
    let mut truth = SiteTruth::default();
    for case in &pass.cases {
        for run in [&case.native, &case.profiled] {
            let s = &run.stats;
            stats.tx_begins += s.tx_begins;
            stats.commits += s.commits;
            stats.aborts_conflict += s.aborts_conflict;
            stats.aborts_capacity += s.aborts_capacity;
            stats.aborts_sync += s.aborts_sync;
            stats.aborts_explicit += s.aborts_explicit;
            stats.aborts_interrupt += s.aborts_interrupt;
            stats.aborts_validation += s.aborts_validation;
            stats.stm_commits += s.stm_commits;
            stats.wasted_cycles += s.wasted_cycles;
            truth.merge(&run.truth);
        }
    }
    (stats, truth)
}

/// Σ(count × kernel cost) per layer for one round's simulated runs, next to
/// their measured wall.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bill {
    pub wall_ms: f64,
    pub engine_ms: f64,
    pub runtime_ms: f64,
    pub sched_ms: f64,
    pub sampling_ms: f64,
}

impl Bill {
    pub fn coverage_pct(&self) -> f64 {
        100.0
            * ratio(
                self.engine_ms + self.runtime_ms + self.sched_ms + self.sampling_ms,
                self.wall_ms,
            )
    }
}

/// Everything the per-layer block is computed from.
pub struct PerLayerInputs<'a> {
    pub rec: &'a Recorder,
    pub kernels: &'a Kernels,
    pub last_pass: Option<&'a PassOutcome>,
    pub baseline: &'a Baseline,
}

fn bill(inp: &PerLayerInputs, t: &SimTotals, stats: &CpuStats, truth: &SiteTruth) -> Bill {
    let (rec, k) = (inp.rec, inp.kernels);
    let costs = CostModel::default();
    let mem_period = inp.last_pass.map_or(1, |p| p.mem_period) as f64;
    // Memory operations are not counted anywhere; estimate them the way the
    // profiler does — memory samples times their period — for the profiled
    // runs, and assume the native runs (same programs, same seed) match.
    // Those that claim a line in the directory are counted (`conflict
    // checks`) and billed at the first-touch kernels; the rest at the mean
    // of a transactional re-access and a plain load.
    let mem_ops = 2.0 * t.mem_samples * mem_period;
    let claims = rec
        .counter_per_round("directory_conflict_checks")
        .min(mem_ops);
    // Two loads per store is the suite's rough mix.
    let claim_ns = (2.0 * k.median("cpu.tx_load_ns") + k.median("cpu.tx_store_ns")) / 3.0;
    let reuse_ns = (k.median("cpu.tx_hit_ns") + k.median("cpu.plain_load_ns")) / 2.0;
    let aborts = stats.total_aborts() as f64;
    let sections = (truth.htm_commits + truth.fallbacks) as f64;
    let attempts = rec.counter_per_round("rtm_htm_attempts");
    // Cycles not explained by memory operations and transaction begin/end
    // are billed as plain computation.
    let cycles = t.native_cycles + t.prof_cycles;
    let other_cycles = (cycles
        - mem_ops * costs.load as f64
        - stats.tx_begins as f64 * (costs.xbegin + costs.xend) as f64)
        .max(0.0);
    let compute_ns_per_cycle = k.median("cpu.compute_ns") / crate::kernels::COMPUTE_CYCLES as f64;
    let blocks = rec.counter_per_round("sched_blocks");
    let syncs = rec.counter_per_round("sched_syncs");
    let samples = rec.counter_per_round("samples_taken");
    let ns = |x: f64| x / 1e6;
    Bill {
        wall_ms: (t.native_wall_s + t.prof_wall_s) * 1e3,
        engine_ms: ns(stats.tx_begins as f64 * k.median("cpu.empty_tx_ns")
            + claims * claim_ns
            + (mem_ops - claims) * reuse_ns
            + aborts * k.median("cpu.abort_rollback_ns")
            + other_cycles * compute_ns_per_cycle),
        runtime_ms: ns(attempts.max(sections) * k.median("rtm.section_overhead_ns")
            + truth.lock_fallbacks() as f64 * k.median("rtm.fallback_lock_ns")
            + truth.stm_commits as f64 * k.median("stm.section_ns")),
        sched_ms: ns(blocks * k.median("sched.handoff_ns")
            + (syncs - blocks).max(0.0) * k.median("sched.sync_fast_ns")),
        sampling_ms: ns(samples
            * (k.median("pmu.sample_delivery_ns") + k.median("collector.on_sample_ns"))
            + rec.counter_per_round("collector_deltas_published") * k.median("hub.publish_ns")),
    }
}

/// The per-layer metrics, from the traced rounds, the kernels and the bill.
pub fn per_layer(inp: &PerLayerInputs) -> (Vec<(&'static str, f64)>, Bill) {
    let rec = inp.rec;
    let s = &rec.traced;
    let t = sim_totals(s);
    let (stats, truth) = inp.last_pass.map(sum_stats).unwrap_or_default();
    let bill = bill(inp, &t, &stats, &truth);

    let ms = |key: &str| s.median(key) * 1e3;
    let count = |name: &str| rec.counter_per_round(name);
    let span = |name: &str| rec.obs_span_ms_per_round(name);
    let scrape_ms: Vec<f64> = s.get("scrape.metrics").iter().map(|v| v * 1e3).collect();
    let scrape = stats::summarize(&scrape_ms);
    let requests: f64 = [
        "http_healthz_requests",
        "http_metrics_requests",
        "http_flamegraph_requests",
        "http_delta_requests",
    ]
    .iter()
    .map(|c| count(c))
    .sum();
    // Host time inside Spec::run calls per traced round, from the
    // benchmark-side spans around them (main thread, or the live driver).
    let run_elapsed_ms = rec
        .thread_spans()
        .iter()
        .flat_map(|(_, spans)| spans.iter())
        .filter(|s| matches!(s.name, "run.native" | "run.profiled"))
        .map(|s| s.dur_ns())
        .sum::<u64>() as f64
        / 1e6
        / rec.traced_rounds.max(1) as f64;
    let overhead_pct = 100.0 * (ratio(s.median("wall_s"), rec.plain.median("wall_s")) - 1.0);

    let mut special: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, value) in [
        ("dir.conflict_checks", count("directory_conflict_checks")),
        ("dir.dooms", count("directory_dooms")),
        ("sched.syncs", count("sched_syncs")),
        ("sched.blocks", count("sched_blocks")),
        ("sched.block_wait_ms", span("sched.block_wait")),
        (
            "sched.bill_share",
            ratio(
                count("sched_blocks") * inp.kernels.median("sched.handoff_ns") / 1e6,
                bill.wall_ms,
            ),
        ),
        ("cpu.tx_begins", stats.tx_begins as f64),
        ("cpu.commits", stats.commits as f64),
        ("cpu.aborts_conflict", stats.aborts_conflict as f64),
        ("cpu.aborts_capacity", stats.aborts_capacity as f64),
        ("cpu.aborts_sync", stats.aborts_sync as f64),
        ("cpu.aborts_interrupt", stats.aborts_interrupt as f64),
        ("cpu.aborts_validation", stats.aborts_validation as f64),
        ("cpu.wasted_cycles", stats.wasted_cycles as f64),
        ("pmu.samples_taken", count("samples_taken")),
        ("pmu.samples_dropped", count("samples_dropped")),
        (
            "pmu.lbr_reconstructions",
            count("lbr_window_reconstructions"),
        ),
        ("pmu.lbr_truncated", count("lbr_windows_truncated")),
        ("rtm.htm_attempts", count("rtm_htm_attempts")),
        ("rtm.retries", count("rtm_retries")),
        ("rtm.fallbacks", count("rtm_fallbacks")),
        ("rtm.lock_waits", count("rtm_lock_waits")),
        ("rtm.backend_switches", count("rtm_backend_switches")),
        ("rtm.fallback_ms", span("runtime.fallback")),
        ("stm.commit_ms", span("stm.tl2_commit")),
        ("stm.begins", count("stm_begins")),
        ("stm.commits", count("stm_commits")),
        ("stm.validation_aborts", count("stm_validation_aborts")),
        ("stm.lock_busy", count("stm_lock_busy")),
        ("stm.irrevocable", count("stm_irrevocable")),
        ("collector.on_sample_ms", span("collector.on_sample")),
        ("cct.nodes_created", count("cct_nodes_created")),
        ("cct.nodes_hit", count("cct_nodes_hit")),
        ("shadow.probes", count("shadow_probes")),
        ("shadow.hits", count("shadow_hits")),
        (
            "collector.deltas_published",
            count("collector_deltas_published"),
        ),
        (
            "collector.scratch_truncations",
            count("collector_scratch_truncations"),
        ),
        ("hub.snapshots_merged", count("snapshots_merged")),
        ("store.save_mb_s", mb_per_s(s, "store.bytes", "store.save")),
        ("store.load_mb_s", mb_per_s(s, "store.bytes", "store.load")),
        (
            "store.save_delta_mb_s",
            mb_per_s(s, "store.delta_bytes", "store.save_delta"),
        ),
        (
            "store.load_delta_mb_s",
            mb_per_s(s, "store.delta_bytes", "store.load_delta"),
        ),
        ("store.bytes", s.median("store.bytes")),
        ("report.render_ms", ms("report.render")),
        ("report.folded_ms", ms("report.folded")),
        ("diff.compute_ms", ms("diff.compute")),
        ("diff.render_ms", ms("diff.render")),
        ("decision.diagnose_ms", ms("decision.diagnose")),
        ("profile.absorb_ms", ms("profile.absorb")),
        ("prom.render_ms", ms("prom.render")),
        ("prom.bytes", s.median("prom.bytes")),
        ("server.healthz_ms", ms("scrape.healthz")),
        ("server.metrics_ms", scrape.median),
        ("server.metrics_p99_ms", scrape.p99.unwrap_or(0.0)),
        ("server.delta_ms", ms("scrape.delta")),
        ("server.flamegraph_ms", ms("scrape.flamegraph")),
        ("server.requests", requests),
        ("agg.poll_ms", ms("agg.poll")),
        ("agg.fleet_merge_ms", ms("agg.fleet_merge")),
        ("agg.bytes_per_poll", s.median("agg.bytes_per_poll")),
        ("agg.resyncs", s.median("agg.resyncs")),
        ("agg.errors", s.median("agg.errors")),
        ("harness.setup_ms", span("harness.setup")),
        ("harness.worker_ms", span("harness.worker")),
        ("harness.verify_ms", span("harness.verify")),
        (
            "harness.merge_ms",
            (run_elapsed_ms - bill.wall_ms - span("harness.setup") - span("harness.verify"))
                .max(0.0),
        ),
        ("obs.trace_overhead_pct", overhead_pct),
        ("bill.wall_ms", bill.wall_ms),
        ("bill.engine_ms", bill.engine_ms),
        ("bill.runtime_ms", bill.runtime_ms),
        ("bill.sched_ms", bill.sched_ms),
        ("bill.sampling_ms", bill.sampling_ms),
        ("bill.coverage_pct", bill.coverage_pct()),
        (
            "sampling.share_pct",
            100.0 * ratio(bill.sampling_ms, t.prof_wall_s * 1e3),
        ),
        ("sim.mcycles", t.native_cycles / 1e6),
        (
            "sim.digest_stable",
            f64::from(u8::from(inp.baseline.digest_stable)),
        ),
        (
            "commit_est_err_pct",
            100.0 * ratio(t.commit_err, t.commit_truth),
        ),
        ("scrape_p50_ms", scrape.median),
        ("scrape_p90_ms", scrape.p90.unwrap_or(0.0)),
        ("delta_p50_ms", ms("scrape.delta")),
    ] {
        special.insert(name, value);
    }

    let values = PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.source {
                "kernel" => inp.kernels.median(m.name),
                _ => *special.get(m.name).unwrap_or_else(|| {
                    unreachable!("per-layer metric {} has no definition", m.name)
                }),
            };
            (m.name, value)
        })
        .collect();
    (values, bill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn every_declared_metric_gets_a_value_even_from_an_empty_run() {
        let rec = Recorder::new();
        let e2e = end_to_end(&rec);
        assert_eq!(e2e.len(), END_TO_END.len());
        let kernels = Kernels::default();
        let baseline = Baseline::default();
        let (layers, bill) = per_layer(&PerLayerInputs {
            rec: &rec,
            kernels: &kernels,
            last_pass: None,
            baseline: &baseline,
        });
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.iter().all(|(_, v)| v.is_finite()), "{layers:?}");
        assert_eq!(bill.coverage_pct(), 0.0);
    }

    #[test]
    fn sim_totals_sum_per_case_medians() {
        let mut s = Samples::default();
        for (wall, cycles) in [(0.010, 1e6), (0.012, 1e6), (0.030, 1e6)] {
            s.push("case.0.native_wall_s", wall);
            s.push("case.0.native_cycles", cycles);
        }
        s.push("case.1.native_wall_s", 0.008);
        s.push("case.1.native_cycles", 3e6);
        let t = sim_totals(&s);
        assert!((t.native_wall_s - 0.020).abs() < 1e-12);
        assert_eq!(t.native_cycles, 4e6);
    }
}
