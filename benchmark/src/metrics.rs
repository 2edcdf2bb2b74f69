//! The metric tables: every name this benchmark prints, with its unit,
//! direction, layer, and — for per-layer metrics — the end-to-end metric it
//! is expected to move. `BENCHMARK.json` lists the same names (a unit test
//! holds the two together).

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "host time per round outside the timed phase: domain construction, shared-state build, verify, merge, server start, corpus generation",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.15,
        what: "host time of one round of the workload's fixed work, set-up included",
    },
    EndToEnd {
        name: "sim_mcps",
        unit: "Mcycles/s",
        better: "higher",
        bound: 0.15,
        what: "simulated Mcycles (all threads, native runs) per host second of RunOutcome.wall",
    },
    EndToEnd {
        name: "profiled_over_native",
        unit: "ratio",
        better: "lower",
        bound: 0.10,
        what: "host-wall ratio of the profiled runs to the native runs (Fig. 5)",
    },
    EndToEnd {
        name: "cycles_profiled_over_native",
        unit: "ratio",
        better: "lower",
        bound: 0.05,
        what: "simulated-cycle ratio profiled/native: the perturbation sampling interrupts cause",
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
        what: "PMU samples attributed per host second of profiled RunOutcome.wall",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        what: "VmHWM of the workload's process",
    },
    EndToEnd {
        name: "save_mb_per_s",
        unit: "MB/s",
        better: "higher",
        bound: 0.15,
        what: "MB of .txsp text per second of store::save_with_funcs on the workload's profile",
    },
    EndToEnd {
        name: "load_mb_per_s",
        unit: "MB/s",
        better: "higher",
        bound: 0.20,
        what: "MB of .txsp text per second of store::load_with_funcs",
    },
    EndToEnd {
        name: "report_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median ms per render_report of the workload's profile",
    },
    EndToEnd {
        name: "diff_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median ms per diff_profiles + render_diff (first half of the profile vs all of it)",
    },
];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Crate (and module) the number describes.
    pub layer: &'static str,
    /// `kernel` (a tight loop in `src/kernels`), `count` (obs registry,
    /// CpuStats, Truth), `span` (program or benchmark span), `derived`.
    pub source: &'static str,
    /// The end-to-end metric and workload it should move; "-" for none.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        source,
        moves,
    }
}

const SIM: &str = "sim_mcps on solo_sim";
const DUO: &str = "sim_mcps, wall_s on duo_contended";
const STORM: &str = "samples_per_s, profiled_over_native on sample_storm";
const IO: &str = "save_mb_per_s, load_mb_per_s, report_ms, diff_ms on profile_io";
const LIVE: &str = "scrape_p50_ms, delta_p50_ms (per-layer) and samples_per_s on live_scrape";
const SETUP: &str = "setup_s, wall_s on the sim workloads";

#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // txsim-mem
    pl("mem.new_ms", "ms", "lower", "txsim-mem", "kernel", SETUP),
    pl("mem.load_ns", "ns", "lower", "txsim-mem", "kernel", SIM),
    pl("mem.store_ns", "ns", "lower", "txsim-mem", "kernel", SIM),
    pl("mem.cas_ns", "ns", "lower", "txsim-mem", "kernel", SIM),
    pl("mem.heap_alloc_ns", "ns", "lower", "txsim-mem", "kernel", SETUP),
    // txsim-htm: directory
    pl("dir.tx_read_ns", "ns", "lower", "txsim-htm.directory", "kernel", SIM),
    pl("dir.tx_write_ns", "ns", "lower", "txsim-htm.directory", "kernel", SIM),
    pl("dir.commit8_ns", "ns", "lower", "txsim-htm.directory", "kernel", SIM),
    pl("dir.plain_store_ns", "ns", "lower", "txsim-htm.directory", "kernel", SIM),
    pl("dir.conflict_checks", "count", "lower", "txsim-htm.directory", "count", DUO),
    pl("dir.dooms", "count", "lower", "txsim-htm.directory", "count", DUO),
    // txsim-htm: scheduler
    pl("sched.sync_fast_ns", "ns", "lower", "txsim-htm.sched", "kernel", DUO),
    pl("sched.handoff_ns", "ns", "lower", "txsim-htm.sched", "kernel", DUO),
    pl("sched.syncs", "count", "lower", "txsim-htm.sched", "count", DUO),
    pl("sched.blocks", "count", "lower", "txsim-htm.sched", "count", DUO),
    pl("sched.block_wait_ms", "ms", "lower", "txsim-htm.sched", "span", DUO),
    pl("sched.bill_share", "ratio", "lower", "txsim-htm.sched", "derived", DUO),
    // txsim-htm: cpu
    pl("cpu.empty_tx_ns", "ns", "lower", "txsim-htm.cpu", "kernel", SIM),
    pl("cpu.tx_load_ns", "ns", "lower", "txsim-htm.cpu", "kernel", SIM),
    pl("cpu.tx_store_ns", "ns", "lower", "txsim-htm.cpu", "kernel", SIM),
    pl("cpu.tx_hit_ns", "ns", "lower", "txsim-htm.cpu", "kernel", SIM),
    pl("cpu.plain_load_ns", "ns", "lower", "txsim-htm.cpu", "kernel", SIM),
    pl("cpu.compute_ns", "ns", "lower", "txsim-htm.cpu", "kernel", SIM),
    pl("cpu.call_ret_ns", "ns", "lower", "txsim-htm.cpu", "kernel", SIM),
    pl("cpu.abort_rollback_ns", "ns", "lower", "txsim-htm.cpu", "kernel", DUO),
    pl("cpu.tx_begins", "count", "higher", "txsim-htm.cpu", "count", SIM),
    pl("cpu.commits", "count", "higher", "txsim-htm.cpu", "count", SIM),
    pl("cpu.aborts_conflict", "count", "lower", "txsim-htm.cpu", "count", DUO),
    pl("cpu.aborts_capacity", "count", "lower", "txsim-htm.cpu", "count", SIM),
    pl("cpu.aborts_sync", "count", "lower", "txsim-htm.cpu", "count", SIM),
    pl("cpu.aborts_interrupt", "count", "lower", "txsim-htm.cpu", "count", "cycles_profiled_over_native on sample_storm"),
    pl("cpu.aborts_validation", "count", "lower", "txsim-htm.cpu", "count", DUO),
    pl("cpu.wasted_cycles", "cycles", "lower", "txsim-htm.cpu", "count", "cycles_profiled_over_native"),
    // txsim-pmu
    pl("pmu.sample_delivery_ns", "ns", "lower", "txsim-pmu", "kernel", STORM),
    pl("pmu.lbr_push_ns", "ns", "lower", "txsim-pmu", "kernel", SIM),
    pl("pmu.samples_taken", "count", "higher", "txsim-pmu", "count", STORM),
    pl("pmu.samples_dropped", "count", "lower", "txsim-pmu", "count", STORM),
    pl("pmu.lbr_reconstructions", "count", "higher", "txsim-pmu", "count", STORM),
    pl("pmu.lbr_truncated", "count", "lower", "txsim-pmu", "count", STORM),
    // rtm-runtime
    pl("rtm.section_ns", "ns", "lower", "rtm-runtime", "kernel", SIM),
    pl("rtm.raw_sequence_ns", "ns", "lower", "txsim-htm.cpu", "kernel", SIM),
    pl("rtm.section_overhead_ns", "ns", "lower", "rtm-runtime", "kernel", SIM),
    pl("rtm.fallback_lock_ns", "ns", "lower", "rtm-runtime", "kernel", DUO),
    pl("rtm.hist_record_ns", "ns", "lower", "rtm-runtime", "kernel", "profiled_over_native on solo_sim"),
    pl("rtm.site_lookup_ns", "ns", "lower", "rtm-runtime", "kernel", DUO),
    pl("rtm.htm_attempts", "count", "lower", "rtm-runtime", "count", SIM),
    pl("rtm.retries", "count", "lower", "rtm-runtime", "count", DUO),
    pl("rtm.fallbacks", "count", "lower", "rtm-runtime", "count", DUO),
    pl("rtm.lock_waits", "count", "lower", "rtm-runtime", "count", DUO),
    pl("rtm.backend_switches", "count", "lower", "rtm-runtime", "count", DUO),
    pl("rtm.fallback_ms", "ms", "lower", "rtm-runtime", "span", DUO),
    // txstm
    pl("stm.section_ns", "ns", "lower", "txstm", "kernel", DUO),
    pl("stm.commit_ms", "ms", "lower", "txstm", "span", DUO),
    pl("stm.begins", "count", "lower", "txstm", "count", DUO),
    pl("stm.commits", "count", "higher", "txstm", "count", DUO),
    pl("stm.validation_aborts", "count", "lower", "txstm", "count", DUO),
    pl("stm.lock_busy", "count", "lower", "txstm", "count", DUO),
    pl("stm.irrevocable", "count", "lower", "txstm", "count", DUO),
    // core: collect / cct / callpath / contention
    pl("collector.on_sample_ns", "ns", "lower", "core.collect", "kernel", STORM),
    pl("collector.on_sample_ms", "ms", "lower", "core.collect", "span", STORM),
    pl("callpath.reconstruct_ns", "ns", "lower", "core.callpath", "kernel", STORM),
    pl("cct.path_hit_ns", "ns", "lower", "core.cct", "kernel", STORM),
    pl("cct.insert_ns", "ns", "lower", "core.cct", "kernel", STORM),
    pl("cct.nodes_created", "count", "lower", "core.cct", "count", STORM),
    pl("cct.nodes_hit", "count", "higher", "core.cct", "count", STORM),
    pl("shadow.probe_ns", "ns", "lower", "core.contention", "kernel", STORM),
    pl("shadow.probes", "count", "higher", "core.contention", "count", STORM),
    pl("shadow.hits", "count", "higher", "core.contention", "count", STORM),
    pl("collector.deltas_published", "count", "higher", "core.collect", "count", STORM),
    pl("collector.scratch_truncations", "count", "lower", "core.collect", "count", STORM),
    // core: hub
    pl("hub.publish_ns", "ns", "lower", "core.hub", "kernel", STORM),
    pl("hub.latest_ns", "ns", "lower", "core.hub", "kernel", LIVE),
    pl("hub.delta_since_ns", "ns", "lower", "core.hub", "kernel", LIVE),
    pl("hub.snapshots_merged", "count", "higher", "core.hub", "count", STORM),
    // core: store / report / diff / profile
    pl("store.save_mb_s", "MB/s", "higher", "core.store", "span", IO),
    pl("store.load_mb_s", "MB/s", "higher", "core.store", "span", IO),
    pl("store.save_delta_mb_s", "MB/s", "higher", "core.store", "span", LIVE),
    pl("store.load_delta_mb_s", "MB/s", "higher", "core.store", "span", LIVE),
    pl("store.bytes", "bytes", "lower", "core.store", "count", IO),
    pl("report.render_ms", "ms", "lower", "core.report", "span", IO),
    pl("report.folded_ms", "ms", "lower", "core.report", "span", IO),
    pl("diff.compute_ms", "ms", "lower", "core.diff", "span", IO),
    pl("diff.render_ms", "ms", "lower", "core.diff", "span", IO),
    pl("decision.diagnose_ms", "ms", "lower", "core.decision", "span", IO),
    pl("profile.merge_ms", "ms", "lower", "core.profile", "kernel", SETUP),
    pl("profile.absorb_ms", "ms", "lower", "core.profile", "span", "setup_s on profile_io"),
    // live
    pl("prom.render_ms", "ms", "lower", "live.prometheus", "span", LIVE),
    pl("prom.bytes", "bytes", "lower", "live.prometheus", "count", LIVE),
    pl("server.healthz_ms", "ms", "lower", "live.server", "span", LIVE),
    pl("server.metrics_ms", "ms", "lower", "live.server", "span", LIVE),
    pl("server.metrics_p99_ms", "ms", "lower", "live.server", "span", LIVE),
    pl("server.delta_ms", "ms", "lower", "live.server", "span", LIVE),
    pl("server.flamegraph_ms", "ms", "lower", "live.server", "span", LIVE),
    pl("server.requests", "count", "higher", "live.server", "count", LIVE),
    pl("agg.poll_ms", "ms", "lower", "live.agg", "span", LIVE),
    pl("agg.fleet_merge_ms", "ms", "lower", "live.agg", "span", LIVE),
    pl("agg.bytes_per_poll", "bytes", "lower", "live.agg", "count", LIVE),
    pl("agg.resyncs", "count", "lower", "live.agg", "count", LIVE),
    pl("agg.errors", "count", "lower", "live.agg", "count", LIVE),
    // htmbench: harness
    pl("harness.setup_ms", "ms", "lower", "htmbench.harness", "span", SETUP),
    pl("harness.domain_new_ms", "ms", "lower", "htmbench.harness", "kernel", SETUP),
    pl("harness.worker_ms", "ms", "lower", "htmbench.harness", "span", SIM),
    pl("harness.verify_ms", "ms", "lower", "htmbench.harness", "span", SETUP),
    pl("harness.merge_ms", "ms", "lower", "htmbench.harness", "derived", SETUP),
    // obs
    pl("obs.count_ns", "ns", "lower", "obs", "kernel", "-"),
    pl("obs.span_ns", "ns", "lower", "obs", "kernel", "-"),
    pl("obs.trace_overhead_pct", "%", "lower", "obs", "derived", "-"),
    // the bill: count x kernel per layer against the measured wall
    pl("bill.wall_ms", "ms", "lower", "bill", "derived", "-"),
    pl("bill.engine_ms", "ms", "lower", "bill", "derived", SIM),
    pl("bill.runtime_ms", "ms", "lower", "bill", "derived", SIM),
    pl("bill.sched_ms", "ms", "lower", "bill", "derived", DUO),
    pl("bill.sampling_ms", "ms", "lower", "bill", "derived", STORM),
    pl("bill.coverage_pct", "%", "higher", "bill", "derived", "-"),
    pl("sampling.share_pct", "%", "lower", "bill", "derived", "profiled_over_native on sample_storm"),
    // simulated statistics
    pl("sim.mcycles", "Mcycles", "lower", "simulated", "count", "-"),
    pl("sim.digest_stable", "bool", "higher", "simulated", "derived", "-"),
    // Demoted from the end-to-end block (see README "Demoted metrics").
    pl("commit_est_err_pct", "%", "lower", "core.profile", "derived", "-"),
    pl("scrape_p50_ms", "ms", "lower", "live.server", "span", "-"),
    pl("scrape_p90_ms", "ms", "lower", "live.server", "span", "-"),
    pl("delta_p50_ms", "ms", "lower", "live.server", "span", "-"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{valid_name, Json};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is the contract other tools read; the tables above
    /// are what the program prints. They must agree field by field.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap_or("?").to_string();

        let listed: Vec<(String, String, String, f64)> = json
            .get("end_to_end")
            .expect("end_to_end")
            .as_arr()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap_or(-1.0),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = json
            .get("per_layer")
            .expect("per_layer")
            .as_arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(listed, ours);

        let workloads: Vec<String> = json
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }
}
