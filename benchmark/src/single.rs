//! One invocation of the contract: one workload, traced or untraced, in
//! this process. Prints every metric as `name value unit` and, as the last
//! line of standard output, the result object the driver reads.

use std::path::PathBuf;

use crate::json::{obj, Json};
use crate::kernels::{self, Kernels};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{self, Bill, PerLayerInputs};
use crate::run::{load_host, run_rounds, Recorder};
use crate::stats::summarize;
use crate::trace;
use crate::workloads;

/// Program spans kept per thread while tracing (the default ring of 4096
/// would wrap within one storm-sampled run).
const OBS_SPAN_CAPACITY: usize = 1 << 18;

/// How long a run loads the host before measuring (see [`load_host`]).
const HOST_LOAD: std::time::Duration = std::time::Duration::from_millis(1500);

#[derive(Debug, Clone)]
pub struct SingleArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Write the full detail record (metrics, summaries, provenance) here.
    pub detail_out: Option<PathBuf>,
    /// Write the Chrome trace of a traced run here.
    pub trace_out: Option<PathBuf>,
}

/// Everything one run produced.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub detail: Json,
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    obj([("value", value.into()), ("unit", unit.into())]),
                )
            })
            .collect(),
    )
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .render()
    }
}

fn series_json(values: &[f64]) -> Json {
    let s = summarize(values);
    let mut pairs = vec![
        ("n".to_string(), Json::from(s.n as u64)),
        ("median".to_string(), s.median.into()),
        (
            "min".to_string(),
            if s.n == 0 { Json::Null } else { s.min.into() },
        ),
        ("mad".to_string(), s.mad.into()),
    ];
    if let Some(p90) = s.p90 {
        pairs.push(("p90".to_string(), p90.into()));
    }
    if let Some(p99) = s.p99 {
        pairs.push(("p99".to_string(), p99.into()));
    }
    Json::Obj(pairs)
}

fn kernels_json(kernels: &Kernels) -> Json {
    Json::Obj(
        kernels
            .results
            .iter()
            .map(|k| {
                (
                    k.name.to_string(),
                    obj([
                        ("unit", k.unit.into()),
                        ("median", k.summary.median.into()),
                        ("min", k.summary.min.into()),
                        ("mad", k.summary.mad.into()),
                        ("repeats", (k.summary.n as u64).into()),
                    ]),
                )
            })
            .collect(),
    )
}

/// Self time per benchmark-side span name, per traced round.
fn span_table(rec: &Recorder) -> Json {
    let rounds = rec.traced_rounds.max(1) as f64;
    Json::Obj(
        rec.thread_spans()
            .into_iter()
            .map(|(thread, spans)| {
                (
                    thread.to_string(),
                    Json::Obj(
                        trace::aggregate(spans)
                            .into_iter()
                            .map(|(name, agg)| {
                                (
                                    name.to_string(),
                                    obj([
                                        ("count_per_round", (agg.count as f64 / rounds).into()),
                                        (
                                            "total_ms_per_round",
                                            (agg.total_ns as f64 / 1e6 / rounds).into(),
                                        ),
                                        (
                                            "self_ms_per_round",
                                            (agg.self_ns as f64 / 1e6 / rounds).into(),
                                        ),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
}

fn print_bill(bill: &Bill) {
    println!("# bill (one traced round, native + profiled runs): layer, count x kernel cost, share of measured wall");
    for (layer, value) in [
        (
            "engine (txsim-mem, txsim-htm cpu+directory)",
            bill.engine_ms,
        ),
        ("runtime (rtm-runtime, txstm)", bill.runtime_ms),
        ("scheduler (txsim-htm sched)", bill.sched_ms),
        ("sampling (txsim-pmu, core collect+hub)", bill.sampling_ms),
    ] {
        println!(
            "#   {layer:<46} {value:>10.2} ms  {:>5.1} %",
            100.0 * value / bill.wall_ms.max(f64::MIN_POSITIVE)
        );
    }
    println!("#   {:<46} {:>10.2} ms", "measured wall", bill.wall_ms);
    let coverage = bill.coverage_pct();
    if bill.wall_ms > 0.0 && !(60.0..=120.0).contains(&coverage) {
        println!("# warning: bill.coverage_pct = {coverage:.1} is outside 60-120: the kernels do not explain this workload's wall");
    }
}

/// Run one workload and build its outcome. `Err` is a usage error.
pub fn run(args: &SingleArgs) -> Result<Outcome, String> {
    let mut workload =
        workloads::build(&args.workload, args.seed, args.smoke).ok_or_else(|| {
            format!(
                "unknown workload '{}'; workloads: {}",
                args.workload,
                workloads::WORKLOADS.join(" ")
            )
        })?;
    if args.trace {
        obs::spans::set_span_capacity(OBS_SPAN_CAPACITY);
    }
    if !args.smoke {
        load_host(HOST_LOAD);
    }
    let mut rec = Recorder::new();
    run_rounds(&mut *workload, &mut rec, args.seconds, args.trace);
    let sim = workload.sim();
    let plan = &sim.plan;

    println!(
        "# workload {} seed {} trace {} rounds {} (+{} traced) smoke {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        rec.plain_rounds,
        rec.traced_rounds,
        args.smoke
    );
    let mut detail = vec![
        ("workload".to_string(), Json::from(args.workload.as_str())),
        ("seed".to_string(), args.seed.into()),
        ("seconds".to_string(), args.seconds.into()),
        ("trace".to_string(), args.trace.into()),
        ("smoke".to_string(), args.smoke.into()),
        (
            "rounds_untraced".to_string(),
            u64::from(rec.plain_rounds).into(),
        ),
        (
            "rounds_traced".to_string(),
            u64::from(rec.traced_rounds).into(),
        ),
        ("threads".to_string(), (plan.threads as u64).into()),
        (
            "cases".to_string(),
            Json::Arr(plan.describe().into_iter().map(Json::from).collect()),
        ),
        (
            "sim_digest".to_string(),
            obj([
                (
                    "value",
                    format!("{:016x}", sim.baseline.digest.unwrap_or(0)).into(),
                ),
                ("stable", sim.baseline.digest_stable.into()),
                ("must_repeat", (plan.threads == 1).into()),
            ]),
        ),
    ];
    println!(
        "sim_digest {:016x} stable {}",
        sim.baseline.digest.unwrap_or(0),
        sim.baseline.digest_stable
    );

    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        let kernels = kernels::run_all(args.smoke);
        let (values, bill) = report::per_layer(&PerLayerInputs {
            rec: &rec,
            kernels: &kernels,
            last_pass: sim.last.as_ref(),
            baseline: &sim.baseline,
        });
        print_bill(&bill);
        detail.push(("kernels".to_string(), kernels_json(&kernels)));
        detail.push(("spans".to_string(), span_table(&rec)));
        detail.push((
            "obs_spans_dropped".to_string(),
            rec.obs_spans.dropped.into(),
        ));
        if let Some(path) = &args.trace_out {
            let text = trace::export_chrome(&rec.thread_spans(), &rec.obs_spans.recent);
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        values
            .into_iter()
            .zip(PER_LAYER)
            .map(|((name, value), m)| (name, value, m.unit))
            .collect()
    } else {
        report::end_to_end(&rec)
            .into_iter()
            .zip(END_TO_END)
            .map(|((name, value), m)| (name, value, m.unit))
            .collect()
    };
    for &(name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }

    // The sample counts behind the medians (untraced set for end-to-end).
    let samples = if args.trace { &rec.traced } else { &rec.plain };
    detail.push((
        "series".to_string(),
        Json::Obj(
            [
                "setup_s",
                "wall_s",
                "store.save",
                "store.load",
                "report.render",
                "diff.compute",
                "diff.render",
                "scrape.metrics",
                "scrape.delta",
                "scrape.flamegraph",
                "scrape.healthz",
                "agg.poll",
            ]
            .iter()
            .filter(|key| !samples.get(key).is_empty())
            .map(|key| (key.to_string(), series_json(samples.get(key))))
            .collect(),
        ),
    ));
    let per_case: Vec<Json> = plan
        .cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let m = |what: &str| samples.median(&format!("case.{i}.{what}"));
            println!(
                "# case {:<20} {:<8} native {:>8.2} ms  profiled {:>8.2} ms  {:>8.3} Mcycles  {:>8.0} samples",
                case.program,
                case.fallback.label(),
                m("native_wall_s") * 1e3,
                m("prof_wall_s") * 1e3,
                m("native_cycles") / 1e6,
                m("samples")
            );
            obj([
                ("program", case.program.into()),
                ("fallback", case.fallback.label().into()),
                ("native_wall_ms", (m("native_wall_s") * 1e3).into()),
                ("profiled_wall_ms", (m("prof_wall_s") * 1e3).into()),
                ("native_mcycles", (m("native_cycles") / 1e6).into()),
                ("profiled_mcycles", (m("prof_cycles") / 1e6).into()),
                ("samples", m("samples").into()),
            ])
        })
        .collect();
    detail.push(("per_case".to_string(), Json::Arr(per_case)));
    println!("ops_attempted {} count", rec.checks.attempted);
    println!("ops_failed {} count", rec.checks.failed);
    for failure in &rec.checks.failures {
        println!("# FAILED {failure}");
    }
    detail.push((
        "failures".to_string(),
        Json::Arr(
            rec.checks
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect(),
        ),
    ));
    detail.push(("metrics".to_string(), metrics_json(&metrics)));
    detail.push(("ops_attempted".to_string(), rec.checks.attempted.into()));
    detail.push(("ops_failed".to_string(), rec.checks.failed.into()));

    let outcome = Outcome {
        metrics,
        attempted: rec.checks.attempted.max(1),
        failed: rec.checks.failed,
        detail: Json::Obj(detail),
    };
    if let Some(path) = &args.detail_out {
        std::fs::write(path, outcome.detail.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}
