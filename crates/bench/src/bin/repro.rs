//! `repro` — regenerate every table and figure of the TxSampler paper,
//! plus live-profiling utilities (see `USAGE` below for the full text).

use std::path::{Path, PathBuf};
use std::time::Instant;

use txbench::*;

const USAGE: &str = "\
repro — regenerate every table and figure of the TxSampler paper

usage:
  repro [--threads N] [--scale S] [--trials T] [--fallback KIND] [--cm CM]
        [--out DIR] <experiment>...
  repro --self-profile <experiment> [--self-profile-budget PCT]
  repro serve <experiment> [--port N] [--snapshot-interval K] [--rounds R]
  repro agg --follow host:port,host:port [--port N] [--poll-ms MS]
  repro flamegraph <file.txsp>
  repro report <file.txsp>
  repro diff <a.txsp> <b.txsp> [--check]

experiments:
  table1        CLOMP-TM input characteristics
  fig5          runtime overhead across HTMBench
  fig6          overhead vs. thread count (STAMP mean)
  fig7          CLOMP-TM time/abort/weight decomposition
  fig8          application categorization
  table2        optimization speedups; with --save-pairs DIR, saves each
                original/optimized profile pair as <code>_{original,
                optimized}.txsp for later `repro diff`
  case-dedup    §8.1 walkthrough
  case-leveldb  §8.2 walkthrough
  case-histo    §8.3 walkthrough
  case-supplementary  SSCA2/UA/vacation (supplementary material)
  all           everything above
  profile NAME  run one HTMBench program under TxSampler and print its
                full report (CCT view, decomposition, decision tree);
                with --out, also saves the raw profile

--fallback selects the runtime's fallback backend for every workload run
(run, serve, table2, profile, ...). KIND must be one of:
  lock      serialize on the global fallback lock (default; the paper's setup)
  stm       run give-ups as TL2-style software transactions behind the lock gate
  hle       retry the fallback once as lock elision before serializing
  adaptive  per-site dispatch: each abort site's profile (abort classes,
            validation rate, fallback pressure) picks lock/stm/hle for that
            site, with hysteresis — the profiler's advice, applied live
Unknown values are an error, never silently defaulted.

--cm selects the contention manager arbitrating *software* commits. CM
must be one of:
  backoff   exponential backoff between attempts (default; the historical
            behaviour)
  karma     priority from work done: cheap transactions yield/stall instead
            of repeatedly killing an expensive conflictor (fixes writer
            starvation — see `repro diff` on micro/starved_writer)
  escalate  after K failed software attempts, take the exclusive gate and
            commit irrevocably (bounds worst-case retries at K)
The CM only acts on the software fallback path, so --cm without
--fallback stm|adaptive warns and has no effect.

serve drives the experiment's workload mix in a loop while exposing the
live profile over HTTP on 127.0.0.1 (--port 0 picks an ephemeral port):
/healthz, /metrics (Prometheus), /profile.json, /flamegraph, /trend,
/diff?from=N&to=M (totals diff between two retained epochs),
/delta?since=N (epoch-delta export for aggregators). A delta is
published to the snapshot hub every K samples (--snapshot-interval,
default 1000); --rounds 0 (default) runs until interrupted. The
cumulative snapshot is saved to <out>/serve_<exp>.txsp each round.

agg follows N running serve instances (--follow, comma-separated
host:port list), polling each one's /delta endpoint every MS
milliseconds (--poll-ms, default 200) and serving the fleet pane on
127.0.0.1: /metrics (fleet totals + per-instance series), /flamegraph
(merged; ?instance=i drills into one instance), /instances (JSON
health: epoch, polls, errors, resyncs, bytes), /healthz. Instance
restarts are detected by epoch regression and handled with a full
resync; divergent func-id spaces are reconciled by function name.

flamegraph prints a saved profile as collapsed stacks (flamegraph.pl
input); speculative frames carry the _[tx] suffix.

report renders a saved profile's full offline report: summary, time and
abort decompositions, calling-context view, decision-tree diagnosis,
imbalance and contention sections.

diff aligns two saved profiles by call path and reports what changed:
component-share movement (naming the dominant improvement/regression),
top improved and regressed call paths, abort-site weight changes,
per-site percentile shifts (p50/p99 transaction cycles and retry depth,
from the per-site histograms), and which decision-tree suggestions were
resolved, persist, or are new. Warns when the two files' run provenance
(workload, threads) differs. With --check, doubles as a CI regression
gate: exits 1 when B shows a dominant component-share regression of at
least 10 pp (smaller deltas are thread-scheduling noise), any
decision-tree suggestion that was absent on A (new advice = new
problem), or a well-sampled site whose p99 transaction latency moved up
by at least 2 log buckets (a 4x tail regression).

--self-profile runs the experiment twice — instrumentation off, then
counters + tracing on — and prints an overhead-decomposition report for
the profiler itself (see crates/obs). The report ends with two bills,
each pricing a counted quantity at a cost calibrated inline on this
host: histogram recording (store count x per-store cost, budget < 1%)
and the collector sampling fast path (samples taken x per-sample cost,
budget < 4% of instrumented wall, the paper's Fig. 5 overhead).
--self-profile-budget PCT overrides the 4% and turns the collector bill
into a gate: the run exits 1 when the share meets or exceeds PCT (this
is what ci.sh uses). Artifacts land in results/ (or --out):
self_profile_<exp>.json and a Chrome-traceable
self_profile_<exp>.trace.json.";

/// Print usage to stderr and exit nonzero (flag errors must not panic).
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// The value following a flag, or a usage error when the flag is last.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => usage_error(&format!("{flag} requires a value")),
    }
}

/// Parse a flag's numeric value, or exit with usage on garbage.
fn parse_flag<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    let v = flag_value(args, i, flag);
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} expects a number, got '{v}'")))
}

/// Run one registry workload under TxSampler and print every report.
fn profile_one(cfg: &ExpConfig, name: &str, save: &dyn Fn(&str, &str)) {
    let specs = htmbench::registry::all();
    let Some(spec) = specs.iter().find(|s| s.name == name) else {
        eprintln!("unknown workload '{name}'. available:");
        for s in &specs {
            eprintln!("  {}", s.name);
        }
        std::process::exit(2);
    };
    let run_cfg = htmbench::harness::RunConfig::paper_default()
        .with_threads(cfg.threads)
        .with_scale(cfg.scale)
        .with_fallback(cfg.fallback)
        .with_cm(cfg.cm);
    // Counters on so the report can end with the self-cost footer.
    obs::registry().reset();
    obs::set_enabled(true);
    let out = (spec.run)(&run_cfg);
    obs::set_enabled(false);
    let profile = out.profile.as_ref().expect("profiled");
    let registry = out.funcs.clone();

    println!(
        "== {} — truth a/c {:.3}",
        spec.name,
        out.truth_abort_commit_ratio()
    );
    let view = txsampler::ProfileView::from_registry(profile, &registry);
    println!(
        "{}",
        txsampler::report::render_report(&view, &Default::default())
    );
    save(
        &format!("profile-{}.txsp", spec.name.replace('/', "_")),
        &txsampler::store::save_with_funcs(profile, &registry),
    );
    let self_cost = txsampler::report::render_self_cost(&obs::registry().snapshot());
    if !self_cost.is_empty() {
        print!("{self_cost}");
    }
}

/// Load a saved profile (with func names) or exit with a usage error.
fn load_profile_or_exit(path: &str) -> (txsampler::Profile, txsampler::store::FuncNames) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match txsampler::store::load_with_funcs(&text) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {path} is not a valid profile: {e}");
            std::process::exit(2);
        }
    }
}

/// `repro report <file.txsp>`: full offline report from a saved profile.
fn report_command(path: &str) -> ! {
    let (profile, names) = load_profile_or_exit(path);
    let view = txsampler::ProfileView::from_names(&profile, &names);
    println!(
        "{}",
        txsampler::report::render_report(&view, &Default::default())
    );
    std::process::exit(0);
}

/// `repro diff <a.txsp> <b.txsp> [--check]`: CCT-aligned differential
/// report; `--check` turns it into a regression gate (exit 1 when B moved
/// cycle share into a worse component or grew new decision-tree advice).
///
/// The workloads run on real threads, so two runs of the same binary
/// never interleave identically; lock-wait share in particular can move
/// several points on a loaded machine. The gate only fails a share that
/// grew by at least this much — real regressions (a backend change, a
/// lost optimization) move shares by tens of points and grow new
/// decision-tree advice besides.
const CHECK_SHARE_TOLERANCE: f64 = 0.10;

/// `--check` also fails a site whose p99 transaction latency moved up by
/// this many log buckets (each bucket doubles the bound, so 2 buckets is
/// a 4x tail regression). One-bucket moves are boundary jitter, and
/// `ProfileDiff::p99_regressions` already requires both sides to be
/// well-sampled before a site can gate.
const CHECK_P99_MIN_BUCKETS: u32 = 2;

fn diff_command(path_a: &str, path_b: &str, check: bool) -> ! {
    let (a, names_a) = load_profile_or_exit(path_a);
    let (b, mut names) = load_profile_or_exit(path_b);
    // Merge name tables; ids are stable across runs of the same workload
    // (deterministic interning), B's names win on any disagreement.
    for (id, name) in names_a {
        names.entry(id).or_insert(name);
    }
    let diff = txsampler::diff_profiles(&a, &b, &txsampler::Thresholds::default());
    print!(
        "{}",
        txsampler::render_diff(&diff, &txsampler::NameSource::Names(&names))
    );
    if check {
        let mut failures = Vec::new();
        if let Some((component, delta)) = diff.dominant_regression() {
            if delta >= CHECK_SHARE_TOLERANCE {
                failures.push(format!(
                    "dominant regression: {component} share grew by {:.1} pp",
                    delta * 100.0
                ));
            }
        }
        for s in &diff.suggestions.appeared {
            failures.push(format!("new suggestion appeared: {}", s.describe()));
        }
        for d in diff.p99_regressions(CHECK_P99_MIN_BUCKETS) {
            let func = names.get(&d.site.func.0).map(String::as_str).unwrap_or("?");
            failures.push(format!(
                "p99 tx-cycles regression at {func}:{}: moved {:+} buckets ({} -> {} cycles)",
                d.site.line,
                d.d_p99_bucket().unwrap_or(0),
                d.a.tx_cycles.percentile(0.99).unwrap_or(0),
                d.b.tx_cycles.percentile(0.99).unwrap_or(0),
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("check failed: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("check passed: no dominant regression, no p99 shift, no new suggestions");
    }
    std::process::exit(0);
}

/// Dispatch one named experiment. Returns `false` for an unknown name.
fn run_experiment(
    cfg: &ExpConfig,
    exp: &str,
    save: &dyn Fn(&str, &str),
    save_pairs: Option<&Path>,
) -> bool {
    match exp {
        "table1" => {
            let rows = fig7_clomp(cfg);
            let text = render_table1(&rows);
            println!("{text}");
        }
        "fig5" => {
            let rows = fig5_overhead(cfg);
            println!("{}", render_fig5(&rows));
            save("fig5.tsv", &fig5_tsv(&rows));
        }
        "fig6" => {
            let max = cfg.threads.max(2);
            let counts: Vec<usize> = [1usize, 2, 4, 8, 14]
                .into_iter()
                .filter(|&c| c <= max)
                .collect();
            let rows = fig6_thread_sweep(cfg, &counts);
            println!("{}", render_fig6(&rows));
        }
        "fig7" => {
            let rows = fig7_clomp(cfg);
            println!("{}", render_fig7(&rows));
        }
        "fig8" => {
            let rows = fig8_characterize(cfg);
            println!("{}", render_fig8(&rows));
            save("fig8.tsv", &fig8_tsv(&rows));
        }
        "table2" => {
            let rows = table2_speedups_saving(cfg, save_pairs);
            println!("{}", render_table2(&rows));
            save("table2.tsv", &table2_tsv(&rows));
            if let Some(dir) = save_pairs {
                eprintln!(
                    "# saved original/optimized profile pairs under {} (try: repro diff)",
                    dir.display()
                );
            }
        }
        "case-dedup" => println!("{}", case_dedup(cfg)),
        "case-leveldb" => println!("{}", case_leveldb(cfg)),
        "case-histo" => println!("{}", case_histo(cfg)),
        "case-supplementary" => println!("{}", case_supplementary(cfg)),
        _ => return false,
    }
    true
}

/// Run `exp` twice — instrumentation off, then on — and report what the
/// profiler spent on itself (crates/obs, ISSUE: Fig. 5-style decomposition).
/// `budget_pct` (from `--self-profile-budget`) turns the collector bill
/// into a gate: exceed it and the process exits 1.
fn self_profile(cfg: &ExpConfig, exp: &str, out_dir: Option<&Path>, budget_pct: Option<f64>) {
    let discard = |_: &str, _: &str| {};

    // Clean slate: instrumentation off, counters zeroed, trace sink empty.
    obs::set_enabled(false);
    obs::set_tracing(false);
    obs::registry().reset();
    let _ = obs::take_traces();

    eprintln!("# self-profile[{exp}]: baseline run (instrumentation off)");
    let t0 = Instant::now();
    if !run_experiment(cfg, exp, &discard, None) {
        eprintln!("unknown experiment: {exp} (--self-profile takes a table/fig/case name)");
        std::process::exit(2);
    }
    let baseline_wall_ns = t0.elapsed().as_nanos() as u64;

    eprintln!("# self-profile[{exp}]: instrumented run (counters + tracing on)");
    obs::set_enabled(true);
    obs::set_tracing(true);
    let t1 = Instant::now();
    run_experiment(cfg, exp, &discard, None);
    let instrumented_wall_ns = t1.elapsed().as_nanos() as u64;

    // Collect traces before disabling so the main thread's flush is counted.
    let traces = obs::take_traces();
    let snapshot = obs::registry().snapshot();
    obs::set_enabled(false);
    obs::set_tracing(false);

    let profile = obs::SelfProfile {
        experiment: exp.to_string(),
        baseline_wall_ns,
        instrumented_wall_ns,
        spans: obs::aggregate_spans(&traces),
        spans_dropped: traces.iter().map(|t| t.dropped).sum(),
        snapshot,
    };
    println!("{}", profile.render());
    println!(
        "{}",
        render_hist_cost(&profile.snapshot, instrumented_wall_ns)
    );
    // Calibrate with counters live, as they were during the instrumented
    // run, then quiesce again.
    obs::set_enabled(true);
    let budget = budget_pct.unwrap_or(4.0);
    let (collector_bill, over_budget) =
        render_collector_cost(&profile.snapshot, instrumented_wall_ns, budget);
    obs::set_enabled(false);
    println!("{collector_bill}");

    let dir = out_dir
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    let slug = exp.replace('/', "_");
    let json_path = dir.join(format!("self_profile_{slug}.json"));
    std::fs::write(&json_path, profile.to_json()).expect("write self-profile json");
    let trace_path = dir.join(format!("self_profile_{slug}.trace.json"));
    std::fs::write(&trace_path, obs::chrome::export_chrome_trace(&traces))
        .expect("write chrome trace");
    eprintln!(
        "# wrote {} and {}",
        json_path.display(),
        trace_path.display()
    );

    if budget_pct.is_some() && over_budget {
        eprintln!("# self-profile[{exp}]: collector self-cost share exceeds the {budget}% budget");
        std::process::exit(1);
    }
}

/// Bill the run's histogram recording against the < 1% budget: price the
/// actual store count (`RtmHistStores`, counted during the instrumented
/// run) at a per-store cost calibrated inline on this host. A store is
/// three `Hist32::record` calls (tx-cycles, retry-depth, and at most one
/// fallback-dwell), so the calibration loop is run per component and the
/// bill multiplies by three — an upper bound, since dwell only records on
/// fallback completions.
fn render_hist_cost(snapshot: &obs::Snapshot, instrumented_wall_ns: u64) -> String {
    let stores = snapshot.get(obs::Counter::RtmHistStores);
    let reps: u64 = 1 << 20;
    let mut scratch = txsampler::Hist32::default();
    let t = Instant::now();
    for i in 0..reps {
        scratch.record(i);
    }
    std::hint::black_box(&scratch);
    let per_store_ns = 3.0 * t.elapsed().as_nanos() as f64 / reps as f64;
    let cost_ns = stores as f64 * per_store_ns;
    let share = if instrumented_wall_ns == 0 {
        0.0
    } else {
        cost_ns / instrumented_wall_ns as f64
    };
    format!(
        "histogram recording: {stores} stores x ~{per_store_ns:.1} ns = {:.3} ms \
         ({:.3}% of instrumented wall; budget < 1%: {})",
        cost_ns / 1e6,
        share * 100.0,
        if share < 0.01 { "ok" } else { "EXCEEDED" }
    )
}

/// Bill the collector's sampling fast path against the Fig. 5 overhead
/// budget (~4% of wall time in the paper): price the run's actual sample
/// count (`SamplesTaken`, counted during the instrumented run) at a
/// per-sample cost calibrated inline on this host by driving a warm
/// `Collector::on_sample` over a converged synthetic context set. Returns
/// the report line and whether the share exceeded `budget_pct`.
fn render_collector_cost(
    snapshot: &obs::Snapshot,
    instrumented_wall_ns: u64,
    budget_pct: f64,
) -> (String, bool) {
    let samples = snapshot.get(obs::Counter::SamplesTaken);
    let per_sample_ns = calibrate_collector_ns();
    let cost_ns = samples as f64 * per_sample_ns;
    let share = if instrumented_wall_ns == 0 {
        0.0
    } else {
        cost_ns / instrumented_wall_ns as f64
    };
    let exceeded = share * 100.0 >= budget_pct;
    (
        format!(
            "collector fast path: {samples} samples x ~{per_sample_ns:.1} ns = {:.3} ms \
             ({:.3}% of instrumented wall; budget < {budget_pct}%: {})",
            cost_ns / 1e6,
            share * 100.0,
            if exceeded { "EXCEEDED" } else { "ok" }
        ),
        exceeded,
    )
}

/// Measure the steady-state cost of one `Collector::on_sample` call: a
/// fresh collector, a 64-context synthetic load (one third in-transaction
/// with a short LBR window, mirroring the ablation bench), a warm-up pass
/// to converge the CCT and scratch buffers, then a timed replay.
fn calibrate_collector_ns() -> f64 {
    use txsim_pmu::{
        BranchKind, EventKind, Frame, FuncId, Ip, LbrEntry, Sample, SampleSink, SamplingConfig,
    };

    let contention = std::sync::Arc::new(txsampler::ContentionMap::with_defaults(
        txsim_mem::CacheGeometry::default(),
    ));
    let (mut collector, handle) = txsampler::Collector::new(
        0,
        rtm_runtime::ThreadState::new(),
        contention,
        &SamplingConfig::txsampler_default(),
    );

    let load: Vec<(Sample, Vec<Frame>)> = (0..64u32)
        .map(|c| {
            let stack: Vec<Frame> = (0..4)
                .map(|d| Frame {
                    func: FuncId(d + 1),
                    callsite: Ip::new(FuncId(d), 2 * d + 1 + (c % 7)),
                })
                .collect();
            let in_tx = c.is_multiple_of(3);
            let lbr = if in_tx {
                vec![
                    LbrEntry {
                        from: Ip::new(FuncId(4), 7 + c % 5),
                        to: Ip::new(FuncId(40 + c % 4), 0),
                        kind: BranchKind::Call,
                        in_tsx: true,
                        abort: false,
                    },
                    LbrEntry {
                        from: Ip::new(FuncId(40 + c % 4), 9),
                        to: Ip::new(FuncId(40 + c % 4), 9),
                        kind: BranchKind::Interrupt,
                        in_tsx: false,
                        abort: true,
                    },
                ]
            } else {
                Vec::new()
            };
            let sample = Sample {
                event: EventKind::Cycles,
                ip: Ip::new(FuncId(4), 100 + c % 11),
                tid: 0,
                in_tx,
                caused_abort: in_tx,
                addr: None,
                weight: 0,
                abort_class: None,
                tsc: c as u64,
                lbr,
            };
            (sample, stack)
        })
        .collect();

    for i in 0..10_000usize {
        let (sample, stack) = &load[i % load.len()];
        collector.on_sample(sample, stack);
    }
    let reps: u64 = 200_000;
    let t = Instant::now();
    for i in 0..reps {
        let (sample, stack) = &load[(i as usize) % load.len()];
        collector.on_sample(sample, stack);
    }
    let per_sample_ns = t.elapsed().as_nanos() as f64 / reps as f64;
    collector.flush();
    std::hint::black_box(handle.take());
    per_sample_ns
}

/// `repro serve`: start the live driver + HTTP server and block.
fn serve_command(serve_cfg: serve::ServeConfig) -> ! {
    let finite = serve_cfg.rounds > 0;
    let mut handle = match serve::serve_start(serve_cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Parseable by scripts (and humans) even when the port was ephemeral.
    println!("serving on http://{}", handle.addr());
    println!(
        "endpoints: /healthz /metrics /profile.json /flamegraph /trend /delta?since=N /diff?from=N&to=M"
    );
    // Blocks forever with --rounds 0 — serve mode runs until interrupted.
    let outcome = handle.wait_workload();
    if let Some(outcome) = outcome {
        eprintln!(
            "# workload finished: {} rounds in {:.2?}",
            outcome.rounds, outcome.wall
        );
    }
    if finite {
        let view = handle.hub().latest();
        eprintln!(
            "# final snapshot: epoch {} with {} samples",
            view.epoch, view.profile.samples
        );
        let self_cost = txsampler::report::render_self_cost(&obs::registry().snapshot());
        if !self_cost.is_empty() {
            eprint!("{self_cost}");
        }
        std::process::exit(0);
    }
    // rounds == 0 and the driver returned anyway: treat as failure.
    std::process::exit(1);
}

/// `repro agg`: follow N serve instances and serve the fleet pane. Blocks
/// until interrupted.
fn agg_command(follow: &str, port: u16, poll_ms: u64) -> ! {
    let targets: Vec<String> = follow
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if targets.is_empty() {
        usage_error("agg requires --follow host:port[,host:port...]");
    }
    let server = match live::AggServer::start(
        &targets,
        port,
        std::time::Duration::from_millis(poll_ms.max(1)),
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "aggregating {} instances on http://{}",
        targets.len(),
        server.addr()
    );
    println!("endpoints: /healthz /metrics /instances /flamegraph[?instance=i]");
    // Fleet following has no natural end; run until interrupted.
    loop {
        std::thread::park();
    }
}

/// `repro flamegraph <file.txsp>`: render a saved profile as folded stacks.
fn flamegraph_command(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match txsampler::store::load_with_funcs(&text) {
        Ok((profile, names)) => {
            print!(
                "{}",
                txsampler::report::render_folded_names(&profile, &names)
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {path} is not a valid profile: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = std::env::args().skip(1).collect::<Vec<_>>();
    let mut cfg = ExpConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut self_profile_exp: Option<String> = None;
    let mut self_profile_budget: Option<f64> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut port: u16 = 0;
    let mut snapshot_interval: u64 = 1000;
    let mut rounds: u64 = 0;
    let mut save_pairs: Option<PathBuf> = None;
    let mut follow: Option<String> = None;
    let mut poll_ms: u64 = 200;
    let mut check = false;
    let mut cm_given = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--threads" => cfg.threads = parse_flag(&args, &mut i, "--threads"),
            "--scale" => cfg.scale = parse_flag(&args, &mut i, "--scale"),
            "--trials" => cfg.trials = parse_flag(&args, &mut i, "--trials"),
            "--fallback" => {
                let v = flag_value(&args, &mut i, "--fallback");
                // Enum-like flags reject unknown values loudly (exit 2,
                // valid values enumerated) — never silently default.
                cfg.fallback = rtm_runtime::FallbackKind::parse(v).unwrap_or_else(|| {
                    let valid: Vec<&str> = rtm_runtime::FallbackKind::ALL
                        .iter()
                        .map(|k| k.label())
                        .collect();
                    usage_error(&format!(
                        "--fallback expects one of {}, got '{v}'",
                        valid.join("|")
                    ))
                });
            }
            "--cm" => {
                let v = flag_value(&args, &mut i, "--cm");
                cfg.cm = rtm_runtime::CmKind::parse(v).unwrap_or_else(|| {
                    let valid: Vec<&str> =
                        rtm_runtime::CmKind::ALL.iter().map(|k| k.label()).collect();
                    usage_error(&format!(
                        "--cm expects one of {}, got '{v}'",
                        valid.join("|")
                    ))
                });
                cm_given = true;
            }
            "--out" => out_dir = Some(PathBuf::from(flag_value(&args, &mut i, "--out"))),
            "--self-profile" => {
                self_profile_exp = Some(flag_value(&args, &mut i, "--self-profile").to_string())
            }
            "--self-profile-budget" => {
                let pct: f64 = parse_flag(&args, &mut i, "--self-profile-budget");
                if !pct.is_finite() || pct <= 0.0 {
                    usage_error("--self-profile-budget expects a positive percentage");
                }
                self_profile_budget = Some(pct);
            }
            "--port" => port = parse_flag(&args, &mut i, "--port"),
            "--snapshot-interval" => {
                snapshot_interval = parse_flag(&args, &mut i, "--snapshot-interval")
            }
            "--rounds" => rounds = parse_flag(&args, &mut i, "--rounds"),
            "--save-pairs" => {
                save_pairs = Some(PathBuf::from(flag_value(&args, &mut i, "--save-pairs")))
            }
            "--follow" => follow = Some(flag_value(&args, &mut i, "--follow").to_string()),
            "--poll-ms" => poll_ms = parse_flag(&args, &mut i, "--poll-ms"),
            "--check" => check = true,
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'")),
            _ => experiments.push(args[i].clone()),
        }
        i += 1;
    }

    if cm_given
        && !matches!(
            cfg.fallback,
            rtm_runtime::FallbackKind::Stm | rtm_runtime::FallbackKind::Adaptive
        )
    {
        eprintln!(
            "warning: --cm only affects software commits; without --fallback stm|adaptive \
             the {} contention manager never runs",
            cfg.cm.label()
        );
    }

    match experiments.first().map(String::as_str) {
        Some("serve") => {
            let experiment = experiments
                .get(1)
                .cloned()
                .unwrap_or_else(|| "fig5".to_string());
            serve_command(serve::ServeConfig {
                experiment,
                port,
                snapshot_interval,
                rounds,
                exp: cfg,
                out_dir: Some(out_dir.unwrap_or_else(|| PathBuf::from("results"))),
            });
        }
        Some("agg") => {
            let Some(follow) = follow else {
                usage_error("agg requires --follow host:port[,host:port...]");
            };
            agg_command(&follow, port, poll_ms);
        }
        Some("flamegraph") => {
            let Some(path) = experiments.get(1) else {
                usage_error("flamegraph requires a saved profile path (.txsp)");
            };
            flamegraph_command(path);
        }
        Some("report") => {
            let Some(path) = experiments.get(1) else {
                usage_error("report requires a saved profile path (.txsp)");
            };
            report_command(path);
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (experiments.get(1), experiments.get(2)) else {
                usage_error("diff requires two saved profile paths (.txsp)");
            };
            diff_command(a, b, check);
        }
        _ => {}
    }

    if self_profile_budget.is_some() && self_profile_exp.is_none() {
        usage_error("--self-profile-budget requires --self-profile");
    }
    if let Some(exp) = self_profile_exp {
        eprintln!(
            "# repro: threads={} scale={} trials={}",
            cfg.threads, cfg.scale, cfg.trials
        );
        self_profile(&cfg, &exp, out_dir.as_deref(), self_profile_budget);
        return;
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = [
            "table1",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "table2",
            "case-dedup",
            "case-leveldb",
            "case-histo",
            "case-supplementary",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    let save = |name: &str, contents: &str| {
        if let Some(dir) = &out_dir {
            std::fs::write(dir.join(name), contents).expect("write artifact");
        }
    };

    eprintln!(
        "# repro: threads={} scale={} trials={}",
        cfg.threads, cfg.scale, cfg.trials
    );

    for exp in &experiments {
        if exp == "profile" {
            // consume the workload name that follows
            let name = experiments
                .iter()
                .skip_while(|e| e.as_str() != "profile")
                .nth(1)
                .cloned()
                .unwrap_or_default();
            profile_one(&cfg, &name, &save);
            break;
        }
        if !run_experiment(&cfg, exp, &save, save_pairs.as_deref()) {
            eprintln!("unknown experiment: {exp}");
            std::process::exit(2);
        }
    }
}
