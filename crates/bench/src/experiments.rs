//! Experiment runners — one per table/figure in the paper's evaluation
//! (§7–§8). Each returns structured rows and has a paper-style text
//! renderer; the `repro` binary drives them and writes TSV artifacts.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use htmbench::harness::{RunConfig, RunOutcome};
use htmbench::{optimization_pairs, registry, stamp_subset};
use rtm_runtime::{CmKind, FallbackKind};
use txsampler::{report, ABORT_CLASSES, TIME_COMPONENTS};

/// Configuration for the experiment suite.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Worker threads (paper: 14).
    pub threads: usize,
    /// Work scale, 100 = native inputs.
    pub scale: u64,
    /// Timing trials per measurement; the median is reported (the paper
    /// trims min/max of 7 runs).
    pub trials: usize,
    /// Fallback backend the runtime serializes on when HTM gives up.
    pub fallback: FallbackKind,
    /// Contention manager arbitrating software commits (STM-capable
    /// fallbacks only; inert under `lock`/`hle`).
    pub cm: CmKind,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            threads: 14,
            scale: 100,
            trials: 3,
            fallback: FallbackKind::Lock,
            cm: CmKind::Backoff,
        }
    }
}

impl ExpConfig {
    /// A fast configuration for smoke tests.
    pub fn smoke() -> Self {
        ExpConfig {
            threads: 4,
            scale: 5,
            trials: 1,
            fallback: FallbackKind::Lock,
            cm: CmKind::Backoff,
        }
    }

    fn native_run(&self) -> RunConfig {
        RunConfig::paper_default()
            .with_threads(self.threads)
            .with_scale(self.scale)
            .with_fallback(self.fallback)
            .with_cm(self.cm)
            .native()
    }

    fn sampled_run(&self) -> RunConfig {
        RunConfig::paper_default()
            .with_threads(self.threads)
            .with_scale(self.scale)
            .with_fallback(self.fallback)
            .with_cm(self.cm)
    }
}

fn median_wall(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

// ---------------------------------------------------------------------
// Figure 5: runtime overhead of TxSampler across the suite
// ---------------------------------------------------------------------

/// One Figure 5 bar.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Benchmark name.
    pub name: String,
    /// Median native wall time.
    pub native: Duration,
    /// Median wall time with TxSampler attached.
    pub sampled: Duration,
}

impl OverheadRow {
    /// Relative overhead (1.0 = no overhead).
    pub fn ratio(&self) -> f64 {
        self.sampled.as_secs_f64() / self.native.as_secs_f64().max(1e-9)
    }
}

/// Run the Figure 5 experiment: native vs. profiled wall time for every
/// benchmark in the registry.
pub fn fig5_overhead(cfg: &ExpConfig) -> Vec<OverheadRow> {
    registry::all()
        .iter()
        .map(|spec| {
            let native = median_wall(
                (0..cfg.trials)
                    .map(|_| (spec.run)(&cfg.native_run()).wall)
                    .collect(),
            );
            let sampled = median_wall(
                (0..cfg.trials)
                    .map(|_| (spec.run)(&cfg.sampled_run()).wall)
                    .collect(),
            );
            OverheadRow {
                name: spec.name.to_string(),
                native,
                sampled,
            }
        })
        .collect()
}

/// Geometric-mean overhead ratio.
pub fn geomean_ratio(rows: &[OverheadRow]) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = rows.iter().map(|r| r.ratio().ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

/// Render Figure 5 as a text table.
pub fn render_fig5(rows: &[OverheadRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 5 — runtime overhead of TxSampler (native vs. with sampling)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>9}",
        "benchmark", "native", "sampled", "overhead"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<28} {:>9.1?} {:>9.1?} {:>+8.1}%",
            r.name,
            r.native,
            r.sampled,
            (r.ratio() - 1.0) * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "geometric mean overhead: {:+.1}% (paper: ~4%)",
        (geomean_ratio(rows) - 1.0) * 100.0
    )
    .unwrap();
    out
}

// ---------------------------------------------------------------------
// Figure 6: overhead vs. thread count (STAMP average)
// ---------------------------------------------------------------------

/// One Figure 6 point.
#[derive(Debug, Clone)]
pub struct ThreadOverheadRow {
    /// Thread count.
    pub threads: usize,
    /// Mean overhead ratio across the STAMP subset.
    pub ratio: f64,
}

/// Run the Figure 6 experiment: overhead across thread counts, averaged
/// over the STAMP subset.
pub fn fig6_thread_sweep(cfg: &ExpConfig, thread_counts: &[usize]) -> Vec<ThreadOverheadRow> {
    thread_counts
        .iter()
        .map(|&threads| {
            let sub = ExpConfig {
                threads,
                ..cfg.clone()
            };
            let rows: Vec<OverheadRow> = stamp_subset()
                .iter()
                .map(|spec| {
                    let native = median_wall(
                        (0..cfg.trials)
                            .map(|_| (spec.run)(&sub.native_run()).wall)
                            .collect(),
                    );
                    let sampled = median_wall(
                        (0..cfg.trials)
                            .map(|_| (spec.run)(&sub.sampled_run()).wall)
                            .collect(),
                    );
                    OverheadRow {
                        name: spec.name.to_string(),
                        native,
                        sampled,
                    }
                })
                .collect();
            ThreadOverheadRow {
                threads,
                ratio: geomean_ratio(&rows),
            }
        })
        .collect()
}

/// Render Figure 6.
pub fn render_fig6(rows: &[ThreadOverheadRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6 — TxSampler overhead vs. thread count (STAMP mean)"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "  {:>2} threads: {:+.1}%",
            r.threads,
            (r.ratio - 1.0) * 100.0
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------------
// Figure 7 / Table 1: CLOMP-TM decomposition
// ---------------------------------------------------------------------

/// One CLOMP-TM configuration's measurements.
#[derive(Debug)]
pub struct ClompRow {
    /// e.g. "small-1".
    pub label: String,
    /// The full outcome (profile + ground truth).
    pub outcome: RunOutcome,
}

/// Run all six CLOMP-TM configurations with profiling.
pub fn fig7_clomp(cfg: &ExpConfig) -> Vec<ClompRow> {
    htmbench::clomp::all_configs()
        .into_iter()
        .map(|(size, scatter)| {
            let outcome = htmbench::clomp::run(size, scatter, &cfg.sampled_run());
            ClompRow {
                label: outcome.name.trim_start_matches("clomp/").to_string(),
                outcome,
            }
        })
        .collect()
}

/// Render Figure 7: time decomposition, abort decomposition and abort
/// weight decomposition per configuration.
pub fn render_fig7(rows: &[ClompRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 7 — CLOMP-TM data from TxSampler ({} configs)",
        rows.len()
    )
    .unwrap();
    let legend: Vec<String> = TIME_COMPONENTS
        .iter()
        .map(|c| format!("{} {}", c.symbol, c.label))
        .collect();
    writeln!(out, "time decomposition ({}):", legend.join(", ")).unwrap();
    for r in rows {
        let p = r.outcome.profile.as_ref().expect("profiled");
        let barstr = report::band_bar(&report::time_entries(&p.time_breakdown()), 40);
        writeln!(out, "  {:<8} |{}|", r.label, barstr).unwrap();
    }
    let classes = ABORT_CLASSES.into_iter().filter(|c| c.in_figure7());
    let legend: Vec<String> = classes
        .map(|c| format!("{} {}", c.symbol, c.label()))
        .collect();
    writeln!(out, "abort decomposition ({}):", legend.join(", ")).unwrap();
    for r in rows {
        let t = r.outcome.truth.totals();
        let shares = report::abort_entries(t.app_aborts(), |c| {
            c.in_figure7().then(|| t.aborts(c.class))
        });
        let barstr = report::band_bar(&shares, 40);
        writeln!(
            out,
            "  {:<8} |{}| ({} aborts)",
            r.label,
            barstr,
            t.app_aborts()
        )
        .unwrap();
    }
    writeln!(out, "abort weight decomposition (sampled, by class):").unwrap();
    for r in rows {
        let m = r.outcome.profile.as_ref().expect("profiled").totals();
        let shares =
            report::abort_entries(m.abort_weight, |c| c.weight(&m).filter(|_| c.in_figure7()));
        let barstr = report::band_bar(&shares, 40);
        writeln!(
            out,
            "  {:<8} |{}| (weight {})",
            r.label, barstr, m.abort_weight
        )
        .unwrap();
    }
    out
}

/// Render Table 1 alongside measured evidence for each input's expected
/// characteristics.
pub fn render_table1(rows: &[ClompRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 1 — inputs for CLOMP-TM (expected vs. measured, large-tx runs)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:<12} {:<38} {:>10} {:>10}",
        "input", "scatter", "expected", "conflicts", "capacity"
    )
    .unwrap();
    for r in rows.iter().filter(|r| r.label.starts_with("large")) {
        let t = r.outcome.truth.totals();
        let (scatter, expected) = match r.label.as_str() {
            "large-1" => ("Adjacent", "rare conflicts, prefetch friendly"),
            "large-2" => ("FirstParts", "high conflicts, prefetch friendly"),
            "large-3" => ("Random", "rare conflicts, prefetch unfriendly"),
            _ => ("?", "?"),
        };
        writeln!(
            out,
            "{:<8} {:<12} {:<38} {:>10} {:>10}",
            r.label.trim_start_matches("large-"),
            scatter,
            expected,
            t.aborts_conflict,
            t.aborts_capacity
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------------
// Figure 8: application categorization
// ---------------------------------------------------------------------

/// One Figure 8 point.
#[derive(Debug, Clone)]
pub struct CharacterizationRow {
    /// Benchmark name.
    pub name: String,
    /// Critical-section duration ratio (T/W).
    pub r_cs: f64,
    /// Abort/commit ratio.
    pub r_ac: f64,
    /// Resulting type.
    pub program_type: txsampler::ProgramType,
}

/// Run the Figure 8 characterization over the whole registry.
pub fn fig8_characterize(cfg: &ExpConfig) -> Vec<CharacterizationRow> {
    registry::all()
        .iter()
        .map(|spec| {
            let out = (spec.run)(&cfg.sampled_run());
            let p = out.profile.as_ref().expect("profiled");
            let r_cs = p.r_cs();
            let r_ac = out.truth_abort_commit_ratio();
            CharacterizationRow {
                name: spec.name.to_string(),
                r_cs,
                r_ac,
                program_type: txsampler::characterize(r_cs, r_ac),
            }
        })
        .collect()
}

/// Render Figure 8 as the 2×2-ish quadrant listing.
pub fn render_fig8(rows: &[CharacterizationRow]) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 8 — application categorization").unwrap();
    for (ty, blurb) in [
        (
            txsampler::ProgramType::TypeI,
            "Type I   (CS < 20%: little to gain from HTM tuning)",
        ),
        (
            txsampler::ProgramType::TypeII,
            "Type II  (CS >= 20%, abort/commit < 1)",
        ),
        (
            txsampler::ProgramType::TypeIII,
            "Type III (CS >= 20%, abort/commit >= 1)",
        ),
    ] {
        writeln!(out, "{blurb}:").unwrap();
        for r in rows.iter().filter(|r| r.program_type == ty) {
            writeln!(
                out,
                "  {:<28} r_cs {:5.2}  a/c {:6.2}",
                r.name, r.r_cs, r.r_ac
            )
            .unwrap();
        }
    }
    out
}

// ---------------------------------------------------------------------
// Table 2: optimization overview
// ---------------------------------------------------------------------

/// One Table 2 row with measured speedup.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Program name.
    pub code: String,
    /// Symptoms reported by TxSampler.
    pub symptoms: String,
    /// Fix applied.
    pub solutions: String,
    /// Speedup the paper reports.
    pub paper_speedup: f64,
    /// Speedup measured on the simulator (simulated makespan ratio).
    pub measured_speedup: f64,
}

/// Run the Table 2 experiment: each original/optimized pair, speedup from
/// the simulated makespan.
pub fn table2_speedups(cfg: &ExpConfig) -> Vec<SpeedupRow> {
    table2_speedups_saving(cfg, None)
}

/// File-name slug for a Table 2 code name (`AVL Tree` → `avl_tree`).
fn pair_slug(code: &str) -> String {
    code.to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// [`table2_speedups`], optionally saving each pair's first-trial
/// original/optimized profiles (with function names and run provenance)
/// as `<code>_original.txsp` / `<code>_optimized.txsp` under `save_pairs`
/// — ready-made inputs for `repro diff`.
pub fn table2_speedups_saving(cfg: &ExpConfig, save_pairs: Option<&Path>) -> Vec<SpeedupRow> {
    let save = |dir: &Path, code: &str, side: &str, out: &RunOutcome| {
        let Some(profile) = &out.profile else { return };
        let path = dir.join(format!("{}_{side}.txsp", pair_slug(code)));
        std::fs::write(
            &path,
            txsampler::store::save_with_funcs(profile, &out.funcs),
        )
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    };
    if let Some(dir) = save_pairs {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    optimization_pairs()
        .iter()
        .map(|pair| {
            let run_side = |run: &(dyn Fn(&RunConfig) -> RunOutcome + Sync + Send), side: &str| {
                (0..cfg.trials)
                    .map(|trial| {
                        let out = run(&cfg.sampled_run());
                        if trial == 0 {
                            if let Some(dir) = save_pairs {
                                save(dir, pair.code, side, &out);
                            }
                        }
                        out.makespan_cycles
                    })
                    .collect::<Vec<u64>>()
            };
            let orig = run_side(&pair.original, "original");
            let opt = run_side(&pair.optimized, "optimized");
            let med = |mut v: Vec<u64>| {
                v.sort_unstable();
                v[v.len() / 2]
            };
            SpeedupRow {
                code: pair.code.to_string(),
                symptoms: pair.symptoms.to_string(),
                solutions: pair.solutions.to_string(),
                paper_speedup: pair.paper_speedup,
                measured_speedup: med(orig) as f64 / med(opt).max(1) as f64,
            }
        })
        .collect()
}

/// Render Table 2.
pub fn render_table2(rows: &[SpeedupRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 2 — optimization overview (measured on the simulator)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<12} {:<46} {:<44} {:>7} {:>9}",
        "code", "symptoms", "solutions", "paper", "measured"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<12} {:<46} {:<44} {:>6.2}x {:>8.2}x",
            r.code, r.symptoms, r.solutions, r.paper_speedup, r.measured_speedup
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------------
// Case studies (§8)
// ---------------------------------------------------------------------

/// A fix's effect on an abort count: "N% reduction", or "not exercised"
/// when there was nothing to reduce (0 -> 0 is no evidence of a fix).
fn reduction(before: u64, after: u64) -> String {
    if before == 0 {
        return "not exercised".to_string();
    }
    let cut = 100.0 * (1.0 - after as f64 / before as f64);
    format!("{cut:.0}% reduction")
}

/// Run and narrate the Dedup case study (§8.1).
pub fn case_dedup(cfg: &ExpConfig) -> String {
    use htmbench::dedup::{run, Variant};
    let mut out = String::new();
    writeln!(out, "§8.1 case study — PARSEC2 Dedup").unwrap();

    let orig = run(Variant::Original, &cfg.sampled_run());
    let profile = orig.profile.as_ref().expect("profiled");
    let diagnosis = txsampler::diagnose(profile, &txsampler::Thresholds::default());
    writeln!(out, "-- TxSampler decision-tree walk on the original:").unwrap();
    let names = txsampler::NameSource::Registry(&orig.funcs);
    for (i, step) in diagnosis.steps.iter().enumerate().take(8) {
        let observation = step.describe(&names);
        writeln!(out, "   ({}) {observation} = {:.3}", i + 1, step.value).unwrap();
    }
    for s in diagnosis.all_suggestions().iter().take(6) {
        writeln!(out, "   -> {}", s.describe()).unwrap();
    }

    let t0 = orig.truth.totals();
    let hash_fixed = run(Variant::FixedHash, &cfg.sampled_run());
    let t1 = hash_fixed.truth.totals();
    let full = run(Variant::FixedHashAndIo, &cfg.sampled_run());
    let t2 = full.truth.totals();

    writeln!(
        out,
        "-- hash-function fix: capacity aborts {} -> {} ({}; paper: 97%)",
        t0.aborts_capacity,
        t1.aborts_capacity,
        reduction(t0.aborts_capacity, t1.aborts_capacity)
    )
    .unwrap();
    writeln!(
        out,
        "-- I/O moved out of transaction: sync aborts {} -> {} ({})",
        t1.aborts_sync,
        t2.aborts_sync,
        reduction(t1.aborts_sync, t2.aborts_sync)
    )
    .unwrap();
    writeln!(
        out,
        "-- end-to-end speedup: {:.2}x (paper: 1.20x)",
        orig.makespan_cycles as f64 / full.makespan_cycles.max(1) as f64
    )
    .unwrap();
    out
}

/// Run and narrate the LevelDB case study (§8.2).
pub fn case_leveldb(cfg: &ExpConfig) -> String {
    use htmbench::leveldb::{run, Variant};
    let mut out = String::new();
    writeln!(out, "§8.2 case study — LevelDB ReadRandom").unwrap();
    let orig = run(Variant::Original, &cfg.sampled_run());
    let split = run(Variant::SplitRefs, &cfg.sampled_run());
    writeln!(
        out,
        "-- abort/commit ratio: {:.2} -> {:.2} (paper: 2.8 -> 0.38)",
        orig.truth_abort_commit_ratio(),
        split.truth_abort_commit_ratio()
    )
    .unwrap();
    let t = orig.truth.totals();
    writeln!(
        out,
        "-- aborts are conflicts: {} of {} app aborts",
        t.aborts_conflict,
        t.app_aborts()
    )
    .unwrap();
    writeln!(
        out,
        "-- ReadRandom speedup from splitting the refcount transactions: {:.2}x (paper: 2.06x)",
        orig.makespan_cycles as f64 / split.makespan_cycles.max(1) as f64
    )
    .unwrap();
    out
}

/// Run and narrate the Histo case study (§8.3).
pub fn case_histo(cfg: &ExpConfig) -> String {
    use htmbench::histo::{run, Input, Variant};
    let mut out = String::new();
    writeln!(out, "§8.3 case study — Parboil Histo").unwrap();

    let gran = 100;
    for (input, label) in [
        (Input::Skewed, "input 1 (skewed)"),
        (Input::Uniform, "input 2 (uniform)"),
    ] {
        let orig = run(input, Variant::Original, &cfg.sampled_run());
        let b = orig.profile.as_ref().unwrap().time_breakdown();
        writeln!(
            out,
            "-- {label}: original T_oh = {:.0}% of execution (paper: >40%)",
            b.overhead * 100.0
        )
        .unwrap();
        let coal = run(
            input,
            Variant::Coalesced { txn_gran: gran },
            &cfg.sampled_run(),
        );
        let bc = coal.profile.as_ref().unwrap().time_breakdown();
        writeln!(
            out,
            "   coalescing txn_gran={gran}: T_oh -> {:.1}%, speedup {:.2}x, a/c {:.3} -> {:.3}",
            bc.overhead * 100.0,
            orig.makespan_cycles as f64 / coal.makespan_cycles.max(1) as f64,
            orig.truth_abort_commit_ratio(),
            coal.truth_abort_commit_ratio()
        )
        .unwrap();
        if input == Input::Uniform {
            let sorted = run(
                input,
                Variant::CoalescedSorted { txn_gran: gran },
                &cfg.sampled_run(),
            );
            let conflicts = |o: &RunOutcome| o.truth.totals().aborts_conflict;
            writeln!(
                out,
                "   sorting the input: conflict aborts {} -> {}, speedup vs original {:.2}x (paper: 2.91x)",
                conflicts(&coal),
                conflicts(&sorted),
                orig.makespan_cycles as f64 / sorted.makespan_cycles.max(1) as f64
            )
            .unwrap();
        }
    }
    out
}

/// Run and narrate the supplementary case studies (the paper's §8 points
/// to SSCA2, UA and vacation in its supplementary material).
pub fn case_supplementary(cfg: &ExpConfig) -> String {
    let mut out = String::new();

    // SSCA2: high T_wait → defer transactions.
    {
        use htmbench::apps::{ssca2, Ssca2Variant};
        writeln!(
            out,
            "supplementary — SSCA2 (high T_wait → defer transactions)"
        )
        .unwrap();
        let orig = ssca2(Ssca2Variant::Original, &cfg.sampled_run());
        let b = orig.profile.as_ref().unwrap().time_breakdown();
        writeln!(
            out,
            "-- original: lock-wait {:.0}% of execution, a/c {:.2}",
            b.lock_waiting * 100.0,
            orig.truth_abort_commit_ratio()
        )
        .unwrap();
        let opt = ssca2(Ssca2Variant::Deferred, &cfg.sampled_run());
        writeln!(
            out,
            "-- deferred flushes: conflicts {} -> {}, speedup {:.2}x (paper: 1.10x)\n",
            orig.truth.totals().aborts_conflict,
            opt.truth.totals().aborts_conflict,
            orig.makespan_cycles as f64 / opt.makespan_cycles.max(1) as f64
        )
        .unwrap();
    }

    // UA: high T_oh → merge transactions.
    {
        use htmbench::apps::{ua, UaVariant};
        writeln!(
            out,
            "supplementary — NPB UA (high T_oh → merge transactions)"
        )
        .unwrap();
        let orig = ua(UaVariant::Original, &cfg.sampled_run());
        let b = orig.profile.as_ref().unwrap().time_breakdown();
        writeln!(
            out,
            "-- original: T_oh {:.0}% of execution",
            b.overhead * 100.0
        )
        .unwrap();
        let opt = ua(UaVariant::Merged, &cfg.sampled_run());
        let bo = opt.profile.as_ref().unwrap().time_breakdown();
        writeln!(
            out,
            "-- merged 32-per-transaction: T_oh -> {:.1}%, speedup {:.2}x (paper: 1.05x)\n",
            bo.overhead * 100.0,
            orig.makespan_cycles as f64 / opt.makespan_cycles.max(1) as f64
        )
        .unwrap();
    }

    // vacation: high abort rate → reduce transaction size.
    {
        use htmbench::stamp::{vacation, VacationVariant};
        writeln!(
            out,
            "supplementary — vacation (high abort rate → smaller transactions)"
        )
        .unwrap();
        let orig = vacation(VacationVariant::Original, &cfg.sampled_run());
        writeln!(
            out,
            "-- original: a/c {:.2}, avg abort weight {:.0}",
            orig.truth_abort_commit_ratio(),
            orig.truth.totals().abort_weight as f64
                / orig.truth.totals().total_aborts().max(1) as f64
        )
        .unwrap();
        let opt = vacation(VacationVariant::SmallTx, &cfg.sampled_run());
        writeln!(
            out,
            "-- per-row transactions: a/c -> {:.3}, speedup {:.2}x (paper: 1.21x)",
            opt.truth_abort_commit_ratio(),
            orig.makespan_cycles as f64 / opt.makespan_cycles.max(1) as f64
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------------
// TSV export
// ---------------------------------------------------------------------

/// Figure 5 rows as TSV.
pub fn fig5_tsv(rows: &[OverheadRow]) -> String {
    let mut out = String::from("name\tnative_us\tsampled_us\toverhead_pct\n");
    for r in rows {
        writeln!(
            out,
            "{}\t{}\t{}\t{:.2}",
            r.name,
            r.native.as_micros(),
            r.sampled.as_micros(),
            (r.ratio() - 1.0) * 100.0
        )
        .unwrap();
    }
    out
}

/// Figure 8 rows as TSV.
pub fn fig8_tsv(rows: &[CharacterizationRow]) -> String {
    let mut out = String::from("name\tr_cs\tr_ac\ttype\n");
    for r in rows {
        writeln!(
            out,
            "{}\t{:.4}\t{:.4}\t{}",
            r.name,
            r.r_cs,
            r.r_ac,
            r.program_type.label()
        )
        .unwrap();
    }
    out
}

/// Table 2 rows as TSV.
pub fn table2_tsv(rows: &[SpeedupRow]) -> String {
    let mut out = String::from("code\tpaper_speedup\tmeasured_speedup\n");
    for r in rows {
        writeln!(
            out,
            "{}\t{:.2}\t{:.3}",
            r.code, r.paper_speedup, r.measured_speedup
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::reduction;

    #[test]
    fn reduction_needs_something_to_reduce() {
        assert_eq!(reduction(0, 0), "not exercised");
        assert_eq!(reduction(0, 5), "not exercised");
        assert_eq!(reduction(100, 3), "97% reduction");
    }
}
