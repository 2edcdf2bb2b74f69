//! The repository's benchmark (see `BENCHMARK.json` and `README.md`).
//!
//! ```text
//! txsampler-benchmark [--seed S] [--seconds N] [--smoke] [--runs N] [--label L]
//!     every workload, untraced then traced, one fresh process each;
//!     writes benchmark/out/<label>.json and a Chrome trace per workload
//! txsampler-benchmark --workload W --seed S --seconds N --trace 0|1 [--smoke]
//!     one run in this process; last line of stdout is the result object
//! txsampler-benchmark --compare A.json B.json
//!     verdict per workload and end-to-end metric; exit 1 on any `worse`
//! ```

mod cases;
mod compare;
mod json;
mod kernels;
mod metrics;
mod product;
mod provenance;
mod report;
mod run;
mod single;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

const USAGE: &str = "usage:
  txsampler-benchmark [--seed S] [--seconds N] [--smoke] [--runs N] [--label L] [--out DIR]
  txsampler-benchmark --workload W --seed S --seconds N --trace 0|1 [--smoke]
                      [--detail-out FILE] [--trace-out FILE]
  txsampler-benchmark --compare A.json B.json
workloads: solo_sim duo_contended sample_storm profile_io live_scrape";

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    runs: Option<usize>,
    label: Option<String>,
    out: Option<PathBuf>,
    detail_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    fn number<T: std::str::FromStr>(raw: String, flag: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("bad value for {flag}: {raw}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => args.seed = Some(number(value(&mut it, flag)?, flag)?),
            "--seconds" => {
                let seconds: f64 = number(value(&mut it, flag)?, flag)?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("bad value for --seconds: {seconds}"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad value for --trace: {other} (0 or 1)")),
                })
            }
            "--smoke" => args.smoke = true,
            "--runs" => args.runs = Some(number(value(&mut it, flag)?, flag)?),
            "--label" => {
                let label = value(&mut it, flag)?;
                if !json::valid_name(&label) {
                    return Err(format!(
                        "bad value for --label: {label} (letters, digits, _ . -)"
                    ));
                }
                args.label = Some(label);
            }
            "--out" => args.out = Some(value(&mut it, flag)?.into()),
            "--detail-out" => args.detail_out = Some(value(&mut it, flag)?.into()),
            "--trace-out" => args.trace_out = Some(value(&mut it, flag)?.into()),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()))
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn read_json(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `run_seconds` from `BENCHMARK.json`: how long the driver measures.
fn default_seconds() -> f64 {
    read_json(BENCHMARK_JSON.as_ref())
        .ok()
        .and_then(|j| j.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0)
}

fn real_main(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if let Some((a, b)) = &args.compare {
        let rules = compare::rules_from_benchmark_json(&read_json(BENCHMARK_JSON.as_ref())?)?;
        let order: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        let result = compare::compare(&read_json(a)?, &read_json(b)?, &rules, &order);
        print!("{}", result.text);
        if result.unresolved > 0 {
            eprintln!(
                "{} rows are unresolved: repeat both sides with --runs N",
                result.unresolved
            );
        }
        return Ok(result.worse == 0);
    }
    // Smoke: about a twentieth of the work per round and a short time box.
    let seconds = args
        .seconds
        .unwrap_or_else(|| if args.smoke { 0.5 } else { default_seconds() });
    let seed = args.seed.unwrap_or(1);
    match args.workload {
        Some(workload) => {
            let outcome = single::run(&single::SingleArgs {
                workload,
                seed,
                seconds,
                trace: args.trace.unwrap_or(false),
                smoke: args.smoke,
                detail_out: args.detail_out,
                trace_out: args.trace_out,
            })?;
            println!("{}", outcome.result_line());
            Ok(outcome.correct())
        }
        None => suite::run(&suite::SuiteArgs {
            seed,
            seconds,
            smoke: args.smoke,
            runs: args.runs.unwrap_or(1),
            label: args.label.unwrap_or_else(|| {
                if args.smoke {
                    "smoke".into()
                } else {
                    format!("seed{seed}")
                }
            }),
            out_dir: args.out.unwrap_or_else(|| DEFAULT_OUT.into()),
        }),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = parse_args(&argv(
            "--workload solo_sim --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("solo_sim"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(42), Some(10.0), Some(true))
        );
    }

    #[test]
    fn bad_arguments_are_usage_errors_not_panics() {
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--seconds nan",
            "--bogus",
            "--compare a.json",
            "--label a/b",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
        assert!(real_main(&argv("--workload nope --seconds 0")).is_err());
    }
}
