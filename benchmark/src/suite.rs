//! The one command: every workload, untraced for the end-to-end block and
//! then traced for the per-layer block, each in a fresh process (clean
//! allocator state, its own `VmHWM`), gathered into one result file.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{obj, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::provenance;
use crate::stats;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Repeat the untraced set this many times.
    pub runs: usize,
    pub label: String,
    pub out_dir: PathBuf,
}

/// What one child process reported.
struct Child {
    correct: bool,
    detail: Json,
}

/// Run this executable again for one workload. Its output is passed
/// through; its detail record comes back through a file in `out_dir`.
fn run_child(
    args: &SuiteArgs,
    workload: &str,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let detail_path = args
        .out_dir
        .join(format!(".{}.{workload}.detail.json", args.label));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail-out")
        .arg(&detail_path);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result_line = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let result = Json::parse(result_line).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); exit status {}",
            out.status
        )
    })?;
    let detail = std::fs::read_to_string(&detail_path)
        .map_err(|e| format!("{}: {e}", detail_path.display()))
        .and_then(|text| Json::parse(&text))?;
    let _ = std::fs::remove_file(&detail_path);
    Ok(Child {
        correct: out.status.success() && result.get("correct") == Some(&Json::Bool(true)),
        detail,
    })
}

fn metric_value(detail: &Json, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Run the whole set and write `<out_dir>/<label>.json`. Returns whether
/// every run was correct.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload}: untraced (end-to-end) ==");
        let mut untraced = Vec::new();
        for _ in 0..args.runs.max(1) {
            let child = run_child(args, workload, false, None)?;
            all_correct &= child.correct;
            untraced.push(child.detail);
        }
        println!("== {workload}: traced (per-layer) ==");
        let trace_path = args
            .out_dir
            .join(format!("{}.{workload}.trace.json", args.label));
        let traced = run_child(args, workload, true, Some(&trace_path))?;
        all_correct &= traced.correct;

        let end_to_end = Json::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    let values: Vec<f64> = untraced
                        .iter()
                        .filter_map(|d| metric_value(d, m.name))
                        .collect();
                    let [q1, median, q3] = stats::quartiles(&values);
                    (
                        m.name.to_string(),
                        obj([
                            ("unit", m.unit.into()),
                            ("what", m.what.into()),
                            ("better", m.better.into()),
                            ("bound", m.bound.into()),
                            (
                                "values",
                                Json::Arr(values.iter().map(|&v| v.into()).collect()),
                            ),
                            ("median", median.into()),
                            ("q1", q1.into()),
                            ("q3", q3.into()),
                        ]),
                    )
                })
                .collect(),
        );
        let per_layer = Json::Obj(
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        obj([
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("layer", m.layer.into()),
                            ("source", m.source.into()),
                            ("should_move", m.moves.into()),
                            (
                                "value",
                                metric_value(&traced.detail, m.name).map_or(Json::Null, Json::from),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let first = &untraced[0];
        workloads.push((
            workload.to_string(),
            obj([
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                (
                    "sim_digest",
                    first.get("sim_digest").cloned().unwrap_or(Json::Null),
                ),
                ("cases", first.get("cases").cloned().unwrap_or(Json::Null)),
                (
                    "threads",
                    first.get("threads").cloned().unwrap_or(Json::Null),
                ),
                ("chrome_trace", trace_path.display().to_string().into()),
                ("untraced_runs", Json::Arr(untraced)),
                ("traced_run", traced.detail),
            ]),
        ));
    }
    let file = obj([
        ("schema_version", provenance::SCHEMA_VERSION.into()),
        ("label", args.label.as_str().into()),
        ("runs", (args.runs.max(1) as u64).into()),
        ("correct", all_correct.into()),
        (
            "provenance",
            provenance::collect(args.seed, args.seconds, args.smoke),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = args.out_dir.join(format!("{}.json", args.label));
    std::fs::write(&path, file.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
