//! Where a result came from. Placement of hot structures moves TM numbers
//! by integer factors (Dice et al., "The Influence of Malloc Placement on
//! TSX Hardware Transactional Memory"), so every result records what fixes
//! placement here: a fresh process per workload and a fixed allocation
//! order inside it.

use std::process::Command;

use crate::json::{obj, Json};

/// Bumped when the shape of the result files changes.
pub const SCHEMA_VERSION: u64 = 1;

/// First line of a command's standard output; `None` if it cannot run or
/// fails (a checkout that is not a git repository, a missing `rustc`).
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .flatten()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn collect(seed: u64, seconds: f64, smoke: bool) -> Json {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git_rev = first_line("git", &["-C", repo, "rev-parse", "HEAD"]);
    let dirty = Command::new("git")
        .args(["-C", repo, "status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty());
    obj([
        ("schema_version", SCHEMA_VERSION.into()),
        (
            "nproc",
            (std::thread::available_parallelism().map_or(0, |n| n.get()) as u64).into(),
        ),
        ("cpu_model", cpu_model().into()),
        (
            "rustc",
            first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()).into(),
        ),
        ("git_rev", git_rev.unwrap_or_else(|| "unknown".into()).into()),
        ("git_dirty", dirty.map_or(Json::Null, Json::from)),
        ("seed", seed.into()),
        ("seconds_per_run", seconds.into()),
        ("smoke", smoke.into()),
        ("fresh_process_per_workload", true.into()),
        (
            "allocation_order",
            "fixed: registry, symbol table, then per round hub/server, runs in case order, product operations in a fixed order; kernels after all rounds".into(),
        ),
        (
            "model_validation",
            "none — simulated TSX, no hardware reference".into(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_has_the_required_fields() {
        let p = collect(7, 10.0, false);
        for key in [
            "schema_version",
            "nproc",
            "cpu_model",
            "rustc",
            "git_rev",
            "git_dirty",
            "seed",
            "fresh_process_per_workload",
            "allocation_order",
            "model_validation",
        ] {
            assert!(p.get(key).is_some(), "missing {key}");
        }
        assert_eq!(p.get("seed").and_then(Json::as_f64), Some(7.0));
        assert!(p
            .get("model_validation")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("none")));
    }

    #[test]
    fn a_command_that_cannot_run_yields_none() {
        assert_eq!(first_line("definitely-not-a-program-xyz", &[]), None);
    }
}
