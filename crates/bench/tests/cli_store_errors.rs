//! CLI contract for corrupt inputs: `repro report` and `repro diff` on a
//! truncated, garbage or older-format `.txsp` must exit 2 with a one-line
//! error on stderr — no panic, no partial report on stdout.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A scratch path unique to this test process (no tempfile dependency).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("txsp_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// The shared rejection contract: exit 2, exactly one `error:` line naming
/// the bad file, and nothing on stdout.
fn assert_rejected(args: &[&str], bad_path: &Path) {
    let out = repro().args(args).output().expect("repro runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "repro {args:?} must exit 2 on a corrupt profile (stderr: {})",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "one-line error, got: {stderr:?}");
    assert!(stderr.starts_with("error: "), "{stderr:?}");
    assert!(
        stderr.contains(&bad_path.display().to_string()),
        "error must name the bad file: {stderr:?}"
    );
    assert!(
        stderr.contains("is not a valid profile"),
        "error must say why: {stderr:?}"
    );
    assert!(
        out.stdout.is_empty(),
        "no partial report on stdout: {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn garbage_profile_is_rejected_with_one_line_error() {
    let path = scratch("garbage.txsp");
    std::fs::write(&path, "this was never a profile\nsamples ?? 12\n\x00\x01").unwrap();
    let p = path.to_str().unwrap();
    assert_rejected(&["report", p], &path);
    assert_rejected(&["diff", p, p], &path);
    assert_rejected(&["flamegraph", p], &path);
}

#[test]
fn truncated_profile_is_rejected_with_one_line_error() {
    // A real profile from the binary itself, then cut mid-record so the
    // trailing line is a malformed fragment.
    let dir = scratch("gen");
    std::fs::create_dir_all(&dir).unwrap();
    let out = repro()
        .args(["--threads", "2", "--scale", "2", "--trials", "1", "--out"])
        .arg(&dir)
        .args(["profile", "micro/low_conflict"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "profile generation failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let full = std::fs::read_to_string(dir.join("profile-micro_low_conflict.txsp")).unwrap();
    // Cut two bytes past the last newline in the first two thirds: the
    // final line becomes a fragment no record parser accepts.
    let cut = full[..full.len() * 2 / 3].rfind('\n').unwrap() + 2;
    let path = scratch("truncated.txsp");
    std::fs::write(&path, &full[..cut]).unwrap();
    let p = path.to_str().unwrap();
    assert_rejected(&["report", p], &path);
    assert_rejected(&["diff", p, p], &path);
    // Order matters for diff: a good A with a truncated B must also fail
    // on B, after A loaded cleanly.
    let good = scratch("good.txsp");
    std::fs::write(&good, &full).unwrap();
    assert_rejected(&["diff", good.to_str().unwrap(), p], &path);
}

#[test]
fn older_format_version_is_rejected_with_one_line_error() {
    // A pinned v6 baseline relabelled v5: the store reads only the version
    // it writes, so the old header alone must refuse the whole file.
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/baseline_mixed_adaptive.txsp"
    );
    let text = std::fs::read_to_string(baseline).expect("pinned baseline");
    let path = scratch("v5.txsp");
    std::fs::write(&path, text.replacen("\tv6\t", "\tv5\t", 1)).unwrap();
    let p = path.to_str().unwrap();
    assert_rejected(&["report", p], &path);
    assert_rejected(&["diff", p, p], &path);
    assert_rejected(&["flamegraph", p], &path);
}
