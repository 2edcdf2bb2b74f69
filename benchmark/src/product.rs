//! What a user does with a finished profile — save it, load it back,
//! report, diff, export — timed call by call. Every workload runs this on
//! the profile it produced; `profile_io` runs it on a fleet-sized one.

use txsampler::collect::SnapshotView;
use txsampler::report::{render_folded, render_report, ReportOptions};
use txsampler::{diagnose, diff_profiles, render_diff, store, NameSource, Profile, ProfileView};
use txsim_htm::FuncRegistry;

use crate::run::Recorder;

/// The lines of a `.txsp`, with each run of consecutive `site` records
/// sorted. `store::save` writes a thread's `site` records in `HashMap`
/// iteration order, so two saves of equal profiles may order those lines
/// differently; everything else is byte-stable.
pub fn canonical_lines(text: &str) -> Vec<&str> {
    let is_site = |line: &&str| line.starts_with("site\t");
    let mut lines: Vec<&str> = text.lines().collect();
    for run in lines.chunk_by_mut(|a, b| is_site(a) && is_site(b)) {
        if is_site(&run[0]) {
            run.sort_unstable();
        }
    }
    lines
}

/// The round-trip check on one saved profile: `loaded` (the result of
/// loading `text`) must be a profile, and saving it again, with the names
/// it carried, must reproduce `text` byte for byte up to the order of
/// `site` records.
pub fn check_round_trip(
    text: &str,
    loaded: Result<(Profile, store::FuncNames), store::LoadError>,
) -> Result<(), String> {
    let (profile, names) = loaded.map_err(|e| format!("load failed: {e}"))?;
    let again = store::save_with_names(&profile, &|id| names.get(&id.0).cloned());
    if canonical_lines(&again) == canonical_lines(text) {
        Ok(())
    } else {
        Err(format!(
            "re-saved profile differs from the original ({} vs {} bytes)",
            again.len(),
            text.len()
        ))
    }
}

/// Run every product operation `reps` times on `full` (and `half` as the
/// diff's baseline), recording per-call times and checking outputs.
pub fn exercise(
    rec: &mut Recorder,
    full: &Profile,
    half: &Profile,
    funcs: &FuncRegistry,
    reps: usize,
) {
    let thresholds = txsampler::Thresholds::default();
    let opts = ReportOptions::default();
    let snapshot = SnapshotView {
        epoch: 1,
        profile: full.clone(),
    };
    let obs_snapshot = obs::registry().snapshot();
    for _ in 0..reps {
        let text = rec.timed("store.save", || store::save_with_funcs(full, funcs));
        rec.push("store.bytes", text.len() as f64);
        let loaded = rec.timed("store.load", || store::load_with_funcs(&text));
        rec.check_result("store.round_trip", check_round_trip(&text, loaded));

        let view = ProfileView::from_registry(full, funcs);
        let report = rec.timed("report.render", || render_report(&view, &opts));
        let folded = rec.timed("report.folded", || render_folded(&view));
        rec.check(
            "report.nonempty",
            full.samples == 0 || (!report.is_empty() && !folded.is_empty()),
            || "a profile with samples rendered an empty report".into(),
        );
        rec.timed("decision.diagnose", || diagnose(full, &thresholds));

        let diff = rec.timed("diff.compute", || diff_profiles(half, full, &thresholds));
        let rendered = rec.timed("diff.render", || {
            render_diff(&diff, &NameSource::Registry(funcs))
        });
        rec.check("diff.nonempty", !rendered.is_empty(), || {
            "empty diff".into()
        });

        let prom = rec.timed("prom.render", || {
            live::prometheus::render(&snapshot, None, &obs_snapshot)
        });
        rec.push("prom.bytes", prom.len() as f64);

        let delta = rec.timed("store.save_delta", || {
            store::save_delta_with_funcs(full, 0, 1, true, funcs)
        });
        rec.push("store.delta_bytes", delta.len() as f64);
        let chunk = rec.timed("store.load_delta", || store::load_delta(&delta));
        rec.check(
            "store.load_delta",
            chunk.is_ok_and(|c| c.full && c.profile.samples == full.samples),
            || "delta chunk did not load back".into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsampler::cct::{NodeKey, ROOT};
    use txsim_htm::Ip;

    fn reload(text: &str) -> Result<(), String> {
        check_round_trip(text, store::load_with_funcs(text))
    }

    fn tiny_profile(funcs: &FuncRegistry) -> Profile {
        let f = funcs.intern("work", "w.rs", 1);
        let mut p = Profile::default();
        let frame = p.cct.child(
            ROOT,
            NodeKey::Frame {
                func: f,
                callsite: Ip::UNKNOWN,
                speculative: false,
            },
        );
        let leaf = p.cct.child(
            frame,
            NodeKey::Stmt {
                ip: Ip::new(f, 7),
                speculative: false,
            },
        );
        p.cct.metrics_mut(leaf).w = 5;
        p.samples = 5;
        p
    }

    #[test]
    fn round_trip_accepts_a_saved_profile() {
        let funcs = FuncRegistry::new();
        let text = store::save_with_funcs(&tiny_profile(&funcs), &funcs);
        assert_eq!(reload(&text), Ok(()));
    }

    /// The correctness gate must notice a damaged `.txsp`: one that no
    /// longer parses, and one that parses but does not re-save identically.
    #[test]
    fn round_trip_rejects_a_corrupted_profile() {
        let funcs = FuncRegistry::new();
        let text = store::save_with_funcs(&tiny_profile(&funcs), &funcs);

        let truncated_header = text.replacen("txsampler-profile", "txsampler-profil", 1);
        let err = reload(&truncated_header).unwrap_err();
        assert!(err.contains("load failed"), "{err}");

        // Parses, but is not what `save` would write: a duplicated record.
        let line = text.lines().nth(1).expect("a second line");
        let duplicated = text.replacen(line, &format!("{line}\n{line}"), 1);
        assert!(reload(&duplicated).is_err());
    }

    #[test]
    fn canonical_form_only_reorders_runs_of_site_records() {
        let text = "hdr\nsite\t2\nsite\t1\nnode\tb\nnode\ta\nsite\t9\nsite\t3\n";
        assert_eq!(
            canonical_lines(text),
            ["hdr", "site\t1", "site\t2", "node\tb", "node\ta", "site\t3", "site\t9"]
        );
    }

    #[test]
    fn exercise_counts_a_failed_check_as_a_failed_operation() {
        let funcs = FuncRegistry::new();
        let p = tiny_profile(&funcs);
        let mut rec = Recorder::new();
        exercise(&mut rec, &p, &Profile::default(), &funcs, 2);
        assert_eq!(rec.checks.failed, 0, "{:?}", rec.checks.failures);
        assert!(rec.checks.attempted >= 8);
        assert_eq!(rec.plain.get("store.save").len(), 2);

        rec.check_result("store.round_trip", reload("garbage"));
        assert_eq!(rec.checks.failed, 1);
    }
}
