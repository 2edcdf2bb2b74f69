//! Byte-identical pins for the product phase on fleet-sized profiles.
//!
//! Each pinned `results/baseline_*.txsp` profile is merged 32 times into
//! one fleet, every copy moved into its own function-id space first (what
//! the fleet aggregator does with distinct instances). The full report,
//! the diff of the first half of the fleet against all of it, the folded
//! stacks and every imbalance finding must render exactly as the goldens
//! under `tests/golden/fleet/` record. Texts over 64 KiB are pinned by
//! their FNV-1a 64 hash and length instead of verbatim.
//!
//! Regenerate deliberately with
//! `BLESS=1 cargo test --test fleet_product_pin`.

use txsampler::report::{render_folded, render_report, ReportOptions};
use txsampler::store::{self, FuncNames};
use txsampler::{
    detect_imbalance, diff_profiles, render_diff, NameSource, Profile, ProfileView, Thresholds,
};
use txsim_pmu::FuncId;

/// The pinned baselines, by file stem under `results/`.
const BASELINES: [&str; 4] = [
    "baseline_irrevocable_stm",
    "baseline_mixed_adaptive",
    "baseline_starved_writer_stm",
    "baseline_true_sharing_stm",
];

/// Copies of each baseline merged into its fleet.
const INSTANCES: u32 = 32;
/// Function-id stride between copies (every baseline uses fewer ids).
const FUNC_STRIDE: u32 = 1000;
/// Thread-id stride between copies (as the aggregator uses).
const TID_STRIDE: usize = 1024;
/// Texts longer than this are pinned by hash and length.
const VERBATIM_LIMIT: usize = 64 * 1024;

/// Merge `INSTANCES` copies of `one` into a fleet with its own name table.
/// Function id 0 (the unknown function) is shared by every copy; each other
/// id `f` of copy `k` becomes `f + k * FUNC_STRIDE`, named `inst{k}:{name}`.
/// Returns (first half of the fleet, whole fleet, names).
fn fleet(one: &Profile, names: &FuncNames) -> (Profile, Profile, FuncNames) {
    let mut full = Profile::default();
    let mut half = Profile::default();
    let mut fleet_names = FuncNames::new();
    if let Some(name) = names.get(&0) {
        fleet_names.insert(0, name.clone());
    }
    for k in 0..INSTANCES {
        for (&id, name) in names {
            if id != 0 {
                fleet_names.insert(id + k * FUNC_STRIDE, format!("inst{k}:{name}"));
            }
        }
        let copy = one.remap_funcs(&mut |id: FuncId| {
            if id == FuncId::UNKNOWN {
                id
            } else {
                FuncId(id.0 + k * FUNC_STRIDE)
            }
        });
        full.absorb_profile(&copy, k as usize * TID_STRIDE);
        if k + 1 == INSTANCES / 2 {
            half = full.clone();
        }
    }
    (half, full, fleet_names)
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a golden holds for `text`: the text itself, or its hash and length.
fn pinned_form(text: &str) -> String {
    if text.len() > VERBATIM_LIMIT {
        format!(
            "fnv1a64 {:016x} len {}\n",
            fnv1a64(text.as_bytes()),
            text.len()
        )
    } else {
        text.to_string()
    }
}

/// Compare `text` against `tests/golden/fleet/{name}`, or rewrite it under
/// `BLESS=1`.
fn check(name: &str, text: &str) {
    let got = pinned_form(text);
    let dir = format!("{}/tests/golden/fleet", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/{name}");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with BLESS=1 to create)"));
    assert!(got == want, "{name} drifted from its golden {path}");
}

#[test]
fn fleet_product_outputs_are_pinned() {
    let opts = ReportOptions::default();
    let thresholds = Thresholds::default();
    for stem in BASELINES {
        let path = format!("{}/results/{stem}.txsp", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (one, names) = store::load_with_funcs(&text).expect("baseline loads");
        let (half, full, names) = fleet(&one, &names);
        assert_eq!(full.threads.len(), one.threads.len() * INSTANCES as usize);

        let view = ProfileView::from_names(&full, &names);
        check(&format!("{stem}.report.txt"), &render_report(&view, &opts));
        check(&format!("{stem}.folded.txt"), &render_folded(&view));
        let diff = diff_profiles(&half, &full, &thresholds);
        check(
            &format!("{stem}.diff.txt"),
            &render_diff(&diff, &NameSource::Names(&names)),
        );
        let findings: String =
            detect_imbalance(&full, opts.imbalance_factor, opts.imbalance_min_samples)
                .iter()
                .map(|f| format!("{f:?}\n"))
                .collect();
        check(&format!("{stem}.imbalance.txt"), &findings);
    }
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
