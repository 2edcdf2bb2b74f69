//! Byte-level pins on the store and the merge pipeline, taken before the
//! per-site families were unified: the pinned CI baselines still load and
//! re-save to a fixed point, and the three ways a merged profile comes to
//! be — post-mortem merge, incremental delta absorption, fleet merge of
//! halves — write the same bytes for a profile carrying every family.

use std::collections::HashMap;

use txsampler::cct::NodeKey;
use txsampler::metrics::TimeComponent;
use txsampler::{merge_profiles, store, Periods, Profile, ThreadProfile};
use txsim_pmu::{FuncId, Ip};

fn save_named(profile: &Profile, names: &store::FuncNames) -> String {
    store::save_with_names(profile, &|id| names.get(&id.0).cloned())
}

#[test]
fn pinned_baselines_load_and_resave_to_a_fixed_point() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("results/ exists") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("baseline_") && name.ends_with(".txsp")) {
            continue;
        }
        let original = std::fs::read_to_string(&path).expect("readable baseline");
        let (profile, names) =
            store::load_with_funcs(&original).unwrap_or_else(|e| panic!("{name}: {e}"));
        let resaved = save_named(&profile, &names);
        let (again, again_names) = store::load_with_funcs(&resaved).expect("re-save loads");
        assert_eq!(save_named(&again, &again_names), resaved, "{name}");

        // Nothing was lost on the way: the re-save is the original's lines
        // (older writers emitted `site` records unsorted, and the header
        // now declares the current version).
        let body = |text: &str| {
            let mut lines: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
            lines.sort_unstable();
            lines
        };
        assert_eq!(body(&resaved), body(&original), "{name}");
        let header = |text: &str| text.lines().next().unwrap().to_string();
        let declared = original.split('\t').nth(1).expect("version field");
        assert_eq!(
            header(&resaved),
            header(&original).replacen(declared, &format!("v{}", store::FORMAT_VERSION), 1),
            "{name}"
        );
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected the four pinned baselines, saw {checked}"
    );
}

/// Four thread profiles sharing some CCT paths and sites, each carrying
/// PMU site counts and all three runtime-fed families.
fn thread_profiles() -> Vec<ThreadProfile> {
    (0..4u32)
        .map(|tid| {
            let mut tp = ThreadProfile {
                tid: tid as usize,
                periods: Periods {
                    cycles: 1000,
                    commit: 10,
                    abort: 10,
                    mem: 100,
                },
                samples: 10 + u64::from(tid),
                truncated_paths: u64::from(tid % 2),
                interrupt_abort_samples: 1,
                ..ThreadProfile::default()
            };
            let shared = Ip::new(FuncId(7), 70);
            let own = Ip::new(FuncId(10 + tid % 2), 5);
            for site in [shared, own] {
                let leaf = tp.cct.path([
                    NodeKey::Frame {
                        func: site.func,
                        callsite: Ip::new(FuncId(1), 2),
                        speculative: false,
                    },
                    NodeKey::Stmt {
                        ip: site,
                        speculative: tid % 2 == 0,
                    },
                ]);
                tp.cct
                    .metrics_mut(leaf)
                    .add_cycles_sample(TimeComponent::Tx);
                tp.cct.metrics_mut(leaf).abort_samples += u64::from(tid);
                *tp.site_commits(site) = (u64::from(tid) + 1, 2);
                let r = tp.records.entry(site);
                r.mix.stm += u64::from(tid);
                r.mix.switches += 1;
                r.hists
                    .record_completion(100 << tid, tid + 1, (tid > 1).then_some(50));
                r.cm.yields += 3;
            }
            tp.records.entry(own).cm.escalations = u64::from(tid);
            tp
        })
        .collect()
}

#[test]
fn merge_absorb_and_fleet_paths_write_identical_bytes() {
    let threads = thread_profiles();

    let merged = merge_profiles(threads.clone());
    let mut absorbed = Profile::default();
    for tp in &threads {
        absorbed.absorb_thread_delta(tp);
    }
    let halves = [
        merge_profiles(threads[..2].to_vec()),
        merge_profiles(threads[2..].to_vec()),
    ];
    let mut fleet = Profile::default();
    for half in &halves {
        fleet.absorb_profile(half, 0);
    }

    let text = store::save(&merged);
    for family in ["\nbackend\t", "\nhist\t", "\ncm\t", "\nsite\t"] {
        assert!(text.contains(family), "profile must carry {family:?}");
    }
    assert_eq!(store::save(&absorbed), text, "delta absorption");
    assert_eq!(store::save(&fleet), text, "fleet merge of halves");

    // Moving into another id space (the fleet aggregator's step) commutes
    // with merging, whichever way the profile was built. Funcs 10 and 11
    // collapse into one, so remapped sites collide and must merge.
    let ids: HashMap<u32, u32> = [(1, 101), (7, 107), (10, 110), (11, 110)].into();
    let mut remap = |f: FuncId| FuncId(ids[&f.0]);
    let remapped = store::save(&merged.remap_funcs(&mut remap));
    assert_ne!(remapped, text);
    assert_eq!(store::save(&absorbed.remap_funcs(&mut remap)), remapped);
    let mut fleet = Profile::default();
    for half in &halves {
        fleet.absorb_profile(&half.remap_funcs(&mut remap), 0);
    }
    assert_eq!(store::save(&fleet), remapped, "remap, then fleet merge");
}
