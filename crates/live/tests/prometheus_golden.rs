//! Byte-identical pins for the Prometheus exposition: each fixed snapshot
//! must render exactly its checked-in golden.
//! Regenerate deliberately with `BLESS=1 cargo test -p live
//! --test prometheus_golden`.

use obs::Registry;
use txsampler::cct::{NodeKey, ROOT};
use txsampler::{Metrics, Profile, SiteHists, SnapshotView, TimeComponent};
use txsim_pmu::{FuncId, Ip};

fn fixture_view() -> SnapshotView {
    let mut p = Profile::default();
    let n = p.cct.child(
        ROOT,
        NodeKey::Stmt {
            ip: Ip::new(FuncId(1), 4),
            speculative: false,
        },
    );
    for (component, times) in [
        (TimeComponent::Outside, 6),
        (TimeComponent::Tx, 2),
        (TimeComponent::Fallback, 1),
        (TimeComponent::LockWaiting, 2),
        (TimeComponent::Overhead, 1),
    ] {
        for _ in 0..times {
            p.cct.metrics_mut(n).add_cycles_sample(component);
        }
    }
    let m = p.cct.metrics_mut(n);
    m.commit_samples = 3;
    m.abort_samples = 3;
    m.abort_weight = 70;
    m.aborts_conflict = 2;
    m.conflict_weight = 40;
    m.aborts_capacity = 1;
    m.capacity_weight = 30;
    m.true_sharing = 1;
    m.false_sharing = 2;
    p.samples = 15;
    p.truncated_paths = 1;
    p.interrupt_abort_samples = 2;
    SnapshotView {
        epoch: 7,
        profile: p,
    }
}

/// A run under a software-transaction fallback: validation aborts, a
/// nonzero STM share of fallback time, an adaptive backend mix with
/// switches, per-site contention-manager counts and one histogram site —
/// every family the first fixture leaves empty.
fn stm_fixture_view() -> SnapshotView {
    let mut p = Profile::default();
    let hot = Ip::new(FuncId(2), 11);
    let cold = Ip::new(FuncId(3), 5);
    let n = p.cct.child(
        ROOT,
        NodeKey::Stmt {
            ip: hot,
            speculative: true,
        },
    );
    for (component, times) in [
        (TimeComponent::Outside, 5),
        (TimeComponent::Tx, 3),
        (TimeComponent::Fallback, 1),
        (TimeComponent::FallbackStm, 2),
        (TimeComponent::LockWaiting, 1),
        (TimeComponent::Overhead, 2),
    ] {
        for _ in 0..times {
            p.cct.metrics_mut(n).add_cycles_sample(component);
        }
    }
    let m = p.cct.metrics_mut(n);
    m.commit_samples = 4;
    m.abort_samples = 7;
    m.abort_weight = 190;
    m.aborts_conflict = 2;
    m.conflict_weight = 60;
    m.aborts_sync = 1;
    m.sync_weight = 20;
    m.aborts_explicit = 1;
    m.aborts_validation = 3;
    m.validation_weight = 110;
    p.samples = 21;

    let r = p.records.entry(hot);
    r.mix.lock = 2;
    r.mix.stm = 6;
    r.mix.switches = 3;
    r.cm.yields = 4;
    r.cm.priority_aborts = 1;
    let mut h = SiteHists::default();
    for _ in 0..3 {
        h.record_completion(90, 1, None);
    }
    h.record_completion(3000, 6, Some(1500));
    r.hists = h;
    let r = p.records.entry(cold);
    r.mix.hle = 1;
    r.cm.stalls = 2;
    SnapshotView {
        epoch: 12,
        profile: p,
    }
}

#[test]
fn prometheus_exposition_is_pinned() {
    let view = fixture_view();
    let mut window = Metrics::default();
    window.add_cycles_sample(TimeComponent::Tx);
    window.add_cycles_sample(TimeComponent::Outside);
    let got = live::prometheus::render(&view, Some(&window), &Registry::new().snapshot());
    check_golden("prometheus.txt", &got);
}

#[test]
fn stm_run_exposition_is_pinned() {
    let view = stm_fixture_view();
    let mut window = Metrics::default();
    window.add_cycles_sample(TimeComponent::FallbackStm);
    window.add_cycles_sample(TimeComponent::LockWaiting);
    window.add_cycles_sample(TimeComponent::Outside);
    let got = live::prometheus::render(&view, Some(&window), &Registry::new().snapshot());
    check_golden("prometheus_stm.txt", &got);
}

/// Compare `got` with `tests/golden/<name>`, or rewrite it under `BLESS`.
fn check_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        got, want,
        "{name}: prometheus exposition drifted from its golden"
    );
}
