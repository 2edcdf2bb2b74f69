//! End-to-end check of the self-observability layer's core contract:
//! with instrumentation disabled (the default), running a full profiled
//! workload increments *no* counter and records *no* span; flipping the
//! process-wide switches makes the same workload light up counters across
//! subsystems and produce trace spans.
//!
//! Kept as a single test function in its own integration-test binary: the
//! enable/disable switches and the counter registry are process-wide, so
//! this must not share a process with concurrently running tests that
//! enable instrumentation.

use obs::Counter;

#[test]
fn instrumentation_is_exactly_free_when_disabled() {
    let cfg = htmbench::harness::RunConfig::quick();

    // Phase 1: defaults (everything off). A complete profiled run must
    // leave the registry untouched and the trace sink empty.
    assert!(!obs::enabled(), "counters must default to off");
    assert!(!obs::tracing(), "tracing must default to off");
    obs::registry().reset();
    let out = htmbench::micro::true_sharing(&cfg);
    assert!(
        out.profile.expect("quick config profiles").samples > 0,
        "the workload itself must have done real work"
    );
    // The adaptive backend's per-site machinery (SiteTable EWMAs, backend
    // switches) must obey the same contract: a full adaptive run with
    // instrumentation off leaves the registry untouched.
    let adaptive = htmbench::micro::mixed_phase(
        &cfg.clone()
            .with_fallback(rtm_runtime::FallbackKind::Adaptive),
    );
    assert!(
        adaptive.truth.totals().backend_switches > 0,
        "the adaptive run must actually have exercised switching"
    );
    let snap = obs::registry().snapshot();
    assert!(
        snap.is_zero(),
        "disabled instrumentation incremented counters: {:?}",
        snap.nonzero()
    );
    assert!(
        obs::take_traces().is_empty(),
        "disabled tracing recorded spans"
    );

    // Phase 2: switches on. The same workload now populates counters in
    // every major subsystem and yields spans.
    obs::set_enabled(true);
    obs::set_tracing(true);
    let _ = htmbench::micro::true_sharing(&cfg);
    let traces = obs::take_traces();
    let snap = obs::registry().snapshot();
    obs::set_enabled(false);
    obs::set_tracing(false);

    for counter in [
        Counter::SamplesTaken,
        Counter::TxBegins,
        Counter::TxCommits,
        Counter::DirectoryConflictChecks,
        Counter::RtmHtmAttempts,
        Counter::RtmHistStores,
        Counter::WorkersSpawned,
    ] {
        assert!(
            snap.get(counter) > 0,
            "expected {} > 0 with instrumentation on\n{}",
            counter.name(),
            snap.render_table()
        );
    }
    assert!(!traces.is_empty(), "tracing on must yield thread traces");
    assert!(
        traces.iter().any(|t| !t.events.is_empty()),
        "at least one thread must retain span events"
    );

    // A *static* backend pays nothing for the adaptive machinery: its
    // threads get the zero-capacity SiteTable, so even with counters on,
    // no backend switch is ever counted.
    assert_eq!(
        snap.get(Counter::RtmBackendSwitches),
        0,
        "static-backend run moved the adaptive switch counter\n{}",
        snap.render_table()
    );
    obs::set_enabled(true);
    let _ = htmbench::micro::mixed_phase(
        &cfg.clone()
            .with_fallback(rtm_runtime::FallbackKind::Adaptive),
    );
    let adaptive_snap = obs::registry().snapshot();
    obs::set_enabled(false);
    assert!(
        adaptive_snap.get(Counter::RtmBackendSwitches) > 0,
        "adaptive run with counters on must count its switches\n{}",
        adaptive_snap.render_table()
    );

    // With no snapshot hub attached (RunConfig::quick leaves `hub` at
    // None), the collector fast path must not touch the live layer at all
    // even with instrumentation on: no delta is ever flushed, no merge
    // happens, and none of the live counters move. This is the
    // zero-cost-when-detached guarantee of the epoch-based hub.
    for counter in [
        Counter::SnapshotsMerged,
        Counter::SnapshotMergeCycles,
        Counter::CollectorDeltasPublished,
        Counter::HttpHealthzRequests,
        Counter::HttpMetricsRequests,
        Counter::HttpProfileRequests,
        Counter::HttpFlamegraphRequests,
        Counter::HttpOtherRequests,
    ] {
        assert_eq!(
            snap.get(counter),
            0,
            "live-layer counter {} moved during a hub-less run\n{}",
            counter.name(),
            snap.render_table()
        );
    }

    // Histograms are zero-cost when detached: a native (unprofiled) run
    // hands every thread the zero-capacity HistTable, so even with
    // counters on, not one histogram store happens.
    obs::registry().reset();
    obs::set_enabled(true);
    let native = htmbench::micro::true_sharing(&cfg.clone().native());
    let native_snap = obs::registry().snapshot();
    obs::set_enabled(false);
    assert!(native.profile.is_none(), "native runs must not profile");
    assert_eq!(
        native_snap.get(Counter::RtmHistStores),
        0,
        "detached histogram table performed stores\n{}",
        native_snap.render_table()
    );

    // Histograms are collected by the profile even when PMU sampling is
    // off — they hang off the runtime's completion hook, not the sampler.
    let mut hists_on = cfg.clone().native();
    hists_on.profile = true;
    let profiled = htmbench::micro::true_sharing(&hists_on);
    assert!(
        profiled
            .profile
            .as_ref()
            .is_some_and(|p| !p.hist_sites().is_empty()),
        "sampling-off profiled run must still collect histograms"
    );
    assert_eq!(native.checksum, profiled.checksum);

    // And when attached, recording only *reads* the virtual cycle counter:
    // two identical single-thread runs against fresh domains — differing
    // only in whether the histogram table is live — must land on the exact
    // same simulated cycle count.
    let run = |hists: bool| {
        let domain = txsim_htm::HtmDomain::with_defaults();
        let lib = rtm_runtime::TmLib::new(&domain);
        let counter = domain.heap.alloc_words(1);
        let mut cpu = domain.spawn_cpu(txsim_htm::SamplingConfig::disabled());
        let mut tm = lib.thread();
        if hists {
            tm.enable_hists();
        }
        for _ in 0..200 {
            tm.critical_section(&mut cpu, 42, |cpu| {
                cpu.rmw(43, counter, |v| v + 1)?;
                Ok(())
            });
        }
        (cpu.cycles(), tm.hists.take_delta().len())
    };
    let (base_cycles, base_sites) = run(false);
    let (hist_cycles, hist_sites) = run(true);
    assert_eq!(base_sites, 0, "detached table must drain empty");
    assert!(hist_sites > 0, "live table must have recorded the site");
    assert_eq!(
        base_cycles, hist_cycles,
        "histogram recording moved simulated time"
    );
}
