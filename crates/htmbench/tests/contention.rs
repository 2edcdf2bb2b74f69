//! Headline acceptance for the contention-management subsystem: under the
//! STM fallback, the karma policy must rescue `micro/starved_writer`'s big
//! writer (≥ 2 log-buckets off its p99 retry depth, Starvation diagnosis
//! resolved in the profile diff), and the escalate policy must bound its
//! worst-case retries at K.

use htmbench::harness::{RunConfig, RunOutcome};
use htmbench::micro;
use rtm_runtime::{CmKind, FallbackKind};
use txsim_pmu::Ip;

fn starved(cm: CmKind) -> RunOutcome {
    // 8 threads (7 hammers) keeps enough simultaneous STM pressure that
    // the backoff baseline's writer actually pays software retries — the
    // starvation this subsystem exists to fix.
    micro::starved_writer(
        &RunConfig::quick()
            .with_threads(8)
            .with_fallback(FallbackKind::Stm)
            .with_cm(cm),
    )
}

fn writer_site(out: &RunOutcome) -> Ip {
    out.truth
        .iter()
        .find(|(ip, _)| ip.line == 81)
        .map(|(ip, _)| *ip)
        .expect("writer site present in truth")
}

fn writer_p99_bucket(out: &RunOutcome) -> usize {
    let site = writer_site(out);
    out.profile
        .as_ref()
        .expect("profiling enabled")
        .records
        .get(site)
        .expect("writer site has hists")
        .hists
        .retry_depth
        .percentile_bucket(0.99)
        .expect("writer recorded retries")
}

#[test]
fn karma_rescues_the_starved_writer_by_two_log_buckets() {
    let backoff = starved(CmKind::Backoff);
    let karma = starved(CmKind::Karma);
    // Both runs complete the same work, exactly.
    for out in [&backoff, &karma] {
        let t = out.truth.totals();
        let (_, big) = out
            .truth
            .iter()
            .find(|(ip, _)| ip.line == 81)
            .map(|(ip, s)| (*ip, *s))
            .unwrap();
        let big_n = big.htm_commits + big.fallbacks;
        let small_n = t.htm_commits + t.fallbacks - big_n;
        // The big writer touches one slot per thread (8-thread shape).
        assert_eq!(out.checksum, small_n + big_n * 8);
    }
    let before = writer_p99_bucket(&backoff);
    let after = writer_p99_bucket(&karma);
    assert!(
        before >= after + 2,
        "karma must cut the writer's p99 retry depth by ≥ 2 log-buckets: \
         backoff bucket {before}, karma bucket {after}"
    );
    // The karma run actually intervened, and attributed it to real sites.
    let cm = karma.profile.as_ref().unwrap().cm_totals();
    assert!(cm.yields > 0, "hammers must yield to the writer: {cm:?}");
    assert_eq!(
        karma.profile.as_ref().unwrap().meta.cm.as_deref(),
        Some("karma")
    );
    assert_eq!(
        backoff.profile.as_ref().unwrap().meta.cm.as_deref(),
        Some("backoff")
    );
}

#[test]
fn diff_reports_the_starvation_suggestion_as_resolved_under_karma() {
    let backoff = starved(CmKind::Backoff);
    let karma = starved(CmKind::Karma);
    let before = backoff.profile.expect("profiling enabled");
    let after = karma.profile.expect("profiling enabled");
    let thresholds = Default::default();
    let d_before = txsampler::diagnose(&before, &thresholds);
    let d_after = txsampler::diagnose(&after, &thresholds);
    assert!(
        d_before
            .all_suggestions()
            .contains(&txsampler::Suggestion::Starvation),
        "baseline must still fire Starvation: {:?}",
        d_before.all_suggestions()
    );
    assert!(
        !d_after
            .all_suggestions()
            .contains(&txsampler::Suggestion::Starvation),
        "karma must clear Starvation: {:?}",
        d_after.all_suggestions()
    );
    // And the rendered diff says so, in the resolved section.
    let diff = txsampler::diff_profiles(&before, &after, &thresholds);
    assert!(
        diff.suggestions
            .resolved
            .contains(&txsampler::Suggestion::Starvation),
        "diff must classify Starvation as resolved: {:?}",
        diff.suggestions
    );
    let text = txsampler::render_diff(&diff, &txsampler::NameSource::Registry(&karma.funcs));
    assert!(
        text.contains("resolved: this site is starved"),
        "the rendered diff must list the starvation fix:\n{text}"
    );
}

#[test]
fn escalate_bounds_worst_case_retries_at_k() {
    let out = starved(CmKind::Escalate);
    let t = out.truth.totals();
    // Work still completes exactly.
    let (_, big) = out
        .truth
        .iter()
        .find(|(ip, _)| ip.line == 81)
        .map(|(ip, s)| (*ip, *s))
        .unwrap();
    let big_n = big.htm_commits + big.fallbacks;
    let small_n = t.htm_commits + t.fallbacks - big_n;
    // The big writer touches one slot per thread (8-thread shape).
    assert_eq!(out.checksum, small_n + big_n * 8);
    // Every software transaction gives up after at most K failed commit
    // attempts, so validation + lock-busy aborts can never exceed
    // K × the number of fallback completions.
    // (Lock-busy STM aborts are booked as validation aborts in the truth.)
    let k = rtm_runtime::DEFAULT_ESCALATE_AFTER as u64;
    assert!(
        t.aborts_validation <= k * t.fallbacks,
        "escalate must bound STM retries at K={k}: {t:?}"
    );
    let cm = out.profile.as_ref().unwrap().cm_totals();
    assert!(
        cm.escalations > 0,
        "the starved writer must escalate at least once: {cm:?}"
    );
    // The writer's retry-depth tail is capped accordingly: K STM attempts
    // on top of the HTM retry budget.
    let p99 = out
        .profile
        .as_ref()
        .unwrap()
        .records
        .get(writer_site(&out))
        .unwrap()
        .hists
        .retry_depth
        .percentile(0.99)
        .unwrap();
    // The harness's HTM retry budget is 5; escalation caps STM attempts
    // at K on top of that.
    let budget = 5 + k;
    // percentile() reports the bucket's inclusive upper edge, so allow
    // rounding up to the enclosing power of two.
    assert!(
        p99 <= (budget + 1).next_power_of_two(),
        "escalation must cap the retry tail: p99 {p99}, budget {budget}"
    );
}

#[test]
fn symmetric_heavyweights_all_make_progress_under_karma() {
    // The classic livelock shape: every transaction is big, so a greedy
    // priority scheme has no cheap victim. Bounded politeness must keep
    // all writers moving.
    let out = micro::symmetric_writers(
        &RunConfig::quick()
            .with_fallback(FallbackKind::Stm)
            .with_cm(CmKind::Karma),
    );
    let t = out.truth.totals();
    let completions = t.htm_commits + t.fallbacks;
    assert_eq!(
        out.checksum,
        completions * 4,
        "every writer's every iteration lands"
    );
    // The run finishing at all is the livelock proof — a parked worker
    // would hang the join. Exactness pins it: all 4 workers completed
    // their full loops.
    let cfg = RunConfig::quick();
    let expected = (400 * cfg.scale / 100).max(1) * cfg.threads as u64;
    assert_eq!(completions, expected, "no writer may be starved of turns");
}
