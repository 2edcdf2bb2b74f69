//! Per-thread imbalance detection (§5, contention metrics).
//!
//! "Aggregate metrics alone are not enough to understand the contention
//! across threads. For instance, a thread may always abort other threads,
//! causing thread starvation. Therefore, TxSampler records both per-thread
//! transaction aborts and commits, and plots them in a histogram across
//! threads. If there exists an imbalanced distribution of transaction
//! commits or aborts, TxSampler reports this problematic transaction for
//! investigation."

use txsim_pmu::Ip;

use crate::profile::Profile;

/// What was found imbalanced at one transaction site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImbalanceKind {
    /// Commits concentrate on few threads — others are starved.
    Commits,
    /// Aborts concentrate on few threads — victims of systematic conflicts.
    Aborts,
}

/// An imbalance finding for one transaction site.
#[derive(Debug, Clone)]
pub struct Imbalance {
    /// The transaction site.
    pub site: Ip,
    /// Which distribution is skewed.
    pub kind: ImbalanceKind,
    /// Imbalance factor: max over threads divided by the mean (1.0 =
    /// perfectly balanced). The paper's fix is "redistribute the work
    /// across threads".
    pub factor: f64,
    /// The thread holding the maximum.
    pub worst_tid: usize,
    /// Per-thread counts, indexed by position in `Profile::threads`.
    pub per_thread: Vec<u64>,
}

/// One thread's counts at one site: `(site, index in Profile::threads,
/// (commits, aborts))`.
type Entry = (Ip, usize, (u64, u64));

impl ImbalanceKind {
    /// The count of this kind in a `(commits, aborts)` pair.
    fn count(self, (commits, aborts): (u64, u64)) -> u64 {
        match self {
            ImbalanceKind::Commits => commits,
            ImbalanceKind::Aborts => aborts,
        }
    }
}

/// Imbalance factor of one site's distribution over `threads` threads:
/// `max / mean`, and the index of the thread holding the maximum (the last
/// such thread on a tie, as `Iterator::max_by_key` picks). `entries` are
/// the threads that saw the site, in thread order; every other thread
/// counts 0. `None` when the total is too small to be meaningful.
fn factor(
    entries: &[Entry],
    kind: ImbalanceKind,
    threads: usize,
    min_total: u64,
) -> Option<(f64, usize)> {
    let total: u64 = entries.iter().map(|e| kind.count(e.2)).sum();
    if total < min_total {
        return None;
    }
    let mean = total as f64 / threads as f64;
    let (max, worst) = entries
        .iter()
        .map(|e| (kind.count(e.2), e.1))
        .max()
        .filter(|&(max, _)| max > 0)
        // All zero: every thread ties at 0 and the last one wins.
        .unwrap_or((0, threads - 1));
    Some((max as f64 / mean, worst))
}

/// Scan every transaction site for imbalanced per-thread commit or abort
/// distributions. `threshold` is the max/mean factor above which a site is
/// reported (2.0 = the busiest thread does twice its fair share);
/// `min_samples` filters out sites with too little data.
///
/// One pass gathers every thread's site entries; sorting them by site
/// groups each site's threads together, so the cost is linear in the
/// number of entries (plus the sort), not sites × threads.
pub fn detect_imbalance(profile: &Profile, threshold: f64, min_samples: u64) -> Vec<Imbalance> {
    let threads = profile.threads.len();
    if threads < 2 {
        return Vec::new();
    }
    let mut entries: Vec<Entry> = profile
        .threads
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            t.sites
                .iter()
                .map(move |(&site, &counts)| (site, i, counts))
        })
        .collect();
    entries.sort_unstable_by_key(|&(ip, i, _)| (ip.func.0, ip.line, i));

    let mut findings = Vec::new();
    for group in entries.chunk_by(|a, b| a.0 == b.0) {
        let site = group[0].0;
        for kind in [ImbalanceKind::Commits, ImbalanceKind::Aborts] {
            let Some((f, worst)) = factor(group, kind, threads, min_samples) else {
                continue;
            };
            if f >= threshold {
                let mut per_thread = vec![0; threads];
                for &(_, i, counts) in group {
                    per_thread[i] = kind.count(counts);
                }
                findings.push(Imbalance {
                    site,
                    kind,
                    factor: f,
                    worst_tid: profile.threads[worst].tid,
                    per_thread,
                });
            }
        }
    }
    findings.sort_by(|a, b| b.factor.total_cmp(&a.factor));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Profile, ThreadSummary};
    use txsim_pmu::FuncId;

    fn site(n: u32) -> Ip {
        Ip::new(FuncId(n), 10)
    }

    fn profile_with(counts: &[(usize, u32, u64, u64)]) -> Profile {
        // (tid, site_func, commits, aborts)
        let mut threads: std::collections::BTreeMap<usize, ThreadSummary> = Default::default();
        for &(tid, f, c, a) in counts {
            let t = threads.entry(tid).or_insert_with(|| ThreadSummary {
                tid,
                totals: Default::default(),
                sites: Default::default(),
            });
            t.sites.insert(site(f), (c, a));
        }
        Profile {
            threads: threads.into_values().collect(),
            ..Profile::default()
        }
    }

    #[test]
    fn balanced_distribution_is_quiet() {
        let p = profile_with(&[(0, 1, 100, 10), (1, 1, 110, 12), (2, 1, 95, 9)]);
        assert!(detect_imbalance(&p, 2.0, 10).is_empty());
    }

    #[test]
    fn starved_commits_are_reported() {
        // Thread 2 commits almost nothing while 0 hogs the transaction.
        let p = profile_with(&[(0, 1, 300, 5), (1, 1, 20, 5), (2, 1, 10, 5)]);
        let findings = detect_imbalance(&p, 2.0, 10);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, ImbalanceKind::Commits);
        assert_eq!(findings[0].worst_tid, 0);
        assert!(findings[0].factor > 2.5, "factor {}", findings[0].factor);
    }

    #[test]
    fn victimized_thread_is_reported() {
        // Thread 1 takes nearly every abort: systematic starvation.
        let p = profile_with(&[(0, 1, 100, 2), (1, 1, 100, 200), (2, 1, 100, 1)]);
        let findings = detect_imbalance(&p, 2.0, 10);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, ImbalanceKind::Aborts);
        assert_eq!(findings[0].worst_tid, 1);
    }

    #[test]
    fn small_samples_are_ignored() {
        let p = profile_with(&[(0, 1, 3, 0), (1, 1, 0, 0)]);
        assert!(detect_imbalance(&p, 2.0, 10).is_empty());
    }

    #[test]
    fn findings_sorted_by_severity() {
        let p = profile_with(&[
            (0, 1, 300, 0),
            (1, 1, 10, 0),
            (0, 2, 120, 0),
            (1, 2, 80, 0),
            (0, 3, 1000, 0),
            (1, 3, 1, 0),
        ]);
        let findings = detect_imbalance(&p, 1.3, 10);
        assert!(findings.len() >= 2);
        assert!(findings[0].factor >= findings[1].factor);
        assert_eq!(findings[0].site, site(3), "worst site first");
    }

    #[test]
    fn single_thread_profiles_never_report() {
        let p = profile_with(&[(0, 1, 1000, 1000)]);
        assert!(detect_imbalance(&p, 1.0, 1).is_empty());
    }

    #[test]
    fn tied_maximum_reports_the_last_thread() {
        // Threads 1 and 3 tie for the most commits; the later one wins.
        let p = profile_with(&[(0, 1, 1, 0), (1, 1, 90, 0), (2, 1, 1, 0), (3, 1, 90, 0)]);
        let findings = detect_imbalance(&p, 1.5, 10);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].worst_tid, 3);
        assert_eq!(findings[0].per_thread, vec![1, 90, 1, 90]);
    }

    #[test]
    fn site_absent_from_a_thread_counts_as_zero() {
        // Thread 1 never ran site 2; thread 2 never ran site 1.
        let p = profile_with(&[(0, 1, 40, 0), (0, 2, 40, 0), (1, 2, 40, 0), (2, 1, 40, 0)]);
        let findings = detect_imbalance(&p, 1.4, 10);
        assert_eq!(findings.len(), 2, "{findings:?}");
        let by_site = |f: u32| findings.iter().find(|i| i.site == site(f)).unwrap();
        assert_eq!(by_site(1).per_thread, vec![40, 0, 40]);
        assert_eq!(by_site(2).per_thread, vec![40, 40, 0]);
        // max 40 over a mean of 80 / 3.
        assert_eq!(by_site(1).factor, 40.0 / (80.0 / 3.0));
        assert_eq!(by_site(1).worst_tid, 2);
        assert_eq!(by_site(2).worst_tid, 1);
    }

    #[test]
    fn fewer_than_two_threads_never_report() {
        assert!(detect_imbalance(&Profile::default(), 0.0, 0).is_empty());
        let p = profile_with(&[(5, 1, 0, 900), (5, 2, 900, 0)]);
        assert!(detect_imbalance(&p, 0.0, 0).is_empty());
    }

    #[test]
    fn min_samples_and_threshold_boundaries_are_inclusive() {
        // Commits total exactly 20 with factor exactly 1.5 (max 15 over a
        // mean of 10); aborts total 19.
        let p = profile_with(&[(0, 1, 15, 15), (1, 1, 5, 4)]);
        let commits = |t: f64, min: u64| {
            detect_imbalance(&p, t, min)
                .into_iter()
                .filter(|i| i.kind == ImbalanceKind::Commits)
                .count()
        };
        assert_eq!(
            commits(1.5, 20),
            1,
            "total == min_samples, factor == threshold"
        );
        assert_eq!(commits(1.5, 21), 0, "total below min_samples");
        assert_eq!(commits(1.5 + 1e-9, 20), 0, "factor below threshold");
        let aborts = detect_imbalance(&p, 1.0, 20);
        assert!(aborts.iter().all(|i| i.kind == ImbalanceKind::Commits));
        assert_eq!(detect_imbalance(&p, 1.0, 19).len(), 2);
    }
}
