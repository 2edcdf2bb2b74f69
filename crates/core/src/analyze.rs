//! The offline data analyzer: merges per-thread profiles (with the
//! reduction-tree parallel merge HPCToolkit uses, §6) and derives
//! program-level characterizations (Figure 8).

use crate::profile::{Profile, ThreadProfile, ThreadSummary};

/// Merge per-thread profiles into one program profile.
///
/// Profiles are merged pairwise in a reduction tree: with `n` threads the
/// critical path is `log2(n)` merges instead of `n`, which is how the
/// paper's analyzer keeps coalescing time under ten seconds for wide runs.
pub fn merge_profiles(mut profiles: Vec<ThreadProfile>) -> Profile {
    if profiles.is_empty() {
        return Profile::default();
    }
    profiles.sort_by_key(|p| p.tid);

    let threads: Vec<ThreadSummary> = profiles
        .iter()
        .map(|p| ThreadSummary {
            tid: p.tid,
            totals: p.cct.totals(),
            sites: p.sites.clone(),
        })
        .collect();
    let periods = profiles[0].periods;
    let samples = profiles.iter().map(|p| p.samples).sum();
    let truncated_paths = profiles.iter().map(|p| p.truncated_paths).sum();
    let interrupt_abort_samples = profiles.iter().map(|p| p.interrupt_abort_samples).sum();
    let mut records = rtm_runtime::SiteMap::default();
    for p in &profiles {
        records.merge(&p.records);
    }

    let cct = reduce(profiles);

    Profile {
        cct,
        threads,
        periods,
        samples,
        truncated_paths,
        interrupt_abort_samples,
        records,
        meta: Default::default(),
    }
}

/// Parallel pairwise reduction of thread CCTs.
fn reduce(profiles: Vec<ThreadProfile>) -> crate::cct::Cct {
    let mut layer: Vec<crate::cct::Cct> = profiles.into_iter().map(|p| p.cct).collect();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut iter = layer.into_iter();
        let mut pairs = Vec::new();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => pairs.push((a, b)),
                None => next.push(a),
            }
        }
        if pairs.len() >= 2 {
            // Merge pairs concurrently — the reduction tree.
            let merged: Vec<crate::cct::Cct> = std::thread::scope(|s| {
                let handles: Vec<_> = pairs
                    .into_iter()
                    .map(|(mut a, b)| {
                        s.spawn(move || {
                            a.merge(&b);
                            a
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("merge threads must not panic"))
                    .collect()
            });
            next.extend(merged);
        } else {
            for (mut a, b) in pairs {
                a.merge(&b);
                next.push(a);
            }
        }
        layer = next;
    }
    layer.pop().unwrap_or_default()
}

/// The program categories of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramType {
    /// `r_cs < 20%`: critical sections too small to matter — optimizing
    /// transactions won't pay.
    TypeI,
    /// `r_cs ≥ 20%`, `r_a/c < 1`: significant critical sections with low
    /// conflicts; look at `T_oh`/commit-rate opportunities.
    TypeII,
    /// `r_cs ≥ 20%`, `r_a/c ≥ 1`: conflict-dominated; worth alleviating
    /// conflicts inside transactions.
    TypeIII,
}

impl ProgramType {
    /// Short label as used in Figure 8.
    pub fn label(self) -> &'static str {
        match self {
            ProgramType::TypeI => "I",
            ProgramType::TypeII => "II",
            ProgramType::TypeIII => "III",
        }
    }
}

/// The r_cs threshold separating Type I from the rest (paper: 20%).
pub const R_CS_THRESHOLD: f64 = 0.20;

/// Categorize a program from its two characterization metrics (Figure 8).
pub fn characterize(r_cs: f64, r_ac: f64) -> ProgramType {
    if r_cs < R_CS_THRESHOLD {
        ProgramType::TypeI
    } else if r_ac < 1.0 {
        ProgramType::TypeII
    } else {
        ProgramType::TypeIII
    }
}

/// Categorize directly from a merged profile.
pub fn characterize_profile(profile: &Profile) -> ProgramType {
    characterize(profile.r_cs(), profile.abort_commit_ratio())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cct::{NodeKey, ROOT};
    use txsim_pmu::{FuncId, Ip};

    fn thread_profile(tid: usize, w: u64) -> ThreadProfile {
        let mut p = ThreadProfile {
            tid,
            samples: w,
            ..ThreadProfile::default()
        };
        let n = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(1), 1),
                speculative: false,
            },
        );
        p.cct.metrics_mut(n).w = w;
        p.sites.insert(Ip::new(FuncId(1), 1), (w, 0));
        p
    }

    #[test]
    fn merge_empty_is_default() {
        let p = merge_profiles(vec![]);
        assert!(p.cct.is_empty());
        assert_eq!(p.threads.len(), 0);
    }

    #[test]
    fn merge_sums_across_threads() {
        let profiles: Vec<_> = (0..7)
            .map(|tid| thread_profile(tid, (tid as u64) + 1))
            .collect();
        let merged = merge_profiles(profiles);
        assert_eq!(merged.totals().w, 28); // 1+2+…+7
        assert_eq!(merged.threads.len(), 7);
        assert_eq!(merged.samples, 28);
        // Thread summaries keep per-thread resolution.
        assert_eq!(merged.threads[3].totals.w, 4);
        assert_eq!(merged.thread_histogram(Ip::new(FuncId(1), 1))[3], (3, 4, 0));
    }

    #[test]
    fn merge_single_thread_is_identity() {
        let merged = merge_profiles(vec![thread_profile(0, 5)]);
        assert_eq!(merged.totals().w, 5);
        assert_eq!(merged.cct.len(), 2);
    }

    #[test]
    fn characterization_matches_figure8() {
        assert_eq!(characterize(0.1, 5.0), ProgramType::TypeI);
        assert_eq!(characterize(0.19, 0.0), ProgramType::TypeI);
        assert_eq!(characterize(0.5, 0.5), ProgramType::TypeII);
        assert_eq!(characterize(0.2, 0.99), ProgramType::TypeII);
        assert_eq!(characterize(0.5, 1.0), ProgramType::TypeIII);
        assert_eq!(characterize(0.9, 37.0), ProgramType::TypeIII);
    }
}
