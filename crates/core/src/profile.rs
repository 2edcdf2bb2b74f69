//! Profile containers: per-thread profiles and the merged program profile,
//! with the derived whole-program metrics of §4/§5.

use std::collections::HashMap;

use rtm_runtime::{CmStats, Hist32, SiteHists, SiteMap};
use txsim_pmu::{AbortClass, EventKind, Ip, SamplingConfig};

use crate::cct::Cct;
use crate::metrics::{BackendMix, Metrics};

/// Sampling periods in force during collection, kept so sample counts can
/// be scaled back to estimated event counts (1 sample ≈ `period` events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Periods {
    /// Cycles period: 1 cycles sample ≈ this many cycles.
    pub cycles: u64,
    /// RTM commit event period.
    pub commit: u64,
    /// RTM abort event period.
    pub abort: u64,
    /// Memory load/store event period.
    pub mem: u64,
}

impl Default for Periods {
    fn default() -> Self {
        Periods {
            cycles: 1,
            commit: 1,
            abort: 1,
            mem: 1,
        }
    }
}

impl Periods {
    /// Extract the periods from a sampling configuration.
    pub fn from_config(cfg: &SamplingConfig) -> Self {
        Periods {
            cycles: cfg.periods[EventKind::Cycles.index()].unwrap_or(1),
            commit: cfg.periods[EventKind::TxCommit.index()].unwrap_or(1),
            abort: cfg.periods[EventKind::TxAbort.index()].unwrap_or(1),
            mem: cfg.periods[EventKind::MemLoad.index()].unwrap_or(1),
        }
    }
}

/// One worker thread's raw profile.
#[derive(Debug, Clone, Default)]
pub struct ThreadProfile {
    /// Simulated thread id.
    pub tid: usize,
    /// This thread's calling-context tree.
    pub cct: Cct,
    /// Sampling periods in force.
    pub periods: Periods,
    /// Total samples delivered.
    pub samples: u64,
    /// Samples whose in-transaction path was truncated by the LBR window.
    pub truncated_paths: u64,
    /// Abort-event samples discounted as profiler-induced.
    pub interrupt_abort_samples: u64,
    /// Per transaction-site (commit samples, abort samples) — feeds the
    /// per-thread histogram view. PMU-fed and kept per thread, never merged
    /// across threads, which is why it is not part of `records`.
    pub sites: HashMap<Ip, (u64, u64)>,
    /// Runtime-reported per-site data (backend mix, latency/retry
    /// histograms, contention-manager interventions), fed by the harness
    /// from [`rtm_runtime::TmThread::take_site_delta`], not from PMU
    /// samples.
    pub records: SiteMap,
}

impl ThreadProfile {
    /// Mutable access to a site's (commits, aborts) counters.
    pub fn site_commits(&mut self, site: Ip) -> &mut (u64, u64) {
        self.sites.entry(site).or_insert((0, 0))
    }

    /// Drain the accumulated data, leaving an empty profile that keeps its
    /// identity (`tid`, `periods`). Used by the live snapshot hub: the
    /// collector periodically takes the delta accumulated since the last
    /// flush and publishes it, then keeps collecting into the emptied
    /// profile without ever stopping.
    pub fn take_delta(&mut self) -> ThreadProfile {
        ThreadProfile {
            tid: self.tid,
            periods: self.periods,
            cct: std::mem::take(&mut self.cct),
            samples: std::mem::take(&mut self.samples),
            truncated_paths: std::mem::take(&mut self.truncated_paths),
            interrupt_abort_samples: std::mem::take(&mut self.interrupt_abort_samples),
            sites: std::mem::take(&mut self.sites),
            records: std::mem::take(&mut self.records),
        }
    }

    /// Merge another profile of the *same thread* into this one, adopting
    /// its identity. Used by the collector's residual handoff: the drained
    /// owned profile is absorbed into the shared slot the harness reads
    /// through [`crate::CollectorHandle::take`].
    pub fn absorb(&mut self, other: &ThreadProfile) {
        self.tid = other.tid;
        self.periods = other.periods;
        self.cct.merge(&other.cct);
        self.samples += other.samples;
        self.truncated_paths += other.truncated_paths;
        self.interrupt_abort_samples += other.interrupt_abort_samples;
        for (site, (commits, aborts)) in &other.sites {
            let e = self.site_commits(*site);
            e.0 += commits;
            e.1 += aborts;
        }
        self.records.merge(&other.records);
    }

    /// Whether the profile holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
            && self.cct.is_empty()
            && self.interrupt_abort_samples == 0
            && self.records.is_empty()
    }
}

/// Per-thread summary retained in the merged profile (the GUI's per-thread
/// histogram data).
#[derive(Debug, Clone)]
pub struct ThreadSummary {
    /// Simulated thread id.
    pub tid: usize,
    /// Thread-level metric totals.
    pub totals: Metrics,
    /// Per-site (commit, abort) sample counts.
    pub sites: HashMap<Ip, (u64, u64)>,
}

/// Provenance of a profile: which run produced it. Saved profiles carry it
/// in the store header so a later `diff` can warn when two files come from
/// unlike runs (different workload, different thread count). Every field is
/// optional — profiles collected before the header existed, or built
/// synthetically in tests, simply have none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Workload name as registered in the benchmark registry.
    pub workload: Option<String>,
    /// Worker thread count of the run.
    pub threads: Option<u32>,
    /// Cycles sampling period in force (1 sample ≈ this many cycles).
    pub sample_period: Option<u64>,
    /// Fallback backend the run used (`lock`, `stm`, `hle`, or `adaptive`).
    /// Kept as a string so old analyzers can still load files written by
    /// newer tools with backends they do not know.
    pub fallback: Option<String>,
    /// Final fallback-execution mix of the run (adaptive backend only):
    /// how many slow-path executions each flavor served, plus how many
    /// times the policy switched a site's backend.
    pub mix: Option<BackendMix>,
    /// Contention manager the run's software transactions used (`backoff`,
    /// `karma`, or `escalate`). Only stamped for STM-capable fallbacks;
    /// kept as a string so old analyzers can load files written by newer
    /// tools with policies they do not know.
    pub cm: Option<String>,
}

impl RunMeta {
    /// Whether no provenance is recorded at all.
    pub fn is_empty(&self) -> bool {
        self.workload.is_none()
            && self.threads.is_none()
            && self.sample_period.is_none()
            && self.fallback.is_none()
            && self.mix.is_none()
            && self.cm.is_none()
    }
}

/// The merged, whole-program profile produced by the offline analyzer.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// The merged calling-context tree.
    pub cct: Cct,
    /// Per-thread summaries, sorted by thread id.
    pub threads: Vec<ThreadSummary>,
    /// Sampling periods (must agree across threads).
    pub periods: Periods,
    /// Total samples across threads.
    pub samples: u64,
    /// Truncated in-transaction paths across threads.
    pub truncated_paths: u64,
    /// Discounted profiler-induced abort samples.
    pub interrupt_abort_samples: u64,
    /// Runtime-reported per-site data merged across threads. Each family
    /// of a record is empty when its source was off (see
    /// [`rtm_runtime::SiteRecord`]).
    pub records: SiteMap,
    /// Provenance of the run that produced this profile, if known.
    pub meta: RunMeta,
}

/// The time decomposition of Figure 7 (top): shares of total work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Share of cycles outside critical sections (S/W).
    pub outside: f64,
    /// Share in transactions (T_tx/W).
    pub tx: f64,
    /// Share in fallback paths (T_fb/W).
    pub fallback: f64,
    /// Share waiting for the lock (T_wait/W).
    pub lock_waiting: f64,
    /// Share in transaction overhead (T_oh/W).
    pub overhead: f64,
}

impl TimeBreakdown {
    /// Decompose a metric total into shares of W. With no work sampled all
    /// shares are zero.
    pub fn from_metrics(m: &Metrics) -> TimeBreakdown {
        let w = m.w.max(1) as f64;
        TimeBreakdown {
            outside: m.w.saturating_sub(m.t) as f64 / w,
            tx: m.t_tx as f64 / w,
            fallback: m.t_fb as f64 / w,
            lock_waiting: m.t_wait as f64 / w,
            overhead: m.t_oh as f64 / w,
        }
    }

    /// Sum of all five shares (1.0 when any work was sampled).
    pub fn sum(&self) -> f64 {
        TIME_COMPONENTS.iter().map(|c| (c.share)(self)).sum()
    }
}

/// One time component of the Figure-7 time band.
#[derive(Debug, Clone, Copy)]
pub struct TimeComponentRow {
    /// Bar symbol.
    pub symbol: char,
    /// Label in human text (reports and diffs).
    pub label: &'static str,
    /// Key in machine output (Prometheus `component` label, JSON field).
    pub key: &'static str,
    /// The component's share of work in a breakdown.
    pub share: Share,
}

/// Reads one component's share out of a [`TimeBreakdown`].
type Share = fn(&TimeBreakdown) -> f64;

impl TimeComponentRow {
    const fn new(symbol: char, label: &'static str, key: &'static str, share: Share) -> Self {
        TimeComponentRow {
            symbol,
            label,
            key,
            share,
        }
    }
}

/// The Figure-7 catalog's time components (Equation 2), in render order.
/// The report, the diff, the Prometheus exposition, the fleet pane,
/// `/profile.json` and fig7 all loop over these rows and
/// [`ABORT_CLASSES`].
pub const TIME_COMPONENTS: [TimeComponentRow; 5] = [
    TimeComponentRow::new('.', "non-CS", "outside", |b| b.outside),
    TimeComponentRow::new('H', "HTM", "tx", |b| b.tx),
    TimeComponentRow::new('F', "fallback", "fallback", |b| b.fallback),
    TimeComponentRow::new('w', "lock-wait", "lock_waiting", |b| b.lock_waiting),
    TimeComponentRow::new('o', "overhead", "overhead", |b| b.overhead),
];

/// One application abort class of the Figure-7 abort bands.
#[derive(Debug, Clone, Copy)]
pub struct AbortClassRow {
    /// The class; it names itself ([`AbortClass::label`]) and maps to its
    /// [`Metrics`] fields through `Metrics::class_samples`.
    pub class: AbortClass,
    /// Bar symbol.
    pub symbol: char,
    /// Raised only by the STM fallback: human text shows the class only
    /// when it is nonzero, so lock-backend output does not grow a column.
    pub stm_only: bool,
}

impl AbortClassRow {
    const fn new(class: AbortClass, symbol: char, stm_only: bool) -> Self {
        AbortClassRow {
            class,
            symbol,
            stm_only,
        }
    }

    /// The class's label.
    pub fn label(&self) -> &'static str {
        self.class.label()
    }

    /// Sampled aborts of this class in `m`.
    pub fn count(&self, m: &Metrics) -> u64 {
        m.class_samples(self.class).0
    }

    /// Sampled abort weight of this class in `m`; `None` for a class that
    /// carries no weight of its own.
    pub fn weight(&self, m: &Metrics) -> Option<u64> {
        m.class_samples(self.class).1
    }

    /// One of the paper's Equation-4 classes: weighted, and raised by the
    /// hardware. Figure 7 draws exactly these.
    pub fn in_figure7(&self) -> bool {
        self.weight(&Metrics::default()).is_some() && !self.stm_only
    }
}

/// The Figure-7 catalog's application abort classes (Equation 4), in
/// render order; interrupt aborts are discounted, never booked.
pub const ABORT_CLASSES: [AbortClassRow; 5] = [
    AbortClassRow::new(AbortClass::Conflict, 'C', false),
    AbortClassRow::new(AbortClass::Capacity, 'P', false),
    AbortClassRow::new(AbortClass::Sync, 'S', false),
    AbortClassRow::new(AbortClass::Explicit, 'E', false),
    AbortClassRow::new(AbortClass::Validation, 'V', true),
];

impl Profile {
    /// Whole-program metric totals.
    pub fn totals(&self) -> Metrics {
        self.cct.totals()
    }

    /// Fold a per-thread delta into this cumulative profile without
    /// requiring the thread to finish: the CCT is merged path-wise, and the
    /// thread's summary row is created or extended in place. Incremental
    /// equivalent of [`crate::merge_profiles`] — absorbing every delta a
    /// run produces yields the same profile as a single post-mortem merge.
    pub fn absorb_thread_delta(&mut self, delta: &ThreadProfile) {
        if delta.is_empty() {
            return;
        }
        if self.samples == 0 && self.threads.is_empty() {
            self.periods = delta.periods;
        }
        self.samples += delta.samples;
        self.truncated_paths += delta.truncated_paths;
        self.interrupt_abort_samples += delta.interrupt_abort_samples;
        self.cct.merge(&delta.cct);

        let delta_totals = delta.cct.totals();
        let pos = match self.threads.binary_search_by_key(&delta.tid, |t| t.tid) {
            Ok(pos) => pos,
            Err(pos) => {
                self.threads.insert(
                    pos,
                    ThreadSummary {
                        tid: delta.tid,
                        totals: Metrics::default(),
                        sites: HashMap::new(),
                    },
                );
                pos
            }
        };
        let summary = &mut self.threads[pos];
        summary.totals.merge(&delta_totals);
        for (site, (c, a)) in &delta.sites {
            let entry = summary.sites.entry(*site).or_insert((0, 0));
            entry.0 += c;
            entry.1 += a;
        }
        self.records.merge(&delta.records);
    }

    /// A copy of this profile with every function id rewritten through `f`
    /// — CCT keys and per-thread site tables included. Used by the fleet
    /// aggregator to move an instance's profile into the fleet's
    /// name-keyed id space before merging.
    pub fn remap_funcs(
        &self,
        f: &mut dyn FnMut(txsim_pmu::FuncId) -> txsim_pmu::FuncId,
    ) -> Profile {
        Profile {
            cct: self.cct.remap_funcs(f),
            threads: self
                .threads
                .iter()
                .map(|t| ThreadSummary {
                    tid: t.tid,
                    totals: t.totals,
                    sites: t
                        .sites
                        .iter()
                        .fold(HashMap::new(), |mut acc, (site, &(c, a))| {
                            let e = acc
                                .entry(Ip::new(f(site.func), site.line))
                                .or_insert((0, 0));
                            e.0 += c;
                            e.1 += a;
                            acc
                        }),
                })
                .collect(),
            periods: self.periods,
            samples: self.samples,
            truncated_paths: self.truncated_paths,
            interrupt_abort_samples: self.interrupt_abort_samples,
            records: self.records.remap_funcs(f),
            meta: self.meta.clone(),
        }
    }

    /// Fold a whole profile into this one: CCTs merge path-wise (the same
    /// root-to-node key alignment `diff` uses), thread summaries merge by
    /// `tid_base + tid` so instances with overlapping thread ids stay
    /// distinguishable in the merged fleet profile.
    pub fn absorb_profile(&mut self, other: &Profile, tid_base: usize) {
        if self.samples == 0 && self.threads.is_empty() && self.cct.is_empty() {
            self.periods = other.periods;
        }
        self.samples += other.samples;
        self.truncated_paths += other.truncated_paths;
        self.interrupt_abort_samples += other.interrupt_abort_samples;
        self.cct.merge(&other.cct);
        for t in &other.threads {
            let tid = tid_base + t.tid;
            let pos = match self.threads.binary_search_by_key(&tid, |s| s.tid) {
                Ok(pos) => pos,
                Err(pos) => {
                    self.threads.insert(
                        pos,
                        ThreadSummary {
                            tid,
                            totals: Metrics::default(),
                            sites: HashMap::new(),
                        },
                    );
                    pos
                }
            };
            let summary = &mut self.threads[pos];
            summary.totals.merge(&t.totals);
            for (site, (c, a)) in &t.sites {
                let e = summary.sites.entry(*site).or_insert((0, 0));
                e.0 += c;
                e.1 += a;
            }
        }
        self.records.merge(&other.records);
    }

    /// Sum of per-site backend mixes — the run's overall fallback mix.
    pub fn backend_totals(&self) -> BackendMix {
        self.records.totals().mix
    }

    /// Sum of per-site contention-management counters — the run's overall
    /// CM intervention totals.
    pub fn cm_totals(&self) -> CmStats {
        self.records.totals().cm
    }

    /// Committed-transaction duration histogram merged across all sites —
    /// the run-wide latency distribution behind the `/trend` p99 column.
    pub fn tx_cycles_totals(&self) -> Hist32 {
        self.records.totals().hists.tx_cycles
    }

    /// Histogram sites ranked by retry-depth p99 bucket (descending), then
    /// by completion count — the ordering the percentiles report pass and
    /// the starvation diagnosis walk.
    pub fn hist_sites(&self) -> Vec<(Ip, &SiteHists)> {
        let mut out: Vec<_> = self
            .records
            .sorted()
            .into_iter()
            .filter(|(_, r)| !r.hists.is_zero())
            .map(|(ip, r)| (ip, &r.hists))
            .collect();
        out.sort_by_key(|(_, h)| {
            (
                std::cmp::Reverse(h.retry_depth.percentile_bucket(0.99)),
                std::cmp::Reverse(h.retry_depth.count),
            )
        });
        out
    }

    /// The critical-section duration ratio r_cs = T/W.
    pub fn r_cs(&self) -> f64 {
        self.totals().r_cs()
    }

    /// The program-wide abort/commit ratio r_a/c.
    pub fn abort_commit_ratio(&self) -> f64 {
        self.totals().abort_commit_ratio()
    }

    /// Estimated total work in cycles (W scaled by the sampling period).
    pub fn estimated_work_cycles(&self) -> u64 {
        self.totals().w * self.periods.cycles
    }

    /// Estimated transaction commits/aborts (scaled by event periods).
    pub fn estimated_commits(&self) -> u64 {
        self.totals().commit_samples * self.periods.commit
    }

    /// Estimated application-caused aborts.
    pub fn estimated_aborts(&self) -> u64 {
        self.totals().abort_samples * self.periods.abort
    }

    /// The Figure-7-style time decomposition.
    pub fn time_breakdown(&self) -> TimeBreakdown {
        TimeBreakdown::from_metrics(&self.totals())
    }

    /// Transaction sites ranked by sampled abort weight, descending —
    /// the "find the place with the largest abort weight" step of the
    /// decision tree.
    pub fn hot_abort_sites(&self) -> Vec<(Ip, Metrics)> {
        let mut per_site: HashMap<Ip, Metrics> = HashMap::new();
        for id in self.cct.preorder() {
            let m = self.cct.metrics(id);
            if m.abort_samples == 0 && m.commit_samples == 0 {
                continue;
            }
            if let Some(key) = self.cct.key(id) {
                let site = match key {
                    crate::cct::NodeKey::Stmt { ip, .. } => ip,
                    crate::cct::NodeKey::Frame { func, .. } => Ip::new(func, 0),
                };
                per_site.entry(site).or_default().merge(m);
            }
        }
        let mut out: Vec<_> = per_site.into_iter().collect();
        out.sort_by_key(|(ip, m)| (std::cmp::Reverse(m.abort_weight), ip.func.0, ip.line));
        out
    }

    /// Critical sections ranked by their share of critical-section time —
    /// §4's "decompose T to different critical sections and identify the
    /// hot ones". Sites are the statement leaves that received CS cycles
    /// samples, aggregated per IP.
    pub fn hot_critical_sections(&self) -> Vec<(Ip, Metrics)> {
        let mut per_site: HashMap<Ip, Metrics> = HashMap::new();
        for id in self.cct.preorder() {
            let m = self.cct.metrics(id);
            if m.t == 0 {
                continue;
            }
            if let Some(crate::cct::NodeKey::Stmt { ip, .. }) = self.cct.key(id) {
                per_site.entry(ip).or_default().merge(m);
            }
        }
        let mut out: Vec<_> = per_site.into_iter().collect();
        out.sort_by_key(|(ip, m)| (std::cmp::Reverse(m.t), ip.func.0, ip.line));
        out
    }

    /// Per-thread (commit, abort) sample counts for one site, indexed by
    /// tid — the per-thread histogram of §5's contention metrics.
    pub fn thread_histogram(&self, site: Ip) -> Vec<(usize, u64, u64)> {
        self.threads
            .iter()
            .map(|t| {
                let (c, a) = t.sites.get(&site).copied().unwrap_or((0, 0));
                (t.tid, c, a)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cct::{NodeKey, ROOT};
    use crate::metrics::TimeComponent;
    use txsim_pmu::FuncId;

    #[test]
    fn abort_catalog_reads_what_the_collector_books() {
        for row in ABORT_CLASSES {
            let mut m = Metrics::default();
            m.add_abort_sample(row.class, 7);
            assert_eq!(row.count(&m), 1, "{}", row.label());
            let weighted = row.class != AbortClass::Explicit;
            assert_eq!(row.weight(&m), weighted.then_some(7));
            let booked: u64 = ABORT_CLASSES.iter().map(|r| r.count(&m)).sum();
            assert_eq!(booked, m.abort_samples, "one class per sample");
        }
        let labels: Vec<_> = ABORT_CLASSES.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            ["conflict", "capacity", "sync", "explicit", "validation"]
        );
        let figure7: Vec<_> = ABORT_CLASSES.iter().filter(|r| r.in_figure7()).collect();
        assert_eq!(figure7.len(), 3, "conflict, capacity and sync");
    }

    #[test]
    fn time_catalog_keys_follow_the_breakdown_fields() {
        let b = TimeBreakdown {
            outside: 1.0,
            tx: 2.0,
            fallback: 3.0,
            lock_waiting: 4.0,
            overhead: 5.0,
        };
        let keyed: Vec<_> = TIME_COMPONENTS
            .iter()
            .map(|c| (c.key, (c.share)(&b)))
            .collect();
        assert_eq!(
            keyed,
            [
                ("outside", 1.0),
                ("tx", 2.0),
                ("fallback", 3.0),
                ("lock_waiting", 4.0),
                ("overhead", 5.0)
            ]
        );
        assert_eq!(b.sum(), 15.0);
    }

    #[test]
    fn time_breakdown_sums_to_one() {
        let mut p = Profile::default();
        let n = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(1), 1),
                speculative: false,
            },
        );
        for (component, times) in [
            (TimeComponent::Outside, 10),
            (TimeComponent::Tx, 5),
            (TimeComponent::Fallback, 3),
            (TimeComponent::LockWaiting, 2),
            (TimeComponent::Overhead, 1),
        ] {
            for _ in 0..times {
                p.cct.metrics_mut(n).add_cycles_sample(component);
            }
        }
        let b = p.time_breakdown();
        let sum = b.outside + b.tx + b.fallback + b.lock_waiting + b.overhead;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((b.outside - 10.0 / 21.0).abs() < 1e-9);
        assert!((b.tx - 5.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_uses_periods() {
        let mut p = Profile {
            periods: Periods {
                cycles: 1000,
                commit: 10,
                abort: 10,
                mem: 1,
            },
            ..Profile::default()
        };
        let n = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(1), 1),
                speculative: false,
            },
        );
        p.cct.metrics_mut(n).w = 7;
        p.cct.metrics_mut(n).commit_samples = 3;
        p.cct.metrics_mut(n).abort_samples = 6;
        assert_eq!(p.estimated_work_cycles(), 7000);
        assert_eq!(p.estimated_commits(), 30);
        assert_eq!(p.estimated_aborts(), 60);
        assert_eq!(p.abort_commit_ratio(), 2.0);
    }

    #[test]
    fn absorb_profile_sums_totals_and_offsets_thread_ids() {
        let mk = |func: u32, w: u64, tid: usize| {
            let mut p = Profile::default();
            let n = p.cct.child(
                ROOT,
                NodeKey::Stmt {
                    ip: Ip::new(FuncId(func), 1),
                    speculative: false,
                },
            );
            p.cct.metrics_mut(n).w = w;
            p.samples = w;
            p.threads.push(ThreadSummary {
                tid,
                totals: Metrics {
                    w,
                    ..Metrics::default()
                },
                sites: HashMap::from([(Ip::new(FuncId(func), 1), (w, 0))]),
            });
            p
        };
        let mut fleet = Profile::default();
        fleet.absorb_profile(&mk(1, 10, 0), 0);
        fleet.absorb_profile(&mk(1, 5, 0), 1000);
        fleet.absorb_profile(&mk(2, 3, 1), 1000);
        assert_eq!(fleet.samples, 18);
        assert_eq!(fleet.totals().w, 18);
        // Same path merged; distinct path kept.
        assert_eq!(fleet.cct.len(), 3);
        // Threads: tid 0 from instance A, tids 1000/1001 from instance B.
        let tids: Vec<usize> = fleet.threads.iter().map(|t| t.tid).collect();
        assert_eq!(tids, vec![0, 1000, 1001]);
        assert_eq!(fleet.threads[1].totals.w, 5);
    }

    #[test]
    fn remap_funcs_rewrites_cct_and_sites() {
        let mut p = Profile::default();
        let n = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(3), 7),
                speculative: false,
            },
        );
        p.cct.metrics_mut(n).w = 4;
        p.threads.push(ThreadSummary {
            tid: 0,
            totals: Metrics::default(),
            sites: HashMap::from([(Ip::new(FuncId(3), 7), (2, 1))]),
        });
        let q = p.remap_funcs(&mut |f| FuncId(f.0 + 100));
        assert_eq!(q.cct.len(), 2);
        let keys: Vec<NodeKey> = q
            .cct
            .children(ROOT)
            .map(|id| q.cct.key(id).expect("non-root has key"))
            .collect();
        assert_eq!(
            keys,
            vec![NodeKey::Stmt {
                ip: Ip::new(FuncId(103), 7),
                speculative: false,
            }]
        );
        assert_eq!(q.threads[0].sites[&Ip::new(FuncId(103), 7)], (2, 1));
        // Original untouched.
        assert_eq!(p.threads[0].sites[&Ip::new(FuncId(3), 7)], (2, 1));
    }

    #[test]
    fn site_records_flow_through_delta_absorb_and_remap() {
        let site = Ip::new(FuncId(3), 7);
        let mut tp = ThreadProfile {
            tid: 0,
            ..ThreadProfile::default()
        };
        let r = tp.records.entry(site);
        r.mix.lock = 5;
        r.mix.switches = 1;
        r.hists.record_completion(100, 2, None);
        r.hists.record_completion(900, 7, Some(400));
        r.cm.yields = 4;
        r.cm.priority_aborts = 2;
        assert!(!tp.is_empty(), "runtime data alone makes it non-empty");

        let delta = tp.take_delta();
        assert!(tp.records.is_empty(), "take_delta drains the records");
        let mut p = Profile::default();
        p.absorb_thread_delta(&delta);
        assert_eq!(
            p.records.get(site).unwrap(),
            delta.records.get(site).unwrap()
        );

        // Second delta from another thread merges additively.
        let mut tp2 = ThreadProfile {
            tid: 1,
            ..ThreadProfile::default()
        };
        tp2.records.entry(site).mix.stm = 3;
        tp2.records.entry(site).cm.stalls = 3;
        tp2.records.entry(site).cm.escalations = 1;
        p.absorb_thread_delta(&tp2.take_delta());
        assert_eq!(p.records.get(site).unwrap().mix.stm, 3);
        assert_eq!(p.backend_totals().total(), 8);
        assert_eq!(p.backend_totals().switches, 1);
        assert_eq!(p.cm_totals().total(), 10);
        assert_eq!(p.tx_cycles_totals().count, 2);
        assert_eq!(p.tx_cycles_totals().sum, 1000);

        // Fleet-merge and remap keep the record keyed per site.
        let mut fleet = Profile::default();
        fleet.absorb_profile(&p, 0);
        fleet.absorb_profile(&p, 1000);
        let merged = fleet.records.get(site).unwrap();
        assert_eq!(merged.mix.lock, 10);
        assert_eq!(merged.hists.tx_cycles.count, 4);
        assert_eq!(merged.cm.yields, 8);
        let q = fleet.remap_funcs(&mut |f| FuncId(f.0 + 100));
        let moved = q.records.get(Ip::new(FuncId(103), 7)).unwrap();
        assert_eq!(moved, merged);
        assert!(q.records.get(site).is_none());

        // Ranking: the site exists and reports a p99 retry-depth bucket.
        let ranked = q.hist_sites();
        assert_eq!(ranked.len(), 1);
        assert!(ranked[0].1.retry_depth.percentile(0.99).is_some());
    }

    #[test]
    fn hist_sites_skips_records_without_histograms() {
        let mut p = Profile::default();
        p.records.entry(Ip::new(FuncId(1), 1)).cm.yields = 1;
        p.records.entry(Ip::new(FuncId(2), 2)).mix.lock = 1;
        assert!(p.hist_sites().is_empty());
        p.records
            .entry(Ip::new(FuncId(2), 2))
            .hists
            .record_completion(10, 1, None);
        assert_eq!(p.hist_sites().len(), 1);
    }

    #[test]
    fn hot_abort_sites_rank_by_weight() {
        let mut p = Profile::default();
        let a = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(1), 1),
                speculative: false,
            },
        );
        let b = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(2), 2),
                speculative: false,
            },
        );
        p.cct.metrics_mut(a).abort_samples = 1;
        p.cct.metrics_mut(a).abort_weight = 10;
        p.cct.metrics_mut(b).abort_samples = 1;
        p.cct.metrics_mut(b).abort_weight = 99;
        let sites = p.hot_abort_sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].0, Ip::new(FuncId(2), 2));
        assert_eq!(sites[0].1.abort_weight, 99);
    }
}
