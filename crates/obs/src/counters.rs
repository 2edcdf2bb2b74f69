//! Atomic per-subsystem counters.
//!
//! The counter set is closed and enumerated at compile time: every counter
//! has a fixed slot in a [`Registry`], so incrementing is one relaxed
//! `fetch_add` with no hashing, no locking and no allocation — cheap enough
//! to leave in every hot path of the simulator and profiler. Registries are
//! ordinary values (tests create private ones); the instrumented crates
//! share the process-wide instance returned by [`registry`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// The instrumented subsystems, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// Simulated PMU: sample generation and LBR reconstruction.
    Pmu,
    /// The HTM engine (`SimCpu`): transaction begin/commit/abort.
    Engine,
    /// The virtual-time scheduler.
    Sched,
    /// The cache-line conflict directory.
    Directory,
    /// The RTM runtime (acquire/retry/fallback paths).
    Runtime,
    /// The TL2-style software TM used as a fallback backend.
    Stm,
    /// The online sample collector.
    Collector,
    /// The calling-context tree.
    Cct,
    /// The shadow-memory contention detector.
    Shadow,
    /// The workload harness.
    Harness,
    /// The live observability service (snapshot hub + HTTP endpoints).
    Live,
    /// The span tracer itself.
    Tracer,
}

impl Subsystem {
    /// Every subsystem, in report order.
    pub const ALL: &'static [Subsystem] = &[
        Subsystem::Pmu,
        Subsystem::Engine,
        Subsystem::Sched,
        Subsystem::Directory,
        Subsystem::Runtime,
        Subsystem::Stm,
        Subsystem::Collector,
        Subsystem::Cct,
        Subsystem::Shadow,
        Subsystem::Harness,
        Subsystem::Live,
        Subsystem::Tracer,
    ];

    /// Stable lowercase label (used in tables, JSON and trace categories).
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Pmu => "pmu",
            Subsystem::Engine => "engine",
            Subsystem::Sched => "sched",
            Subsystem::Directory => "directory",
            Subsystem::Runtime => "runtime",
            Subsystem::Stm => "stm",
            Subsystem::Collector => "collector",
            Subsystem::Cct => "cct",
            Subsystem::Shadow => "shadow",
            Subsystem::Harness => "harness",
            Subsystem::Live => "live",
            Subsystem::Tracer => "tracer",
        }
    }
}

macro_rules! counters {
    ($( $variant:ident => ($subsystem:ident, $name:literal, $doc:literal), )+) => {
        /// Every counter tracked by the observability layer. The enum value
        /// is the counter's slot in a [`Registry`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $( #[doc = $doc] $variant, )+
        }

        impl Counter {
            /// Every counter, in declaration (= report) order.
            pub const ALL: &'static [Counter] = &[ $( Counter::$variant, )+ ];

            /// Stable snake_case name (used in tables and JSON).
            pub fn name(self) -> &'static str {
                match self { $( Counter::$variant => $name, )+ }
            }

            /// The subsystem this counter belongs to.
            pub fn subsystem(self) -> Subsystem {
                match self { $( Counter::$variant => Subsystem::$subsystem, )+ }
            }
        }
    };
}

counters! {
    SamplesTaken => (Pmu, "samples_taken", "PMU samples delivered to a sink."),
    SamplesDropped => (Pmu, "samples_dropped", "Samples discarded as profiler-induced (interrupt aborts)."),
    LbrWindowReconstructions => (Pmu, "lbr_window_reconstructions", "In-transaction call paths reconstructed from the LBR."),
    LbrWindowsTruncated => (Pmu, "lbr_windows_truncated", "Reconstructions that ran out of LBR window."),
    TxBegins => (Engine, "tx_begins", "Hardware transactions started."),
    TxCommits => (Engine, "tx_commits", "Hardware transactions committed."),
    TxAborts => (Engine, "tx_aborts", "Hardware transactions aborted."),
    SchedSyncs => (Sched, "sched_syncs", "Virtual-time scheduler synchronization calls."),
    SchedBlocks => (Sched, "sched_blocks", "Scheduler syncs that had to block."),
    SchedParks => (Sched, "sched_parks", "Scheduler blocks that fell through to an OS park."),
    SchedLockRecoveries => (Sched, "sched_lock_recoveries", "Poisoned scheduler locks recovered instead of panicking."),
    DirectoryConflictChecks => (Directory, "directory_conflict_checks", "Transactional read/write declarations checked for conflicts."),
    DirectoryDooms => (Directory, "directory_dooms", "Conflict dooms issued by the directory."),
    RtmHtmAttempts => (Runtime, "rtm_htm_attempts", "Hardware-path attempts by the RTM runtime."),
    RtmRetries => (Runtime, "rtm_retries", "Transient aborts retried on the hardware path."),
    RtmFallbacks => (Runtime, "rtm_fallbacks", "Critical sections that took the global-lock fallback."),
    RtmLockWaits => (Runtime, "rtm_lock_waits", "Waits for the elided lock to become free."),
    RtmBackendSwitches => (Runtime, "rtm_backend_switches", "Per-site fallback-backend switches by the adaptive policy."),
    RtmHistStores => (Runtime, "rtm_hist_stores", "Completed critical sections recorded into the per-site histograms."),
    StmBegins => (Stm, "stm_begins", "Software-transaction attempts started."),
    StmCommits => (Stm, "stm_commits", "Software transactions committed."),
    StmValidationAborts => (Stm, "stm_validation_aborts", "Software transactions killed by commit-time validation."),
    StmLockBusy => (Stm, "stm_lock_busy", "Commit attempts that found a write stripe locked."),
    StmIrrevocable => (Stm, "stm_irrevocable", "Escalations to serial irrevocable execution."),
    CollectorScratchTruncations => (Collector, "collector_scratch_truncations", "Sample contexts truncated to the fixed-capacity scratch buffer."),
    CollectorDeltasPublished => (Collector, "collector_deltas_published", "Non-empty epoch-boundary profile deltas published to the snapshot hub."),
    CollectorLockRecoveries => (Collector, "collector_lock_recoveries", "Poisoned collector locks (handoff slots, shadow-memory shards) recovered instead of panicking."),
    HubLockRecoveries => (Live, "hub_lock_recoveries", "Poisoned snapshot-hub locks recovered instead of panicking."),
    CctNodesCreated => (Cct, "cct_nodes_created", "Calling-context-tree nodes created."),
    CctNodesHit => (Cct, "cct_nodes_hit", "Calling-context-tree lookups that found an existing node."),
    ShadowProbes => (Shadow, "shadow_probes", "Shadow-memory probes by the contention detector."),
    ShadowHits => (Shadow, "shadow_hits", "Probes classified as true or false sharing."),
    WorkersSpawned => (Harness, "workers_spawned", "Worker threads spawned by the harness."),
    SnapshotsMerged => (Live, "snapshots_merged", "Per-thread profile deltas merged into the live snapshot hub."),
    SnapshotMergeCycles => (Live, "snapshot_merge_cycles", "Virtual-TSC cycles spent merging deltas in the snapshot hub."),
    HttpHealthzRequests => (Live, "http_healthz_requests", "HTTP requests served on /healthz."),
    HttpMetricsRequests => (Live, "http_metrics_requests", "HTTP requests served on /metrics."),
    HttpProfileRequests => (Live, "http_profile_requests", "HTTP requests served on /profile.json."),
    HttpFlamegraphRequests => (Live, "http_flamegraph_requests", "HTTP requests served on /flamegraph."),
    HttpOtherRequests => (Live, "http_other_requests", "HTTP requests that hit an unknown path (404)."),
    HttpDeltaRequests => (Live, "http_delta_requests", "HTTP requests served on /delta (epoch-delta export)."),
    HttpTrendRequests => (Live, "http_trend_requests", "HTTP requests served on /trend."),
    HttpDiffRequests => (Live, "http_diff_requests", "HTTP requests served on /diff (retained-epoch totals diff)."),
    HttpBadRequests => (Live, "http_bad_requests", "HTTP request heads refused before routing (400, 408, 414, 431)."),
    AggPolls => (Live, "agg_polls", "Delta polls issued by the fleet aggregator's followers."),
    AggResyncs => (Live, "agg_resyncs", "Full resyncs the aggregator performed (instance restart or lag)."),
    AggBackoffs => (Live, "agg_backoffs", "Follower polls skipped because a failing instance was in backoff."),
    AggLockRecoveries => (Live, "agg_lock_recoveries", "Poisoned aggregator locks recovered instead of panicking."),
    SpansRecorded => (Tracer, "spans_recorded", "Trace spans retained in ring buffers."),
    SpansDropped => (Tracer, "spans_dropped", "Trace spans overwritten on ring wraparound."),
}

/// A fixed-slot set of atomic counters. One process-wide instance lives
/// behind [`registry`]; tests construct their own.
pub struct Registry {
    cells: [AtomicU64; Counter::ALL.len()],
}

impl Registry {
    /// A registry with every counter at zero.
    pub const fn new() -> Self {
        Registry {
            cells: [const { AtomicU64::new(0) }; Counter::ALL.len()],
        }
    }

    /// Add `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.cells[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.cells[counter as usize].load(Ordering::Relaxed)
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            values: self
                .cells
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect::<Vec<_>>()
                .try_into()
                .expect("cell count matches counter count"),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide counter registry incremented by [`crate::count`].
pub fn registry() -> &'static Registry {
    &GLOBAL
}

/// A point-in-time copy of a [`Registry`]'s counters, with deterministic
/// renderers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    values: [u64; Counter::ALL.len()],
}

impl Snapshot {
    /// Value of `counter` at snapshot time.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// Sum of every counter belonging to `subsystem`.
    pub fn subsystem_total(&self, subsystem: Subsystem) -> u64 {
        Counter::ALL
            .iter()
            .filter(|c| c.subsystem() == subsystem)
            .map(|&c| self.get(c))
            .sum()
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Counters with non-zero values, in declaration order.
    pub fn nonzero(&self) -> Vec<(Counter, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, v)| v != 0)
            .collect()
    }

    /// Render a deterministic text table, grouped by subsystem.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{:<10} {:<28} {:>14}", "subsystem", "counter", "value").unwrap();
        for &sub in Subsystem::ALL {
            for &c in Counter::ALL.iter().filter(|c| c.subsystem() == sub) {
                writeln!(
                    out,
                    "{:<10} {:<28} {:>14}",
                    sub.label(),
                    c.name(),
                    self.get(c)
                )
                .unwrap();
            }
        }
        out
    }

    /// Render a deterministic JSON object, keyed subsystem → counter.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, &sub) in Subsystem::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":{{", sub.label()).unwrap();
            let mut first = true;
            for &c in Counter::ALL.iter().filter(|c| c.subsystem() == sub) {
                if !first {
                    out.push(',');
                }
                first = false;
                write!(out, "\"{}\":{}", c.name(), self.get(c)).unwrap();
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counter_has_a_distinct_slot_and_name() {
        let mut names = std::collections::HashSet::new();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "slot order must match declaration order");
            assert!(names.insert(c.name()), "duplicate name {}", c.name());
        }
    }

    #[test]
    fn add_and_get_roundtrip() {
        let r = Registry::new();
        r.add(Counter::SamplesTaken, 3);
        r.add(Counter::SamplesTaken, 2);
        r.add(Counter::CctNodesCreated, 1);
        assert_eq!(r.get(Counter::SamplesTaken), 5);
        assert_eq!(r.get(Counter::CctNodesCreated), 1);
        assert_eq!(r.get(Counter::SamplesDropped), 0);
        r.reset();
        assert!(r.snapshot().is_zero());
    }

    #[test]
    fn identical_runs_produce_identical_snapshots() {
        // Determinism: the same sequence of increments against two private
        // registries yields byte-identical table and JSON renders.
        let run = |r: &Registry| {
            for i in 0..100u64 {
                r.add(Counter::SamplesTaken, 1);
                if i % 7 == 0 {
                    r.add(Counter::SamplesDropped, 1);
                }
                r.add(Counter::DirectoryConflictChecks, i % 3);
                r.add(Counter::CctNodesHit, 2);
            }
        };
        let (a, b) = (Registry::new(), Registry::new());
        run(&a);
        run(&b);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().render_table(), b.snapshot().render_table());
        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
    }

    #[test]
    fn table_lists_every_counter_once() {
        let r = Registry::new();
        let table = r.snapshot().render_table();
        for &c in Counter::ALL {
            assert_eq!(
                table.matches(c.name()).count(),
                1,
                "counter {} must appear exactly once",
                c.name()
            );
        }
    }

    #[test]
    fn json_is_grouped_by_subsystem() {
        let r = Registry::new();
        r.add(Counter::ShadowProbes, 9);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"shadow\":{\"shadow_probes\":9,\"shadow_hits\":0}"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn subsystem_totals_sum_members() {
        let r = Registry::new();
        r.add(Counter::ShadowProbes, 4);
        r.add(Counter::ShadowHits, 1);
        assert_eq!(r.snapshot().subsystem_total(Subsystem::Shadow), 5);
        assert_eq!(r.snapshot().subsystem_total(Subsystem::Cct), 0);
    }
}
