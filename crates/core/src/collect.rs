//! The online data collector.
//!
//! One [`Collector`] per worker thread, registered as the CPU's PMU sample
//! sink (the signal handler in the real tool). Each sample is attributed to
//! a full calling context — concatenating the unwound stack with the
//! LBR-reconstructed in-transaction path (§3.4) — and accounted per the
//! paper's Figure 4 algorithm:
//!
//! ```text
//! ctxt.W++                                   // always
//! if IsSampleInCS(GetState()):
//!     ctxt.T++
//!     if LBR[latest].abort:  ctxt.T_tx++     // Challenge I resolution
//!     elif inFallback:       ctxt.T_fb++
//!     elif inLockWaiting:    ctxt.T_wait++
//!     else:                  ctxt.T_oh++
//! ```

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use obs::{Counter, Subsystem};
use rtm_runtime::ThreadState;
use txsim_pmu::{
    AbortClass, BranchKind, EventKind, Frame, FuncId, Ip, Sample, SampleSink, SamplingConfig,
};

use crate::callpath::reconstruct_tx_path_into;
use crate::cct::NodeKey;
use crate::contention::{ContentionMap, Sharing};
use crate::metrics::{Metrics, TimeComponent};
use crate::profile::{Periods, Profile, ThreadProfile};

/// When a collector flushes its accumulated delta to the attached
/// [`SnapshotHub`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotPolicy {
    /// Flush after this many samples delivered to the thread (the default;
    /// sample count tracks profiling work directly).
    EverySamples(u64),
    /// Flush when the virtual TSC has advanced this many cycles since the
    /// thread's last flush (wall-clock-like pacing in simulated time).
    EveryCycles(u64),
}

impl SnapshotPolicy {
    fn normalized(self) -> SnapshotPolicy {
        match self {
            SnapshotPolicy::EverySamples(n) => SnapshotPolicy::EverySamples(n.max(1)),
            SnapshotPolicy::EveryCycles(n) => SnapshotPolicy::EveryCycles(n.max(1)),
        }
    }
}

/// A lightweight trend row retained per merge epoch so delta-vs-cumulative
/// regressions (abort mix shifting, lock-wait share creeping up) are
/// visible without storing whole profiles.
#[derive(Debug, Clone, Copy)]
pub struct EpochSummary {
    /// Epoch counter after this merge.
    pub epoch: u64,
    /// Cumulative samples at this epoch.
    pub samples: u64,
    /// Cumulative whole-program metric totals at this epoch.
    pub totals: Metrics,
    /// Cumulative p99 committed-transaction duration (log-bucket upper
    /// bound, cycles) across all sites; 0 when the run records no
    /// histograms.
    pub p99_tx_cycles: u64,
}

/// One retained per-epoch delta: the thread-profile published at `epoch`.
/// The ring of these makes epochs *addressable*: any client that knows
/// epoch N can ask for exactly the activity after N ([`SnapshotHub::delta_since`]).
struct EpochDelta {
    epoch: u64,
    delta: ThreadProfile,
}

struct HubState {
    cumulative: Profile,
    history: VecDeque<EpochSummary>,
    /// Trend rows dropped off the front of `history` (satellite fix: the
    /// drop used to be silent, hiding how much trend was lost).
    history_truncated: u64,
    deltas: VecDeque<EpochDelta>,
    /// Epoch deltas dropped off the front of `deltas`; a follower asking
    /// for an epoch older than the retained window gets a full resync.
    deltas_truncated: u64,
}

/// Shared, versioned aggregation point for live profiling.
///
/// Worker collectors periodically publish per-thread deltas (per the
/// [`SnapshotPolicy`]); the hub folds them into one cumulative [`Profile`]
/// and bumps its epoch. Readers (the `/metrics`, `/profile.json` and
/// `/flamegraph` endpoints of `crates/live`) clone the latest snapshot at
/// any time — collection never stops or blocks on a reader beyond the one
/// short merge mutex.
///
/// A hub is strictly opt-in: a collector with no hub attached keeps the
/// exact pre-hub fast path (one `Option` branch, zero additional atomic
/// operations).
pub struct SnapshotHub {
    policy: SnapshotPolicy,
    epoch: AtomicU64,
    state: Mutex<HubState>,
}

impl std::fmt::Debug for SnapshotHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotHub")
            .field("policy", &self.policy)
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

/// How many epoch trend rows the hub retains (oldest dropped first).
const HISTORY_CAP: usize = 256;

/// How many per-epoch deltas the hub retains for [`SnapshotHub::delta_since`].
/// A follower further behind than this gets a full resync.
const DELTA_CAP: usize = 256;

/// A point-in-time copy of the hub's cumulative profile.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    /// Merge epoch this snapshot corresponds to.
    pub epoch: u64,
    /// The cumulative merged profile.
    pub profile: Profile,
}

/// Whether a [`DeltaView`] carries an incremental delta or a full resync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// `profile` holds only activity after `since`.
    Delta,
    /// `profile` is the whole cumulative snapshot; the requested epoch was
    /// unusable (ahead of the hub — instance restart — or older than the
    /// retained delta window) and the client must replace its copy.
    Full,
}

/// Activity between two epochs, as served to delta followers.
#[derive(Debug, Clone)]
pub struct DeltaView {
    /// Epoch the delta starts after (0 for a full resync).
    pub since: u64,
    /// Epoch the delta runs up to (the hub's current epoch).
    pub to: u64,
    /// Incremental delta or full resync.
    pub kind: DeltaKind,
    /// The profile fragment covering `(since, to]`.
    pub profile: Profile,
}

/// The hub's retained epoch trend plus how much of it was truncated.
#[derive(Debug, Clone, Default)]
pub struct TrendView {
    /// Retained trend rows, oldest first.
    pub rows: Vec<EpochSummary>,
    /// Rows dropped off the front since the hub was created.
    pub truncated: u64,
}

impl SnapshotHub {
    /// Acquire the hub state, recovering a poisoned lock instead of
    /// propagating the panic: every mutation of `HubState` is a complete
    /// absorb-then-bookkeep step, so the state a panicking publisher leaves
    /// behind is at worst missing one delta — strictly better than taking
    /// the whole live endpoint down with it.
    fn lock_state(&self) -> MutexGuard<'_, HubState> {
        obs::recover(self.state.lock(), Counter::HubLockRecoveries)
    }

    /// Create a hub that asks collectors to flush per `policy`.
    pub fn new(policy: SnapshotPolicy) -> Arc<SnapshotHub> {
        Arc::new(SnapshotHub {
            policy: policy.normalized(),
            epoch: AtomicU64::new(0),
            state: Mutex::new(HubState {
                cumulative: Profile::default(),
                history: VecDeque::new(),
                history_truncated: 0,
                deltas: VecDeque::new(),
                deltas_truncated: 0,
            }),
        })
    }

    /// The flush policy collectors attached to this hub follow.
    pub fn policy(&self) -> SnapshotPolicy {
        self.policy
    }

    /// Current merge epoch (bumped once per absorbed delta).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Fold one per-thread delta into the cumulative snapshot. Called by
    /// collectors on their flush boundary and by the harness for each
    /// thread's residual delta at the end of a run.
    pub fn publish(&self, delta: &ThreadProfile) {
        if delta.is_empty() {
            return;
        }
        let t0 = txsim_pmu::now_tsc();
        let mut state = self.lock_state();
        state.cumulative.absorb_thread_delta(delta);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let summary = EpochSummary {
            epoch,
            samples: state.cumulative.samples,
            totals: state.cumulative.totals(),
            p99_tx_cycles: state
                .cumulative
                .tx_cycles_totals()
                .percentile(0.99)
                .unwrap_or(0),
        };
        if state.history.len() == HISTORY_CAP {
            state.history.pop_front();
            state.history_truncated += 1;
        }
        state.history.push_back(summary);
        if state.deltas.len() == DELTA_CAP {
            state.deltas.pop_front();
            state.deltas_truncated += 1;
        }
        state.deltas.push_back(EpochDelta {
            epoch,
            delta: delta.clone(),
        });
        drop(state);
        obs::count(Counter::SnapshotsMerged);
        obs::count_n(
            Counter::SnapshotMergeCycles,
            txsim_pmu::now_tsc().saturating_sub(t0),
        );
    }

    /// Clone the latest cumulative snapshot together with its epoch.
    pub fn latest(&self) -> SnapshotView {
        let state = self.lock_state();
        SnapshotView {
            epoch: self.epoch.load(Ordering::Acquire),
            profile: state.cumulative.clone(),
        }
    }

    /// The retained epoch trend, oldest first.
    pub fn history(&self) -> Vec<EpochSummary> {
        self.lock_state().history.iter().copied().collect()
    }

    /// The retained epoch trend plus the count of rows already dropped off
    /// the front — so consumers can tell "short trend" from "long run whose
    /// early trend was truncated".
    pub fn trend(&self) -> TrendView {
        let state = self.lock_state();
        TrendView {
            rows: state.history.iter().copied().collect(),
            truncated: state.history_truncated,
        }
    }

    /// Activity of the most recent merge window: metric totals of the last
    /// epoch minus the one before it. `None` until a first merge happened.
    pub fn window(&self) -> Option<Metrics> {
        let state = self.lock_state();
        let last = state.history.back()?;
        match state.history.len() {
            0 => None,
            1 => Some(last.totals),
            n => Some(last.totals.minus(&state.history[n - 2].totals)),
        }
    }

    /// Everything published after epoch `since`, as a profile fragment.
    ///
    /// Normally returns an incremental [`DeltaKind::Delta`] covering
    /// `(since, current]` built from the retained per-epoch deltas —
    /// strictly less data than the cumulative snapshot. Falls back to
    /// [`DeltaKind::Full`] (the whole cumulative profile, `since = 0`) when
    /// the request cannot be served incrementally:
    ///
    /// * `since` is *ahead* of the current epoch — the client followed a
    ///   previous incarnation of this process (instance restart);
    /// * `since` predates the retained delta window — the follower lagged
    ///   further than [`DELTA_CAP`] epochs behind.
    ///
    /// `since == current` yields an empty delta (the no-news fast path a
    /// steady-state poller hits most of the time).
    pub fn delta_since(&self, since: u64) -> DeltaView {
        let state = self.lock_state();
        let current = self.epoch.load(Ordering::Acquire);
        if since > current {
            return DeltaView {
                since: 0,
                to: current,
                kind: DeltaKind::Full,
                profile: state.cumulative.clone(),
            };
        }
        if since == current {
            return DeltaView {
                since,
                to: current,
                kind: DeltaKind::Delta,
                profile: Profile::default(),
            };
        }
        // Incremental needs every epoch in (since, current] retained.
        let oldest_retained = state.deltas.front().map(|d| d.epoch);
        if oldest_retained.is_none_or(|oldest| oldest > since + 1) {
            return DeltaView {
                since: 0,
                to: current,
                kind: DeltaKind::Full,
                profile: state.cumulative.clone(),
            };
        }
        let mut profile = Profile::default();
        for entry in state.deltas.iter().filter(|d| d.epoch > since) {
            profile.absorb_thread_delta(&entry.delta);
        }
        DeltaView {
            since,
            to: current,
            kind: DeltaKind::Delta,
            profile,
        }
    }
}

/// A collector's link to its hub: the shared hub plus the local (entirely
/// non-atomic) flush bookkeeping.
struct HubLink {
    hub: Arc<SnapshotHub>,
    samples_since_flush: u64,
    last_flush_tsc: u64,
}

impl HubLink {
    /// Whether this sample crosses the flush boundary. Plain integer
    /// arithmetic on collector-local state; the only synchronization cost
    /// of the hub is the merge itself.
    fn due(&mut self, sample_tsc: u64) -> bool {
        match self.hub.policy {
            SnapshotPolicy::EverySamples(n) => {
                self.samples_since_flush += 1;
                if self.samples_since_flush >= n {
                    self.samples_since_flush = 0;
                    true
                } else {
                    false
                }
            }
            SnapshotPolicy::EveryCycles(n) => {
                if sample_tsc.saturating_sub(self.last_flush_tsc) >= n {
                    self.last_flush_tsc = sample_tsc;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Capacity of the collector's reusable context scratch buffer (unwound
/// frames + reconstructed in-tx frames + the leaf statement). Contexts
/// deeper than this are truncated — counted, never silent — by dropping the
/// *deepest* frames beyond the cap while keeping the leaf statement.
const SCRATCH_CAP: usize = 256;

/// Per-thread online collector. Implements [`SampleSink`]; hand it to
/// [`txsim_htm::SimCpu::set_sink`] via [`Collector::into_sink`] and read the
/// profile back through the [`CollectorHandle`] after the thread joins.
///
/// The collector owns its [`ThreadProfile`] outright: the per-sample path
/// touches only collector-local state (no lock, no shared cache line, no
/// heap allocation in steady state). Accumulated data leaves the thread in
/// batches — to the attached [`SnapshotHub`] at epoch boundaries, and to
/// the handle's handoff slot when the CPU flushes the sink or the collector
/// is dropped.
pub struct Collector {
    state: ThreadState,
    contention: Arc<ContentionMap>,
    /// The thread's profile, owned — never locked on the sample path.
    profile: ThreadProfile,
    /// Handoff slot shared with the [`CollectorHandle`]; written only by
    /// [`Collector::flush_residual`] (epoch-rate, not sample-rate).
    slot: Arc<Mutex<ThreadProfile>>,
    /// Reusable per-sample context buffer ([`SCRATCH_CAP`] keys).
    scratch: Vec<NodeKey>,
    /// Reusable buffer for LBR-reconstructed in-transaction frames.
    tx_scratch: Vec<Frame>,
    hub: Option<HubLink>,
}

/// Shared handle to a collector's finished profile, retained by the
/// harness. The collector moves its data into the shared slot when its CPU
/// flushes the sink ([`txsim_htm::SimCpu::flush_sink`]) or when it is
/// dropped (e.g. by dropping the CPU); call [`CollectorHandle::take`] after
/// either.
#[derive(Clone)]
pub struct CollectorHandle {
    slot: Arc<Mutex<ThreadProfile>>,
}

impl CollectorHandle {
    /// Take the finished thread profile. Call after the worker joined and
    /// the collector flushed (sink flush or drop).
    pub fn take(&self) -> ThreadProfile {
        std::mem::take(&mut lock_recovering(&self.slot))
    }
}

/// Acquire one of the collector's locks, recovering a poisoned lock
/// instead of panicking, and count the recovery. Both users can take over
/// whatever a panicking holder left: the handoff slot only ever holds
/// complete absorbed deltas, and a shadow-memory shard is a best-effort
/// cache of recent accesses whose worst damage is one missing record.
pub(crate) fn lock_recovering<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    obs::recover(lock.lock(), Counter::CollectorLockRecoveries)
}

impl Collector {
    /// Create a collector for the thread with id `tid`.
    ///
    /// * `state` — the RTM runtime's state word for this thread (the
    ///   `GetState()` extension of §3.2).
    /// * `contention` — the process-wide shadow memory (§3.3).
    /// * `sampling` — the PMU configuration, recorded so the analyzer can
    ///   scale sample counts back to event counts.
    pub fn new(
        tid: usize,
        state: ThreadState,
        contention: Arc<ContentionMap>,
        sampling: &SamplingConfig,
    ) -> (Self, CollectorHandle) {
        let periods = Periods::from_config(sampling);
        let identity = ThreadProfile {
            tid,
            periods,
            ..ThreadProfile::default()
        };
        let slot = Arc::new(Mutex::new(identity.clone()));
        let handle = CollectorHandle {
            slot: Arc::clone(&slot),
        };
        (
            Collector {
                state,
                contention,
                profile: identity,
                slot,
                scratch: Vec::with_capacity(SCRATCH_CAP),
                tx_scratch: Vec::with_capacity(SCRATCH_CAP),
                hub: None,
            },
            handle,
        )
    }

    /// Attach a live snapshot hub: the collector will publish its
    /// accumulated delta per the hub's [`SnapshotPolicy`]. Without this the
    /// collector keeps the exact post-mortem-only fast path.
    pub fn with_hub(mut self, hub: Arc<SnapshotHub>) -> Self {
        self.hub = Some(HubLink {
            hub,
            samples_since_flush: 0,
            last_flush_tsc: 0,
        });
        self
    }

    /// Box the collector for [`txsim_htm::SimCpu::set_sink`].
    pub fn into_sink(self) -> Box<dyn SampleSink> {
        Box::new(self)
    }

    /// Build the calling context for a sample into the reusable scratch
    /// buffer: unwound frames, then — for samples taken inside a
    /// transaction — the LBR-reconstructed speculative frames, then the
    /// precise-IP leaf statement. Allocation-free once the buffers have
    /// warmed up; contexts deeper than [`SCRATCH_CAP`] are truncated and
    /// counted. Returns whether the LBR reconstruction was truncated.
    fn build_context(&mut self, sample: &Sample, stack: &[Frame]) -> bool {
        self.scratch.clear();
        // Reserve the last slot for the leaf statement so it survives
        // truncation — the abort and contention analyses key on it.
        let limit = SCRATCH_CAP - 1;
        let mut overflowed = false;
        for f in stack {
            if self.scratch.len() == limit {
                overflowed = true;
                break;
            }
            self.scratch.push(NodeKey::Frame {
                func: f.func,
                callsite: f.callsite,
                speculative: false,
            });
        }

        let speculative = sample.caused_abort || sample.event == EventKind::TxAbort || sample.in_tx;
        let mut lbr_truncated = false;
        if speculative {
            let anchor = stack.last().map_or(FuncId::UNKNOWN, |f| f.func);
            lbr_truncated = reconstruct_tx_path_into(&sample.lbr, anchor, &mut self.tx_scratch);
            for f in &self.tx_scratch {
                if self.scratch.len() == limit {
                    overflowed = true;
                    break;
                }
                self.scratch.push(NodeKey::Frame {
                    func: f.func,
                    callsite: f.callsite,
                    speculative: true,
                });
            }
        }
        if overflowed {
            obs::count(Counter::CollectorScratchTruncations);
        }
        // Leaf statement: the precise IP for cycles/memory samples; for
        // RTM_RETIRED:ABORTED samples the architectural state has rolled
        // back, so the IP is the transaction-begin (fallback) address —
        // which is exactly the transaction *site* the abort analysis ranks
        // (the paper's `tm_begin` nodes in Figure 9). Any in-transaction
        // context sits in the reconstructed frames above this leaf.
        self.scratch.push(NodeKey::Stmt {
            ip: sample.ip,
            speculative,
        });
        lbr_truncated
    }

    /// Move everything accumulated since the last flush into the handoff
    /// slot the [`CollectorHandle`] reads. Idempotent (the drain leaves an
    /// empty profile); called by [`SampleSink::flush`] and on drop.
    fn flush_residual(&mut self) {
        let delta = self.profile.take_delta();
        if delta.is_empty() {
            return;
        }
        lock_recovering(&self.slot).absorb(&delta);
    }

    /// Figure 4: classify a cycles sample into a time component.
    fn classify_cycles(&self, sample: &Sample) -> TimeComponent {
        let state = self.state.query();
        if !state.in_cs() {
            return TimeComponent::Outside;
        }
        // Challenge I: the latest LBR entry is the interrupt; its abort bit
        // set means the sample was taken while speculating.
        let latest_abort = sample
            .lbr
            .last()
            .map(|e| e.kind == BranchKind::Interrupt && e.abort)
            .unwrap_or(false);
        if latest_abort {
            TimeComponent::Tx
        } else if state.in_fallback() {
            if state.in_stm() {
                // Fallback flavor: speculating in software (TL2 backend).
                TimeComponent::FallbackStm
            } else {
                TimeComponent::Fallback
            }
        } else if state.in_lock_waiting() {
            TimeComponent::LockWaiting
        } else {
            TimeComponent::Overhead
        }
    }
}

impl SampleSink for Collector {
    fn on_sample(&mut self, sample: &Sample, stack: &[Frame]) {
        let _span = obs::span(Subsystem::Collector, "on_sample");
        let truncated = self.build_context(sample, stack);
        // Classify before borrowing the profile: classification reads the
        // state word, not the profile.
        let component = (sample.event == EventKind::Cycles).then(|| self.classify_cycles(sample));

        let profile = &mut self.profile;
        profile.samples += 1;
        if truncated {
            profile.truncated_paths += 1;
        }
        let node = profile.cct.path(self.scratch.iter().copied());

        match sample.event {
            EventKind::Cycles => {
                let component = component.expect("classified above");
                profile.cct.metrics_mut(node).add_cycles_sample(component);
            }
            EventKind::TxCommit => {
                profile.cct.metrics_mut(node).commit_samples += 1;
                profile.site_commits(sample.ip).0 += 1;
            }
            EventKind::TxAbort => {
                let class = sample.abort_class.expect("abort samples carry their class");
                if class == AbortClass::Interrupt {
                    // Profiler-induced abort: discount it, or the tool
                    // would observe its own perturbation as application
                    // pathology.
                    profile.interrupt_abort_samples += 1;
                    obs::count(Counter::SamplesDropped);
                } else {
                    profile
                        .cct
                        .metrics_mut(node)
                        .add_abort_sample(class, sample.weight);
                    profile.site_commits(sample.ip).1 += 1;
                }
            }
            EventKind::MemLoad | EventKind::MemStore => {
                let addr = sample.addr.expect("memory samples carry an address");
                let sharing = self.contention.record(
                    addr,
                    sample.tid,
                    sample.event == EventKind::MemStore,
                    sample.tsc,
                );
                let m = profile.cct.metrics_mut(node);
                match sharing {
                    Sharing::None => {}
                    Sharing::True => m.true_sharing += 1,
                    Sharing::False => m.false_sharing += 1,
                }
            }
        }

        // Epoch boundary: with a hub attached, periodically hand off the
        // delta accumulated since the last flush. The check is collector-
        // local arithmetic; without a hub this whole block is one branch —
        // the hub mutex is the *only* cross-thread synchronization in the
        // collector, touched once per epoch instead of once per sample.
        if let Some(link) = &mut self.hub {
            if link.due(sample.tsc) {
                let delta = self.profile.take_delta();
                if !delta.is_empty() {
                    obs::count(Counter::CollectorDeltasPublished);
                    link.hub.publish(&delta);
                }
            }
        }
    }

    fn flush(&mut self) {
        self.flush_residual();
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // Dropping the CPU (and with it the boxed sink) must not lose the
        // tail of the profile: hand any residual to the slot.
        self.flush_residual();
    }
}

/// Everything a harness needs to profile one worker thread: create with
/// [`attach`], run the workload, then call [`CollectorHandle::take`].
pub fn attach(
    cpu: &mut txsim_htm::SimCpu,
    state: ThreadState,
    contention: Arc<ContentionMap>,
) -> CollectorHandle {
    attach_with_hub(cpu, state, contention, None)
}

/// [`attach`], optionally linking the collector to a live [`SnapshotHub`].
/// After the worker joins, the caller should publish the residual
/// [`CollectorHandle::take`] delta to the hub so the cumulative snapshot is
/// complete.
pub fn attach_with_hub(
    cpu: &mut txsim_htm::SimCpu,
    state: ThreadState,
    contention: Arc<ContentionMap>,
    hub: Option<Arc<SnapshotHub>>,
) -> CollectorHandle {
    let sampling = cpu.pmu().config().clone();
    let (collector, handle) = Collector::new(cpu.tid(), state, contention, &sampling);
    let collector = match hub {
        Some(hub) => collector.with_hub(hub),
        None => collector,
    };
    cpu.set_sink(collector.into_sink());
    handle
}

/// Per-site commit/abort sample pairs (used for the per-thread histograms
/// of §5's contention metrics).
pub type SiteCounts = HashMap<Ip, (u64, u64)>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cct::ROOT;
    use crate::metrics::TimeComponent;

    fn delta(tid: usize, line: u32, cycles: u64, aborts: u64) -> ThreadProfile {
        let mut p = ThreadProfile {
            tid,
            ..ThreadProfile::default()
        };
        let leaf = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(1), line),
                speculative: false,
            },
        );
        for _ in 0..cycles {
            p.cct.metrics_mut(leaf).add_cycles_sample(TimeComponent::Tx);
        }
        p.cct.metrics_mut(leaf).abort_samples = aborts;
        p.cct.metrics_mut(leaf).aborts_conflict = aborts;
        p.samples = cycles + aborts;
        *p.site_commits(Ip::new(FuncId(1), line)) = (cycles, aborts);
        p
    }

    #[test]
    fn hub_merges_deltas_and_versions_snapshots() {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(100));
        assert_eq!(hub.epoch(), 0);
        assert!(hub.window().is_none());

        hub.publish(&delta(0, 10, 5, 1));
        assert_eq!(hub.epoch(), 1);
        let v1 = hub.latest();
        assert_eq!(v1.epoch, 1);
        assert_eq!(v1.profile.samples, 6);
        assert_eq!(v1.profile.threads.len(), 1);

        // Second delta from another thread: cumulative grows, epoch bumps,
        // and the window view shows only the new activity.
        hub.publish(&delta(1, 10, 7, 2));
        let v2 = hub.latest();
        assert_eq!(v2.epoch, 2);
        assert_eq!(v2.profile.samples, 15);
        assert_eq!(v2.profile.threads.len(), 2);
        assert_eq!(v2.profile.totals().abort_samples, 3);
        let window = hub.window().expect("two epochs");
        assert_eq!(window.w, 7);
        assert_eq!(window.abort_samples, 2);

        // Same thread again: its summary row is extended, not duplicated.
        hub.publish(&delta(0, 11, 3, 0));
        let v3 = hub.latest();
        assert_eq!(v3.profile.threads.len(), 2);
        assert_eq!(v3.profile.threads[0].totals.w, 8);
        assert_eq!(hub.history().len(), 3);

        // Empty deltas are ignored entirely (no epoch churn).
        hub.publish(&ThreadProfile::default());
        assert_eq!(hub.epoch(), 3);
    }

    #[test]
    fn backend_mixes_survive_publish_and_delta_export() {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(100));
        let site = Ip::new(FuncId(1), 21);

        let mut d0 = delta(0, 10, 5, 1);
        let m = &mut d0.records.entry(site).mix;
        m.stm = 4;
        m.switches = 1;
        hub.publish(&d0);

        let mut d1 = delta(1, 10, 7, 2);
        let m = &mut d1.records.entry(site).mix;
        m.stm = 3;
        m.hle = 2;
        hub.publish(&d1);

        // Cumulative snapshot: both threads' mixes merged per site.
        let mix = hub.latest().profile.records.get(site).unwrap().mix;
        assert_eq!((mix.lock, mix.stm, mix.hle, mix.switches), (0, 7, 2, 1));
        assert_eq!(mix.choice(), Some("stm"));

        // Epoch-delta export: only the second publish's mix.
        let view = hub.delta_since(1);
        let mix = view.profile.records.get(site).unwrap().mix;
        assert_eq!((mix.lock, mix.stm, mix.hle, mix.switches), (0, 3, 2, 0));
    }

    #[test]
    fn hists_survive_publish_and_trend_reports_p99() {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(100));
        let site = Ip::new(FuncId(1), 21);

        let mut d0 = delta(0, 10, 5, 1);
        d0.records.entry(site).hists.record_completion(100, 1, None);
        hub.publish(&d0);

        let mut d1 = delta(1, 10, 7, 2);
        d1.records
            .entry(site)
            .hists
            .record_completion(9000, 7, Some(4000));
        hub.publish(&d1);

        // Cumulative snapshot: both threads' histograms merged per site.
        let h = hub.latest().profile.records.get(site).unwrap().hists;
        assert_eq!(h.tx_cycles.count, 2);
        assert_eq!(h.retry_depth.sum, 8);

        // Epoch-delta export: only the second publish's histograms.
        let view = hub.delta_since(1);
        let h = view.profile.records.get(site).unwrap().hists;
        assert_eq!(h.fb_dwell.count, 1);
        assert_eq!(h.tx_cycles.count, 1);

        // Trend rows carry the cumulative tx-cycles p99 (bucket bounds:
        // 100 → [64,127]; with the 9000 the p99 moves to [8192,16383]).
        let t = hub.trend();
        assert_eq!(t.rows[0].p99_tx_cycles, 127);
        assert_eq!(t.rows[1].p99_tx_cycles, 16383);
    }

    #[test]
    fn incremental_absorption_matches_postmortem_merge() {
        // Split each thread's activity into several deltas, publish them
        // interleaved, and compare against merging the whole thread
        // profiles at once (the pre-hub path).
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(1));
        let mut whole: Vec<ThreadProfile> = Vec::new();
        for tid in 0..3usize {
            let mut acc = ThreadProfile {
                tid,
                ..ThreadProfile::default()
            };
            for part in 0..4u32 {
                let d = delta(
                    tid,
                    10 + part,
                    (tid as u64 + 1) * (part as u64 + 1),
                    part as u64,
                );
                hub.publish(&d);
                acc.cct.merge(&d.cct);
                acc.samples += d.samples;
                for (site, (c, a)) in &d.sites {
                    let e = acc.site_commits(*site);
                    e.0 += c;
                    e.1 += a;
                }
            }
            whole.push(acc);
        }
        let merged = crate::merge_profiles(whole);
        let live = hub.latest().profile;
        assert_eq!(live.samples, merged.samples);
        assert_eq!(live.totals(), merged.totals());
        assert_eq!(live.cct.len(), merged.cct.len());
        assert_eq!(live.threads.len(), merged.threads.len());
        for (a, b) in live.threads.iter().zip(merged.threads.iter()) {
            assert_eq!(a.tid, b.tid);
            assert_eq!(a.totals, b.totals);
            assert_eq!(a.sites, b.sites);
        }
        // And the canonical renders agree, so live endpoints and offline
        // reports describe the same program.
        assert_eq!(
            crate::report::render_folded_names(&live, &Default::default()),
            crate::report::render_folded_names(&merged, &Default::default()),
        );
    }

    #[test]
    fn take_delta_preserves_identity_and_empties() {
        let mut p = delta(7, 10, 3, 1);
        p.periods = Periods {
            cycles: 9,
            commit: 9,
            abort: 9,
            mem: 9,
        };
        let d = p.take_delta();
        assert_eq!(d.tid, 7);
        assert_eq!(d.samples, 4);
        assert_eq!(d.periods.cycles, 9);
        assert!(p.is_empty());
        assert_eq!(p.tid, 7);
        assert_eq!(p.periods.cycles, 9, "periods survive the take");
    }

    #[test]
    fn delta_since_covers_exactly_the_missing_epochs() {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(1));
        hub.publish(&delta(0, 10, 5, 1));
        hub.publish(&delta(1, 11, 7, 2));
        hub.publish(&delta(0, 12, 3, 0));

        // since=0 is a full sync by content (every epoch retained), served
        // incrementally: it must equal the cumulative snapshot.
        let d0 = hub.delta_since(0);
        assert_eq!(d0.kind, DeltaKind::Delta);
        assert_eq!((d0.since, d0.to), (0, 3));
        assert_eq!(d0.profile.samples, hub.latest().profile.samples);
        assert_eq!(d0.profile.totals(), hub.latest().profile.totals());

        // since=2 carries only epoch 3's activity.
        let d2 = hub.delta_since(2);
        assert_eq!(d2.kind, DeltaKind::Delta);
        assert_eq!((d2.since, d2.to), (2, 3));
        assert_eq!(d2.profile.samples, 3);
        assert_eq!(d2.profile.threads.len(), 1);

        // since == current: empty no-news delta, no allocation of the world.
        let d3 = hub.delta_since(3);
        assert_eq!(d3.kind, DeltaKind::Delta);
        assert_eq!((d3.since, d3.to), (3, 3));
        assert_eq!(d3.profile.samples, 0);

        // since ahead of current (follower outlived a restart): full resync.
        let ahead = hub.delta_since(99);
        assert_eq!(ahead.kind, DeltaKind::Full);
        assert_eq!((ahead.since, ahead.to), (0, 3));
        assert_eq!(ahead.profile.samples, hub.latest().profile.samples);
    }

    #[test]
    fn delta_since_resyncs_when_the_window_was_truncated() {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(1));
        for i in 0..(DELTA_CAP + 10) {
            hub.publish(&delta(0, 10 + (i % 5) as u32, 1, 0));
        }
        let current = hub.epoch();
        // Epoch 1 fell off the delta ring long ago: full resync.
        let stale = hub.delta_since(1);
        assert_eq!(stale.kind, DeltaKind::Full);
        assert_eq!(stale.profile.samples, hub.latest().profile.samples);
        // A recent epoch is still served incrementally.
        let fresh = hub.delta_since(current - 3);
        assert_eq!(fresh.kind, DeltaKind::Delta);
        assert_eq!(fresh.profile.samples, 3);
        // Incremental-vs-cumulative equivalence at the resync boundary:
        // full + increments == cumulative.
        let boundary = hub.delta_since(current - (DELTA_CAP as u64 - 1));
        assert_eq!(boundary.kind, DeltaKind::Delta);
    }

    #[test]
    fn trend_reports_truncation_instead_of_dropping_silently() {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(1));
        for _ in 0..10 {
            hub.publish(&delta(0, 10, 1, 0));
        }
        let t = hub.trend();
        assert_eq!(t.rows.len(), 10);
        assert_eq!(t.truncated, 0);
        for _ in 0..(HISTORY_CAP) {
            hub.publish(&delta(0, 10, 1, 0));
        }
        let t = hub.trend();
        assert_eq!(t.rows.len(), HISTORY_CAP);
        assert_eq!(t.truncated, 10, "dropped rows are counted, not silent");
        assert_eq!(t.rows.first().unwrap().epoch, 11, "oldest retained row");
        assert_eq!(t.rows.last().unwrap().epoch, 10 + HISTORY_CAP as u64);
    }

    fn test_collector(tid: usize) -> (Collector, CollectorHandle) {
        Collector::new(
            tid,
            ThreadState::new(),
            Arc::new(ContentionMap::with_defaults(
                txsim_mem::CacheGeometry::default(),
            )),
            &SamplingConfig::txsampler_default(),
        )
    }

    fn cycles_sample(line: u32, tsc: u64) -> (Sample, Vec<Frame>) {
        let sample = Sample {
            event: EventKind::Cycles,
            ip: Ip::new(FuncId(1), line),
            tid: 0,
            in_tx: false,
            caused_abort: false,
            addr: None,
            weight: 0,
            abort_class: None,
            tsc,
            lbr: Vec::new(),
        };
        let stack = vec![Frame {
            func: FuncId(1),
            callsite: Ip::UNKNOWN,
        }];
        (sample, stack)
    }

    #[test]
    fn collector_hands_off_on_flush_and_on_drop() {
        // Explicit flush path.
        let (mut c, handle) = test_collector(5);
        for i in 0..10 {
            let (s, stack) = cycles_sample(10, i);
            c.on_sample(&s, &stack);
        }
        assert!(
            handle.take().is_empty(),
            "nothing reaches the slot before a flush"
        );
        c.flush();
        let p = handle.take();
        assert_eq!(p.tid, 5);
        assert_eq!(p.samples, 10);
        assert_eq!(p.periods.cycles, 50_000, "identity survives the handoff");

        // Drop path (what `drop(cpu)` triggers via the boxed sink).
        let (mut c, handle) = test_collector(6);
        let (s, stack) = cycles_sample(11, 0);
        c.on_sample(&s, &stack);
        drop(c);
        let p = handle.take();
        assert_eq!(p.tid, 6);
        assert_eq!(p.samples, 1);

        // Flush-then-drop does not double count.
        let (mut c, handle) = test_collector(7);
        let (s, stack) = cycles_sample(12, 0);
        c.on_sample(&s, &stack);
        c.flush();
        drop(c);
        assert_eq!(handle.take().samples, 1);
    }

    #[test]
    fn deep_contexts_truncate_counted_keeping_the_leaf() {
        let (mut c, handle) = test_collector(0);
        let stack: Vec<Frame> = (0..2 * SCRATCH_CAP as u32)
            .map(|i| Frame {
                func: FuncId(i),
                callsite: Ip::new(FuncId(i.saturating_sub(1)), 1),
            })
            .collect();
        let (sample, _) = cycles_sample(7, 0);
        c.on_sample(&sample, &stack);
        c.flush();
        let p = handle.take();
        assert_eq!(p.samples, 1);
        // The deepest retained node is the leaf statement, sitting exactly
        // at the capped depth.
        let leaf = p
            .cct
            .find(|k| matches!(k, NodeKey::Stmt { .. }))
            .expect("leaf statement survives truncation");
        assert_eq!(p.cct.path_to(leaf).len(), SCRATCH_CAP);
    }

    #[test]
    fn hub_recovers_poisoned_lock() {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(1));
        hub.publish(&delta(0, 10, 5, 1));
        // Poison the state mutex by panicking while holding it.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = hub.state.lock().unwrap();
            panic!("poison the hub");
        }));
        assert!(caught.is_err());
        assert!(hub.state.is_poisoned());
        // Every entry point recovers instead of propagating the panic.
        hub.publish(&delta(1, 11, 7, 2));
        assert_eq!(hub.latest().profile.samples, 15);
        assert_eq!(hub.history().len(), 2);
        assert_eq!(hub.trend().rows.len(), 2);
        assert_eq!(hub.window().expect("two epochs").w, 7);
        assert_eq!(hub.delta_since(1).profile.samples, 9);
    }

    #[test]
    fn collector_slot_recovers_poisoned_lock() {
        let (mut c, handle) = test_collector(3);
        let (s, stack) = cycles_sample(10, 0);
        c.on_sample(&s, &stack);
        let slot = Arc::clone(&c.slot);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = slot.lock().unwrap();
            panic!("poison the slot");
        }));
        assert!(caught.is_err());
        assert!(slot.is_poisoned());
        c.flush();
        assert_eq!(handle.take().samples, 1, "flush recovered the lock");
    }

    #[test]
    fn snapshot_policy_boundaries() {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(3));
        let mut link = HubLink {
            hub: Arc::clone(&hub),
            samples_since_flush: 0,
            last_flush_tsc: 0,
        };
        let due: Vec<bool> = (0..7).map(|_| link.due(0)).collect();
        assert_eq!(due, [false, false, true, false, false, true, false]);

        let hub = SnapshotHub::new(SnapshotPolicy::EveryCycles(100));
        let mut link = HubLink {
            hub,
            samples_since_flush: 0,
            last_flush_tsc: 0,
        };
        assert!(!link.due(99));
        assert!(link.due(130));
        assert!(!link.due(200));
        assert!(link.due(231));

        // Degenerate intervals are clamped, not division-by-zero footguns.
        assert_eq!(
            SnapshotHub::new(SnapshotPolicy::EverySamples(0)).policy(),
            SnapshotPolicy::EverySamples(1)
        );
    }
}
