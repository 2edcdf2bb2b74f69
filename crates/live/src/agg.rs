//! Fleet-scale profile aggregation: one pane of glass over N instances.
//!
//! Each profiled serving process runs its own [`crate::LiveServer`]; the
//! aggregator follows them all. A follower per instance polls
//! `/delta?since=N` (the epoch-delta export — only activity after the last
//! absorbed epoch travels), absorbs the chunks into a per-instance
//! [`Profile`], and the pane merges those into one fleet CCT on demand.
//!
//! Two realities of a fleet shape the design:
//!
//! * **Instances restart.** A restarted process starts back at epoch 0, so
//!   a follower that knew epoch N suddenly sees a hub behind it. The hub
//!   answers such polls with a `kind=full` chunk and the follower replaces
//!   (not accumulates) its copy — counted in [`InstanceStatus::resyncs`].
//! * **Func-id spaces diverge.** Every process interns functions in
//!   first-touch order, so id 7 here is not id 7 there. The fleet merge
//!   rewrites every instance profile into a fleet id space keyed by
//!   *function name* ([`Profile::remap_funcs`]), then merges CCTs with the
//!   same root-to-node path alignment `repro diff` uses ([`Cct::merge`]
//!   matches by path key). Ids that never got a name record fall back to a
//!   synthetic `inst{i}:func{id}` name: never mis-merged across instances,
//!   still distinguishable in the flamegraph.
//!
//! Everything is std-only: polling and the pane both go through the
//! shared [`crate::http`] plane, like [`crate::LiveServer`].

use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use obs::Counter;
use txsampler::store::{self, DeltaChunk, FuncNames};
use txsampler::{report, Profile};
use txsim_pmu::FuncId;

use crate::http::{self, http_get, json_escape, Request, Response, NOT_FOUND};
use crate::prometheus::{family, scalars, shares};

/// Thread-id stride separating instances in the fleet-merged profile's
/// per-thread summaries: instance `i`'s thread `t` appears as
/// `i * TID_STRIDE + t`.
const TID_STRIDE: usize = 1 << 20;

/// Ceiling for the per-instance poll backoff: after repeated failures a
/// dead instance is retried every `MAX_BACKOFF_POLLS` poll rounds at most,
/// so a fleet of corpses costs almost nothing yet recovery is never more
/// than one bounded window away.
const MAX_BACKOFF_POLLS: u32 = 32;

/// One followed instance: its identity, its absorbed state, and the
/// follower's health bookkeeping.
#[derive(Debug)]
struct Instance {
    /// The `host:port` string as given on the command line (label value).
    target: String,
    /// Resolved address polls connect to.
    addr: SocketAddr,
    /// Absorbed profile, still in the instance's own func-id space.
    profile: Profile,
    /// Func-name records received so far (instance id → name).
    funcs: FuncNames,
    /// Last epoch absorbed; the next poll asks for `since=epoch`.
    epoch: u64,
    /// Polls attempted.
    polls: u64,
    /// Polls that failed (connect/parse error); the previous state is kept.
    errors: u64,
    /// Full resyncs after the initial sync (instance restart or lag).
    resyncs: u64,
    /// Delta-chunk bytes transferred so far.
    delta_bytes: u64,
    /// Whether the most recent poll succeeded.
    healthy: bool,
    /// The most recent poll error, if any.
    last_error: Option<String>,
    /// Consecutive failed polls (drives the backoff window; reset on
    /// success).
    consecutive_errors: u32,
    /// Poll rounds left to skip before retrying this instance.
    skip_polls: u32,
    /// Poll rounds skipped due to backoff, in total.
    backoffs: u64,
}

impl Instance {
    fn new(target: String, addr: SocketAddr) -> Instance {
        Instance {
            target,
            addr,
            profile: Profile::default(),
            funcs: FuncNames::new(),
            epoch: 0,
            polls: 0,
            errors: 0,
            resyncs: 0,
            delta_bytes: 0,
            healthy: false,
            last_error: None,
            consecutive_errors: 0,
            skip_polls: 0,
            backoffs: 0,
        }
    }

    /// Fold one delta chunk into this instance's absorbed state. A `full`
    /// chunk replaces the copy (the hub could not serve incrementally:
    /// instance restart, or the follower lagged past the retained window).
    fn absorb(&mut self, chunk: &DeltaChunk) {
        if chunk.full {
            if self.polls > 1 || self.epoch > 0 {
                self.resyncs += 1;
                obs::count(Counter::AggResyncs);
            }
            self.profile = chunk.profile.clone();
            self.funcs = chunk.funcs.clone();
        } else {
            self.profile.absorb_profile(&chunk.profile, 0);
            self.funcs
                .extend(chunk.funcs.iter().map(|(id, name)| (*id, name.clone())));
        }
        self.epoch = chunk.to;
    }
}

/// A point-in-time health row for one followed instance, as served on
/// `/instances`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceStatus {
    /// Index of the instance in the `--follow` list.
    pub index: usize,
    /// The `host:port` the follower polls.
    pub target: String,
    /// Whether the most recent poll succeeded.
    pub healthy: bool,
    /// Last epoch absorbed from this instance.
    pub epoch: u64,
    /// Samples absorbed so far.
    pub samples: u64,
    /// Polls attempted.
    pub polls: u64,
    /// Polls that failed.
    pub errors: u64,
    /// Full resyncs after the initial sync.
    pub resyncs: u64,
    /// Delta-chunk bytes transferred.
    pub delta_bytes: u64,
    /// Poll rounds skipped so far because the instance was backing off.
    pub backoffs: u64,
    /// Poll rounds left before the follower retries this instance
    /// (0 = polling normally).
    pub backoff_remaining: u64,
    /// Most recent poll error, if the instance is unhealthy.
    pub last_error: Option<String>,
}

/// The fleet aggregator: follower state for N instances plus the merge.
///
/// [`Aggregator::poll_all`] advances every follower by one poll;
/// [`Aggregator::fleet`] produces the merged profile on demand. The two
/// are decoupled so the HTTP pane always answers from absorbed state and
/// never blocks on a slow instance.
pub struct Aggregator {
    instances: Mutex<Vec<Instance>>,
}

impl Aggregator {
    /// Lock the instance table, recovering from poisoning. A panic on a
    /// poll or render thread must not permanently brick the fleet pane:
    /// the absorbed state is additive and every per-instance update is
    /// field-local, so the worst a recovered guard can observe is one
    /// instance's half-advanced bookkeeping — strictly better than
    /// serving errors forever. Each recovery is counted.
    fn lock_instances(&self) -> std::sync::MutexGuard<'_, Vec<Instance>> {
        obs::recover(self.instances.lock(), Counter::AggLockRecoveries)
    }

    /// Create an aggregator following `targets` (each `host:port`).
    /// Resolution failures are reported immediately — a typo in the fleet
    /// list should not surface as an eternally-unhealthy follower.
    pub fn new(targets: &[String]) -> io::Result<Aggregator> {
        let mut instances = Vec::with_capacity(targets.len());
        for target in targets {
            let addr = target.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("{target}: no address"))
            })?;
            instances.push(Instance::new(target.clone(), addr));
        }
        if instances.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no instances to follow",
            ));
        }
        Ok(Aggregator {
            instances: Mutex::new(instances),
        })
    }

    /// Poll every followed instance once, absorbing whatever each returns.
    /// A failed poll marks the instance unhealthy, keeps its previous
    /// state, and opens an exponentially growing (but bounded) backoff
    /// window of skipped rounds, so a dead instance does not tax the loop;
    /// the next attempted poll retries from the same epoch.
    /// The lock is held to pick the due instances and to book each result,
    /// never across a poll, which can block for [`http_get`]'s timeouts.
    pub fn poll_all(&self) {
        let due: Vec<(usize, SocketAddr, u64)> = self
            .lock_instances()
            .iter_mut()
            .enumerate()
            .filter_map(|(index, inst)| {
                if inst.skip_polls > 0 {
                    inst.skip_polls -= 1;
                    inst.backoffs += 1;
                    obs::count(Counter::AggBackoffs);
                    return None;
                }
                inst.polls += 1;
                obs::count(Counter::AggPolls);
                Some((index, inst.addr, inst.epoch))
            })
            .collect();
        for (index, addr, since) in due {
            let result = poll_delta(addr, since);
            let mut instances = self.lock_instances();
            let inst = &mut instances[index];
            match result {
                Ok((bytes, chunk)) => {
                    inst.delta_bytes += bytes as u64;
                    // A concurrent `poll_all` may have absorbed this range
                    // while the lock was released; twice would double-count.
                    if inst.epoch == since {
                        inst.absorb(&chunk);
                    }
                    inst.healthy = true;
                    inst.last_error = None;
                    inst.consecutive_errors = 0;
                }
                Err(e) => {
                    inst.errors += 1;
                    inst.healthy = false;
                    inst.last_error = Some(e.to_string());
                    inst.consecutive_errors += 1;
                    // 1, 3, 7, 15, 31, 31, ... skipped rounds.
                    inst.skip_polls =
                        (1u32 << inst.consecutive_errors.min(5)).min(MAX_BACKOFF_POLLS) - 1;
                }
            }
        }
    }

    /// Health rows for every followed instance, in `--follow` order.
    pub fn statuses(&self) -> Vec<InstanceStatus> {
        let instances = self.lock_instances();
        instances
            .iter()
            .enumerate()
            .map(|(index, inst)| InstanceStatus {
                index,
                target: inst.target.clone(),
                healthy: inst.healthy,
                epoch: inst.epoch,
                samples: inst.profile.samples,
                polls: inst.polls,
                errors: inst.errors,
                resyncs: inst.resyncs,
                delta_bytes: inst.delta_bytes,
                backoffs: inst.backoffs,
                backoff_remaining: inst.skip_polls as u64,
                last_error: inst.last_error.clone(),
            })
            .collect()
    }

    /// One instance's absorbed profile and names (for `/flamegraph?instance=i`).
    pub fn instance_profile(&self, index: usize) -> Option<(Profile, FuncNames)> {
        let instances = self.lock_instances();
        instances
            .get(index)
            .map(|inst| (inst.profile.clone(), inst.funcs.clone()))
    }

    /// The fleet-merged profile: every instance rewritten into a shared
    /// name-keyed func-id space, then CCT-merged by path (the same
    /// alignment `repro diff` uses). Thread summaries are offset by
    /// [`TID_STRIDE`] per instance so per-thread rows stay attributable.
    pub fn fleet(&self) -> (Profile, FuncNames) {
        let instances = self.lock_instances();
        let mut fleet_names = FuncNames::new();
        let mut by_name: std::collections::HashMap<String, FuncId> =
            std::collections::HashMap::new();
        let mut next_id = 1u32;
        let mut fleet = Profile::default();
        for (i, inst) in instances.iter().enumerate() {
            let mut map = |id: FuncId| -> FuncId {
                if id == FuncId::UNKNOWN {
                    return FuncId::UNKNOWN;
                }
                // Name-keyed: same name anywhere in the fleet → same fleet
                // id. Unnamed ids get a synthetic per-instance name so two
                // instances' unnamed id 7 never falsely merge.
                let name = inst
                    .funcs
                    .get(&id.0)
                    .cloned()
                    .unwrap_or_else(|| format!("inst{i}:func{}", id.0));
                *by_name.entry(name.clone()).or_insert_with(|| {
                    let fid = FuncId(next_id);
                    next_id += 1;
                    fleet_names.insert(fid.0, name);
                    fid
                })
            };
            let remapped = inst.profile.remap_funcs(&mut map);
            fleet.absorb_profile(&remapped, i * TID_STRIDE);
        }
        (fleet, fleet_names)
    }
}

/// Issue one `/delta?since=N` poll and parse the chunk. Returns the body
/// size too, so the follower can account transfer volume.
fn poll_delta(addr: SocketAddr, since: u64) -> io::Result<(usize, DeltaChunk)> {
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let (status, body) = http_get(addr, &format!("/delta?since={since}"))?;
    if !status.contains("200") {
        return Err(invalid(format!("/delta returned {status}")));
    }
    let chunk = store::load_delta(&body).map_err(|e| invalid(e.to_string()))?;
    Ok((body.len(), chunk))
}

/// Render the fleet Prometheus exposition: fleet totals plus one labeled
/// series per instance, so a dashboard can show both the aggregate and the
/// outlier.
pub fn render_fleet_metrics(agg: &Aggregator) -> String {
    let (fleet, _) = agg.fleet();
    let statuses = agg.statuses();
    let totals = fleet.totals();
    let mut out = String::new();

    let healthy = statuses.iter().filter(|s| s.healthy).count();
    scalars(
        &mut out,
        &[
            (
                "txsampler_fleet_instances",
                "gauge",
                "Instances the aggregator follows (healthy = most recent poll succeeded).",
                statuses.len() as u64,
            ),
            (
                "txsampler_fleet_instances_healthy",
                "gauge",
                "Followed instances whose most recent poll succeeded.",
                healthy as u64,
            ),
            (
                "txsampler_fleet_samples_total",
                "counter",
                "PMU samples absorbed across the whole fleet.",
                fleet.samples,
            ),
            (
                "txsampler_fleet_cycles_total",
                "counter",
                "Sampled work cycles (W) across the whole fleet.",
                totals.w,
            ),
            (
                "txsampler_fleet_commits_total",
                "counter",
                "Sampled RTM commit events across the whole fleet.",
                totals.commit_samples,
            ),
            (
                "txsampler_fleet_aborts_total",
                "counter",
                "Sampled application-caused RTM abort events across the whole fleet.",
                totals.abort_samples,
            ),
        ],
    );

    shares(
        &mut out,
        "txsampler_fleet_cycle_share",
        "Share of sampled cycles per time component, fleet-wide.",
        &fleet.time_breakdown(),
    );

    type Series = fn(&InstanceStatus) -> u64;
    let per_instance: [(&str, &str, &str, Series); 8] = [
        (
            "txsampler_instance_up",
            "gauge",
            "Whether the most recent poll of this instance succeeded.",
            |s| s.healthy as u64,
        ),
        (
            "txsampler_instance_samples_total",
            "counter",
            "PMU samples absorbed from this instance.",
            |s| s.samples,
        ),
        (
            "txsampler_instance_epoch",
            "counter",
            "Last snapshot epoch absorbed from this instance.",
            |s| s.epoch,
        ),
        (
            "txsampler_instance_polls_total",
            "counter",
            "Delta polls attempted against this instance.",
            |s| s.polls,
        ),
        (
            "txsampler_instance_poll_errors_total",
            "counter",
            "Delta polls that failed against this instance.",
            |s| s.errors,
        ),
        (
            "txsampler_instance_resyncs_total",
            "counter",
            "Full resyncs performed for this instance (restart or lag).",
            |s| s.resyncs,
        ),
        (
            "txsampler_instance_delta_bytes_total",
            "counter",
            "Delta-chunk bytes transferred from this instance.",
            |s| s.delta_bytes,
        ),
        (
            "txsampler_instance_backoffs_total",
            "counter",
            "Poll rounds skipped for this instance while backing off after failures.",
            |s| s.backoffs,
        ),
    ];
    for (name, kind, help, get) in per_instance {
        family(&mut out, name, kind, help);
        for s in &statuses {
            let _ = writeln!(
                out,
                "{name}{{instance=\"{}\",target=\"{}\"}} {}",
                s.index,
                s.target,
                get(s)
            );
        }
    }
    out
}

/// Render the `/instances` JSON health document.
pub fn render_instances_json(agg: &Aggregator) -> String {
    let statuses = agg.statuses();
    let mut out = String::from("[");
    for (i, s) in statuses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                "{{\"instance\":{},\"target\":\"{}\",\"healthy\":{},",
                "\"epoch\":{},\"samples\":{},\"polls\":{},\"errors\":{},",
                "\"resyncs\":{},\"delta_bytes\":{},\"backoffs\":{},",
                "\"backoff_remaining\":{},\"last_error\":{}}}"
            ),
            s.index,
            s.target,
            s.healthy,
            s.epoch,
            s.samples,
            s.polls,
            s.errors,
            s.resyncs,
            s.delta_bytes,
            s.backoffs,
            s.backoff_remaining,
            match &s.last_error {
                Some(e) => format!("\"{}\"", json_escape(e)),
                None => "null".to_string(),
            },
        );
    }
    out.push_str("]\n");
    out
}

/// Handle to a running fleet-aggregation server: a poll loop following the
/// instances plus an HTTP pane serving the merged view. Dropping it (or
/// calling [`AggServer::shutdown`]) stops both threads.
#[derive(Debug)]
pub struct AggServer(http::ServerHandle);

impl AggServer {
    /// Bind `127.0.0.1:port` (0 picks an ephemeral port), start polling
    /// `targets` every `poll_interval`, and serve the fleet pane.
    pub fn start(targets: &[String], port: u16, poll_interval: Duration) -> io::Result<AggServer> {
        let agg = Arc::new(Aggregator::new(targets)?);
        let started = Instant::now();
        let pane = Arc::clone(&agg);
        let mut handle = http::serve("txsampler-agg-http", port, move |request| {
            route(request, &pane, started)
        })?;
        handle.spawn_beside("txsampler-agg-poll", move |stop| {
            while !stop.load(Ordering::SeqCst) {
                agg.poll_all();
                // Shutdown unparks, so a long interval does not delay it.
                std::thread::park_timeout(poll_interval);
            }
        })?;
        Ok(AggServer(handle))
    }

    /// The bound address of the fleet pane (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// Stop polling and serving; joins both threads.
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }
}

fn route(request: &Request<'_>, agg: &Aggregator, started: Instant) -> Response {
    // Only /flamegraph takes a parameter; the other routes ignore the
    // query string, as `LiveServer`'s do.
    match request.path {
        "/healthz" => {
            let statuses = agg.statuses();
            let healthy = statuses.iter().filter(|s| s.healthy).count();
            Response::json(format!(
                "{{\"status\":\"ok\",\"instances\":{},\"healthy\":{},\"uptime_ms\":{}}}\n",
                statuses.len(),
                healthy,
                started.elapsed().as_millis(),
            ))
        }
        "/metrics" => Response::prometheus(render_fleet_metrics(agg)),
        "/instances" => Response::json(render_instances_json(agg)),
        "/flamegraph" => flamegraph(agg, request).unwrap_or_else(|refusal| refusal),
        _ => Response::error(
            NOT_FOUND,
            "not found; try /healthz, /metrics, /instances, /flamegraph[?instance=i]\n",
        ),
    }
}

/// `?instance=i` drills into one instance's own profile (its own func-id
/// space); bare `/flamegraph` is the fleet merge.
fn flamegraph(agg: &Aggregator, request: &Request<'_>) -> Result<Response, Response> {
    let [instance] = request.params::<usize, 1>(["instance"], "an index")?;
    let (profile, names) = match instance {
        Some(i) => agg.instance_profile(i).ok_or_else(|| {
            Response::error(NOT_FOUND, format!("no instance {i}; see /instances\n"))
        })?,
        None => agg.fleet(),
    };
    Ok(Response::text(report::render_folded_names(
        &profile, &names,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsampler::cct::{NodeKey, ROOT};
    use txsampler::profile::ThreadSummary;
    use txsampler::{Metrics, TimeComponent};
    use txsim_pmu::Ip;

    /// A one-function profile fragment: `name` at line 1, `w` cycles.
    fn fragment(func: u32, w: u64) -> Profile {
        let mut p = Profile::default();
        let n = p.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(FuncId(func), 1),
                speculative: false,
            },
        );
        for _ in 0..w {
            p.cct.metrics_mut(n).add_cycles_sample(TimeComponent::Tx);
        }
        p.samples = w;
        p.threads.push(ThreadSummary {
            tid: 0,
            totals: Metrics {
                w,
                ..Metrics::default()
            },
            sites: Default::default(),
        });
        p
    }

    fn chunk(
        since: u64,
        to: u64,
        full: bool,
        profile: Profile,
        funcs: &[(u32, &str)],
    ) -> DeltaChunk {
        DeltaChunk {
            since,
            to,
            full,
            profile,
            funcs: funcs
                .iter()
                .map(|(id, name)| (*id, name.to_string()))
                .collect(),
        }
    }

    fn test_agg(n: usize) -> Aggregator {
        let targets: Vec<String> = (0..n).map(|i| format!("127.0.0.1:{}", 4000 + i)).collect();
        Aggregator::new(&targets).expect("loopback targets resolve")
    }

    #[test]
    fn follower_absorbs_increments_and_resyncs_on_full() {
        let mut inst = Instance::new("a:1".into(), "127.0.0.1:1".parse().unwrap());
        // Initial sync: incremental from 0.
        inst.polls = 1;
        inst.absorb(&chunk(0, 2, false, fragment(1, 5), &[(1, "f")]));
        assert_eq!(inst.epoch, 2);
        assert_eq!(inst.profile.samples, 5);
        assert_eq!(inst.resyncs, 0);

        // Steady state: only the delta arrives, state accumulates.
        inst.polls = 2;
        inst.absorb(&chunk(2, 3, false, fragment(2, 3), &[(2, "g")]));
        assert_eq!(inst.epoch, 3);
        assert_eq!(inst.profile.samples, 8);
        assert_eq!(inst.funcs.len(), 2);
        assert_eq!(inst.resyncs, 0);

        // Instance restarted: a full chunk replaces, does not accumulate.
        inst.polls = 3;
        inst.absorb(&chunk(0, 1, true, fragment(1, 2), &[(1, "f")]));
        assert_eq!(inst.epoch, 1);
        assert_eq!(inst.profile.samples, 2, "full chunk replaces the copy");
        assert_eq!(
            inst.funcs.len(),
            1,
            "names from the old incarnation dropped"
        );
        assert_eq!(inst.resyncs, 1);
    }

    #[test]
    fn initial_full_sync_is_not_counted_as_resync() {
        let mut inst = Instance::new("a:1".into(), "127.0.0.1:1".parse().unwrap());
        inst.polls = 1;
        // First contact with a long-running instance: the hub's delta
        // window no longer reaches epoch 0, so the first chunk is full.
        inst.absorb(&chunk(0, 500, true, fragment(1, 9), &[(1, "f")]));
        assert_eq!(inst.resyncs, 0, "first sync is expected to be full");
        assert_eq!(inst.epoch, 500);
    }

    #[test]
    fn fleet_merges_same_names_and_separates_unnamed() {
        let agg = test_agg(2);
        {
            let mut instances = agg.instances.lock().unwrap();
            // Instance 0: "shared" is id 1. Instance 1: "shared" is id 9 —
            // divergent id spaces, same function.
            instances[0].absorb(&chunk(0, 1, false, fragment(1, 4), &[(1, "shared")]));
            instances[1].absorb(&chunk(0, 1, false, fragment(9, 6), &[(9, "shared")]));
            // Instance 1 also has an unnamed function.
            instances[1].absorb(&chunk(1, 2, false, fragment(7, 2), &[]));
        }
        let (fleet, names) = agg.fleet();
        assert_eq!(fleet.samples, 12);
        assert_eq!(fleet.totals().w, 12);
        // "shared" merged into ONE node; the unnamed func kept separate
        // under a synthetic per-instance name.
        let folded = report::render_folded_names(&fleet, &names);
        assert!(folded.contains("shared:1 10"), "folded:\n{folded}");
        assert!(folded.contains("inst1:func7:1 2"), "folded:\n{folded}");
        // Thread summaries are tid-offset per instance.
        let tids: Vec<usize> = fleet.threads.iter().map(|t| t.tid).collect();
        assert_eq!(tids, vec![0, TID_STRIDE]);
    }

    #[test]
    fn fleet_metrics_expose_totals_and_per_instance_series() {
        let agg = test_agg(2);
        {
            let mut instances = agg.instances.lock().unwrap();
            instances[0].absorb(&chunk(0, 1, false, fragment(1, 4), &[(1, "f")]));
            instances[0].healthy = true;
            instances[1].absorb(&chunk(0, 3, false, fragment(1, 6), &[(1, "f")]));
        }
        let text = render_fleet_metrics(&agg);
        assert!(text.contains("txsampler_fleet_instances 2"));
        assert!(text.contains("txsampler_fleet_instances_healthy 1"));
        assert!(text.contains("txsampler_fleet_samples_total 10"));
        assert!(text.contains(
            "txsampler_instance_samples_total{instance=\"0\",target=\"127.0.0.1:4000\"} 4"
        ));
        assert!(text.contains(
            "txsampler_instance_samples_total{instance=\"1\",target=\"127.0.0.1:4001\"} 6"
        ));
        assert!(
            text.contains("txsampler_instance_epoch{instance=\"1\",target=\"127.0.0.1:4001\"} 3")
        );
        assert!(text.contains("txsampler_instance_up{instance=\"0\",target=\"127.0.0.1:4000\"} 1"));
        assert!(text.contains("txsampler_instance_up{instance=\"1\",target=\"127.0.0.1:4001\"} 0"));

        let json = render_instances_json(&agg);
        assert!(json.starts_with("[{\"instance\":0,"));
        assert!(json.contains("\"target\":\"127.0.0.1:4001\""));
        assert!(json.contains("\"last_error\":null"));
    }

    #[test]
    fn fleet_metrics_are_pinned() {
        let agg = test_agg(2);
        {
            let mut instances = agg.instances.lock().unwrap();
            let mut mixed = fragment(1, 4);
            let n = mixed.cct.child(
                ROOT,
                NodeKey::Stmt {
                    ip: Ip::new(FuncId(2), 7),
                    speculative: false,
                },
            );
            for component in [
                TimeComponent::Outside,
                TimeComponent::Outside,
                TimeComponent::Fallback,
                TimeComponent::LockWaiting,
                TimeComponent::Overhead,
            ] {
                mixed.cct.metrics_mut(n).add_cycles_sample(component);
            }
            let m = mixed.cct.metrics_mut(n);
            m.commit_samples = 3;
            m.abort_samples = 2;
            mixed.samples += 10;
            instances[0].absorb(&chunk(0, 1, false, mixed, &[(1, "f"), (2, "g")]));
            instances[0].healthy = true;
            instances[0].polls = 4;
            instances[0].delta_bytes = 912;
            instances[1].absorb(&chunk(0, 3, false, fragment(1, 6), &[(1, "f")]));
            instances[1].polls = 7;
            instances[1].errors = 2;
            instances[1].resyncs = 1;
            instances[1].backoffs = 3;
        }
        let got = render_fleet_metrics(&agg);
        let path = format!(
            "{}/tests/golden/fleet_metrics.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(&path, &got).expect("write golden");
            return;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with BLESS=1 to create)"));
        assert_eq!(got, want, "fleet exposition drifted from its golden");
    }

    #[test]
    fn dead_instances_back_off_exponentially_but_bounded() {
        // Nothing listens on the test ports: every attempted poll fails
        // fast with connection-refused.
        let agg = test_agg(1);
        const ROUNDS: u64 = 100;
        for _ in 0..ROUNDS {
            agg.poll_all();
        }
        let s = &agg.statuses()[0];
        assert!(!s.healthy);
        assert_eq!(s.polls, s.errors, "every attempted poll failed");
        assert_eq!(
            s.polls + s.backoffs,
            ROUNDS,
            "every round either polls or backs off"
        );
        // Exponential backoff sheds almost all of the rounds (1+3+7+15+31
        // skipped before the cap, then every 32nd round retries)...
        assert!(s.polls <= 10, "dead instance polled {} times", s.polls);
        // ...but the window is bounded: the instance is always retried
        // again within MAX_BACKOFF_POLLS rounds.
        assert!(s.backoff_remaining < MAX_BACKOFF_POLLS as u64);
        let json = render_instances_json(&agg);
        assert!(json.contains("\"backoffs\":"), "json: {json}");
        let metrics = render_fleet_metrics(&agg);
        assert!(
            metrics.contains("txsampler_instance_backoffs_total{instance=\"0\""),
            "metrics: {metrics}"
        );
    }

    /// Read one request head off `conn` and return its request line.
    fn request_line(conn: &std::net::TcpStream) -> String {
        use std::io::BufRead;
        let mut lines = std::io::BufReader::new(conn).lines();
        let first = lines.next().expect("a request").expect("readable");
        for line in lines {
            if line.expect("readable").is_empty() {
                break;
            }
        }
        first
    }

    #[test]
    fn truncated_delta_is_an_error_not_a_shorter_chunk() {
        use std::io::Write;
        // Two statements, so dropping the last line leaves a body that
        // still parses — as a chunk with less in it.
        let mut profile = fragment(1, 5);
        profile.absorb_profile(&fragment(2, 3), 0);
        let body = store::save_delta_with_names(&profile, 0, 4, false, &|_| None);
        let cut = body[..body.len() - 1].rfind('\n').expect("several lines") + 1;
        let partial = store::load_delta(&body[..cut]).expect("a line-aligned prefix parses");
        assert_eq!((partial.since, partial.to), (0, 4));

        // A one-shot fake instance per poll: the first dies mid-body, the
        // second answers in full. Both advertise the full length.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let agg = Aggregator::new(&[listener.local_addr().unwrap().to_string()]).unwrap();
        let instance = std::thread::spawn({
            let body = body.clone();
            move || {
                for sent in [cut, body.len()] {
                    let (mut conn, _) = listener.accept().expect("follower connects");
                    assert_eq!(request_line(&conn), "GET /delta?since=0 HTTP/1.1");
                    write!(
                        conn,
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                        body.len(),
                        &body[..sent]
                    )
                    .expect("response sent");
                }
            }
        });

        agg.poll_all();
        let s = &agg.statuses()[0];
        assert_eq!((s.errors, s.healthy), (1, false), "{:?}", s.last_error);
        assert_eq!((s.epoch, s.samples), (0, 0), "nothing absorbed");
        assert!(s.last_error.as_deref().unwrap().contains("body ended"));

        // One backed-off round, then the retry asks from the same epoch
        // and catches up exactly.
        agg.poll_all();
        agg.poll_all();
        instance.join().expect("both polls asked since=0");
        let s = &agg.statuses()[0];
        assert_eq!((s.polls, s.errors, s.healthy), (2, 1, true));
        assert_eq!((s.epoch, s.samples), (4, 8));
        assert_eq!(s.delta_bytes, body.len() as u64);
        assert_eq!(agg.fleet().0.totals().w, 8);
    }

    #[test]
    fn pane_answers_while_a_poll_is_stuck_on_a_silent_instance() {
        // Instance 0 accepts and never answers; instance 1 is dead.
        let black_hole = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let targets = [
            black_hole.local_addr().unwrap().to_string(),
            "127.0.0.1:4000".to_string(),
        ];
        let agg = Arc::new(Aggregator::new(&targets).unwrap());
        let poller = std::thread::spawn({
            let agg = Arc::clone(&agg);
            move || agg.poll_all()
        });
        // Once the request has arrived the poll is parked in its read.
        let (conn, _) = black_hole.accept().expect("follower connects");
        assert_eq!(request_line(&conn), "GET /delta?since=0 HTTP/1.1");

        let asked = Instant::now();
        let statuses = agg.statuses();
        let metrics = render_fleet_metrics(&agg);
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "pane blocked behind the poll for {:?}",
            asked.elapsed()
        );
        assert_eq!(statuses[0].polls, 1, "the poll is booked as in flight");
        assert!(metrics.contains("txsampler_fleet_instances 2"));

        // Hanging up ends the poll: booked as an error, then the round
        // moves on to the next instance.
        drop(conn);
        poller.join().expect("poll round finishes");
        let statuses = agg.statuses();
        assert_eq!((statuses[0].errors, statuses[1].errors), (1, 1));
    }

    #[test]
    fn poisoned_lock_recovers_and_is_counted() {
        let agg = Arc::new(test_agg(1));
        {
            let mut instances = agg.instances.lock().unwrap();
            instances[0].absorb(&chunk(0, 1, false, fragment(1, 4), &[(1, "f")]));
        }
        // Poison the lock: a thread panics while holding the guard.
        let poisoner = Arc::clone(&agg);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.instances.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(agg.instances.lock().is_err(), "lock must be poisoned");

        // Every public entry point recovers instead of panicking, the
        // absorbed state survives, and each recovery is counted.
        obs::set_enabled(true);
        let before = obs::registry().snapshot().get(Counter::AggLockRecoveries);
        let statuses = agg.statuses();
        assert_eq!(statuses[0].samples, 4, "state survives the poisoning");
        let (profile, _) = agg.instance_profile(0).expect("instance 0 exists");
        assert_eq!(profile.samples, 4);
        let (fleet, _) = agg.fleet();
        assert_eq!(fleet.samples, 4);
        agg.poll_all();
        let after = obs::registry().snapshot().get(Counter::AggLockRecoveries);
        obs::set_enabled(false);
        assert!(
            after >= before + 4,
            "four recoveries counted: {before} -> {after}"
        );
    }

    #[test]
    fn aggregator_rejects_empty_and_unresolvable_fleets() {
        assert!(Aggregator::new(&[]).is_err());
        assert!(Aggregator::new(&["not a host:port".into()]).is_err());
    }
}
