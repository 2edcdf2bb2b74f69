//! The single-instance pane: [`LiveServer`] serves one [`SnapshotHub`]'s
//! snapshots as routes over the shared [`crate::http`] plane (framing,
//! limits and the serial accept loop live there).

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use obs::Counter;
use txsampler::collect::{SnapshotHub, SnapshotPolicy};
use txsampler::{report, store, TIME_COMPONENTS};
use txsim_pmu::FuncRegistry;

use crate::http::{self, json_escape, Request, Response, NOT_FOUND};
use crate::prometheus;

/// Handle to a running live-observability server. Dropping it (or calling
/// [`LiveServer::shutdown`]) stops the accept loop and joins the thread.
#[derive(Debug)]
pub struct LiveServer(http::ServerHandle);

impl LiveServer {
    /// Bind `127.0.0.1:port` (`port` 0 picks an ephemeral port) and serve
    /// the hub's snapshots until shutdown. `funcs` is the registry the
    /// workload interns its functions into — it resolves [`txsim_pmu::FuncId`]s
    /// to names for `/flamegraph` and `/profile.json`.
    pub fn start(hub: Arc<SnapshotHub>, funcs: FuncRegistry, port: u16) -> io::Result<LiveServer> {
        let started = Instant::now();
        http::serve("txsampler-live", port, move |request| {
            route(request, &hub, &funcs, started)
        })
        .map(LiveServer)
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// Stop accepting, wake the accept loop and join the server thread.
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }
}

fn route(
    request: &Request<'_>,
    hub: &SnapshotHub,
    funcs: &FuncRegistry,
    started: Instant,
) -> Response {
    // Only /delta and /diff interpret the query string; the rest ignore it
    // (`/metrics?x=1` scrapes /metrics), as cache-busting scrapers expect.
    match request.path {
        "/healthz" => {
            obs::count(Counter::HttpHealthzRequests);
            // JSON so the fleet aggregator (and a human gauging follower
            // lag) can read the current epoch and snapshot cadence.
            let (policy, interval) = match hub.policy() {
                SnapshotPolicy::EverySamples(n) => ("every_samples", n),
                SnapshotPolicy::EveryCycles(n) => ("every_cycles", n),
            };
            Response::json(format!(
                concat!(
                    "{{\"status\":\"ok\",\"epoch\":{},\"uptime_ms\":{},",
                    "\"snapshot_policy\":\"{}\",\"snapshot_interval\":{}}}\n"
                ),
                hub.epoch(),
                started.elapsed().as_millis(),
                policy,
                interval,
            ))
        }
        "/metrics" => {
            obs::count(Counter::HttpMetricsRequests);
            let view = hub.latest();
            let window = hub.window();
            Response::prometheus(prometheus::render(
                &view,
                window.as_ref(),
                &obs::registry().snapshot(),
            ))
        }
        "/profile.json" => {
            obs::count(Counter::HttpProfileRequests);
            let view = hub.latest();
            let breakdown = view.profile.time_breakdown();
            let components: Vec<String> = TIME_COMPONENTS
                .iter()
                .map(|c| format!("\"{}\":{}", c.key, (c.share)(&breakdown)))
                .collect();
            let store_text = store::save_with_funcs(&view.profile, funcs);
            Response::json(format!(
                concat!(
                    "{{\"epoch\":{},\"samples\":{},\"threads\":{},",
                    "\"breakdown\":{{{}}},\"store\":\"{}\"}}\n"
                ),
                view.epoch,
                view.profile.samples,
                view.profile.threads.len(),
                components.join(","),
                json_escape(&store_text),
            ))
        }
        "/flamegraph" => {
            obs::count(Counter::HttpFlamegraphRequests);
            let view = hub.latest();
            Response::text(report::render_folded_registry(&view.profile, funcs))
        }
        "/diff" => {
            obs::count(Counter::HttpDiffRequests);
            epoch_diff(hub, request).unwrap_or_else(|refusal| refusal)
        }
        "/delta" => {
            obs::count(Counter::HttpDeltaRequests);
            delta(hub, funcs, request).unwrap_or_else(|refusal| refusal)
        }
        "/trend" => {
            obs::count(Counter::HttpTrendRequests);
            let trend = hub.trend();
            let mut body = format!(
                "# epoch\tsamples\tw\tt_tx\tt_fb\tt_wait\tt_oh\tabort_samples\tp99_tx_cycles\ttruncated_rows={}\n",
                trend.truncated
            );
            for row in &trend.rows {
                let t = &row.totals;
                body.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                    row.epoch,
                    row.samples,
                    t.w,
                    t.t_tx,
                    t.t_fb,
                    t.t_wait,
                    t.t_oh,
                    t.abort_samples,
                    row.p99_tx_cycles,
                ));
            }
            Response::text(body)
        }
        _ => {
            obs::count(Counter::HttpOtherRequests);
            Response::error(
                NOT_FOUND,
                "not found; try /healthz, /metrics, /profile.json, /flamegraph, /trend, /delta?since=N, /diff?from=N&to=M\n",
            )
        }
    }
}

/// Answer `/diff?from=N&to=M` from the hub's retained epoch history. Only
/// totals are retained per epoch (no CCTs), so this is a totals-level diff
/// rendered by the same [`txsampler::diff`] code path as `repro diff`.
/// Omitted bounds default to the oldest/newest retained epoch. `Err` is
/// the answer to a client error.
fn epoch_diff(hub: &SnapshotHub, request: &Request<'_>) -> Result<Response, Response> {
    let [from, to] = request.params::<u64, 2>(["from", "to"], "an epoch number")?;
    let not_found = |message: String| Response::error(NOT_FOUND, message);
    let history = hub.history();
    let (Some(oldest), Some(newest)) = (history.first(), history.last()) else {
        return Err(not_found(
            "no epochs retained yet; publish a snapshot first\n".into(),
        ));
    };
    let (oldest, newest) = (oldest.epoch, newest.epoch);
    let lookup = |epoch: u64| history.iter().find(|s| s.epoch == epoch);
    let (Some(a), Some(b)) = (lookup(from.unwrap_or(oldest)), lookup(to.unwrap_or(newest))) else {
        return Err(not_found(format!(
            "epoch not retained; retained range is {oldest}..={newest}\n"
        )));
    };
    let mut body = format!(
        "== live diff: epoch {} (A, {} samples) -> epoch {} (B, {} samples)\n",
        a.epoch, a.samples, b.epoch, b.samples
    );
    body.push_str(&txsampler::diff::render_totals_diff(
        "A", "B", &a.totals, &b.totals,
    ));
    Ok(Response::text(body))
}

/// Answer `/delta?since=N`: everything the hub saw after epoch N,
/// serialized as a `txsampler-delta` chunk (the streamable extension of
/// the store format). `since` omitted or 0 asks for everything; the hub
/// decides whether that is served incrementally or as a full resync.
fn delta(
    hub: &SnapshotHub,
    funcs: &FuncRegistry,
    request: &Request<'_>,
) -> Result<Response, Response> {
    let [since] = request.params::<u64, 1>(["since"], "an epoch number")?;
    let view = hub.delta_since(since.unwrap_or(0));
    let full = matches!(view.kind, txsampler::collect::DeltaKind::Full);
    Ok(Response::text(store::save_delta_with_funcs(
        &view.profile,
        view.since,
        view.to,
        full,
        funcs,
    )))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::http::http_get;
    use txsampler::cct::{NodeKey, ROOT};
    use txsampler::{Periods, ThreadProfile, TimeComponent};
    use txsim_pmu::Ip;

    pub(crate) fn hub_with_one_delta(funcs: &FuncRegistry) -> Arc<SnapshotHub> {
        let hub = SnapshotHub::new(SnapshotPolicy::EverySamples(1));
        let f = funcs.intern("busy_loop", "w.rs", 1);
        let mut delta = ThreadProfile {
            tid: 0,
            periods: Periods::default(),
            ..ThreadProfile::default()
        };
        let frame = delta.cct.child(
            ROOT,
            NodeKey::Frame {
                func: f,
                callsite: Ip::UNKNOWN,
                speculative: false,
            },
        );
        let leaf = delta.cct.child(
            frame,
            NodeKey::Stmt {
                ip: Ip::new(f, 3),
                speculative: false,
            },
        );
        delta
            .cct
            .metrics_mut(leaf)
            .add_cycles_sample(TimeComponent::Tx);
        delta.samples = 1;
        hub.publish(&delta);
        hub
    }

    #[test]
    fn serves_all_endpoints_and_shuts_down_cleanly() {
        let funcs = FuncRegistry::new();
        let hub = hub_with_one_delta(&funcs);
        let mut server =
            LiveServer::start(Arc::clone(&hub), funcs.clone(), 0).expect("bind ephemeral port");
        let addr = server.addr();

        let (status, body) = http_get(addr, "/healthz").unwrap();
        assert!(status.contains("200"), "healthz status: {status}");
        assert!(body.starts_with("{\"status\":\"ok\",\"epoch\":1,"));
        assert!(body.contains("\"uptime_ms\":"));
        assert!(body.contains("\"snapshot_policy\":\"every_samples\",\"snapshot_interval\":1"));

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert!(status.contains("200"));
        assert!(body.contains("txsampler_snapshot_epoch 1"));
        assert!(body.contains("txsampler_cycle_share{component=\"tx\"} 1"));

        let (status, body) = http_get(addr, "/profile.json").unwrap();
        assert!(status.contains("200"));
        assert!(body.starts_with("{\"epoch\":1,"));
        assert!(
            body.contains("\\tbusy_loop"),
            "store text carries func names"
        );

        let (status, body) = http_get(addr, "/flamegraph").unwrap();
        assert!(status.contains("200"));
        assert_eq!(body, "busy_loop;busy_loop:3 1\n");

        let (status, body) = http_get(addr, "/trend").unwrap();
        assert!(status.contains("200"));
        assert!(body.starts_with("# epoch\tsamples"));
        assert!(body.contains("truncated_rows=0"));
        assert!(body.lines().next().unwrap().contains("\tp99_tx_cycles\t"));
        assert!(body.lines().nth(1).unwrap().starts_with("1\t1\t"));
        // Histogram-free publishes report a zero p99 in the last column.
        assert!(body.lines().nth(1).unwrap().ends_with("\t0"));

        let (status, _) = http_get(addr, "/nope").unwrap();
        assert!(status.contains("404"));

        server.shutdown();
        // The port is released: connections are refused (or reset at read).
        assert!(http_get(addr, "/healthz").is_err());
    }

    #[test]
    fn profile_json_breakdown_is_exact() {
        let funcs = FuncRegistry::new();
        let hub = hub_with_one_delta(&funcs);
        let mut delta = ThreadProfile {
            tid: 1,
            periods: Periods::default(),
            ..ThreadProfile::default()
        };
        let leaf = delta.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::UNKNOWN,
                speculative: false,
            },
        );
        for component in [
            TimeComponent::Outside,
            TimeComponent::Outside,
            TimeComponent::Fallback,
            TimeComponent::FallbackStm,
            TimeComponent::LockWaiting,
            TimeComponent::Overhead,
        ] {
            delta.cct.metrics_mut(leaf).add_cycles_sample(component);
        }
        delta.samples = 6;
        hub.publish(&delta);
        let mut server =
            LiveServer::start(Arc::clone(&hub), funcs.clone(), 0).expect("bind ephemeral port");

        let (status, body) = http_get(server.addr(), "/profile.json").unwrap();
        assert!(status.contains("200"));
        assert!(
            body.starts_with(concat!(
                "{\"epoch\":2,\"samples\":7,\"threads\":2,\"breakdown\":{",
                "\"outside\":0.2857142857142857,\"tx\":0.14285714285714285,",
                "\"fallback\":0.2857142857142857,\"lock_waiting\":0.14285714285714285,",
                "\"overhead\":0.14285714285714285},\"store\":\""
            )),
            "profile.json head: {}",
            &body[..body.len().min(240)]
        );
        server.shutdown();
    }

    #[test]
    fn delta_endpoint_serves_incremental_chunks() {
        let funcs = FuncRegistry::new();
        let hub = hub_with_one_delta(&funcs);
        let mut server =
            LiveServer::start(Arc::clone(&hub), funcs.clone(), 0).expect("bind ephemeral port");
        let addr = server.addr();

        // since=0: full sync by content, parseable as a delta chunk that
        // reproduces the cumulative profile — names included.
        let (status, body) = http_get(addr, "/delta?since=0").unwrap();
        assert!(status.contains("200"), "delta status: {status}");
        let chunk = store::load_delta(&body).expect("chunk parses");
        assert_eq!((chunk.since, chunk.to), (0, 1));
        assert!(!chunk.full, "all epochs retained: served incrementally");
        assert_eq!(chunk.profile.samples, 1);
        assert!(chunk.funcs.values().any(|n| n == "busy_loop"));

        // A second epoch: polling from epoch 1 returns only the new
        // activity, and any func names first referenced mid-stream.
        let f2 = funcs.intern("late_func", "w.rs", 9);
        let mut delta = ThreadProfile {
            tid: 1,
            periods: Periods::default(),
            ..ThreadProfile::default()
        };
        let leaf = delta.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::new(f2, 2),
                speculative: false,
            },
        );
        delta
            .cct
            .metrics_mut(leaf)
            .add_cycles_sample(TimeComponent::Tx);
        delta.samples = 1;
        hub.publish(&delta);

        let (status, body) = http_get(addr, "/delta?since=1").unwrap();
        assert!(status.contains("200"));
        let chunk = store::load_delta(&body).expect("incremental chunk parses");
        assert_eq!((chunk.since, chunk.to), (1, 2));
        assert!(!chunk.full);
        assert_eq!(chunk.profile.samples, 1, "only epoch 2's activity");
        assert!(
            chunk.funcs.values().any(|n| n == "late_func"),
            "names arriving mid-stream ride along with the delta"
        );

        // since ahead of the hub (restarted instance): full resync chunk.
        let (status, body) = http_get(addr, "/delta?since=99").unwrap();
        assert!(status.contains("200"));
        let chunk = store::load_delta(&body).expect("resync chunk parses");
        assert!(chunk.full, "epoch regression forces a full resync");
        assert_eq!(chunk.profile.samples, 2);

        // The whole point: an incremental delta is smaller than the full
        // profile download.
        let (_, full_body) = http_get(addr, "/profile.json").unwrap();
        let (_, delta_body) = http_get(addr, "/delta?since=2").unwrap();
        assert!(
            delta_body.len() < full_body.len(),
            "no-news delta ({}) must beat full re-download ({})",
            delta_body.len(),
            full_body.len()
        );

        let (status, body) = http_get(addr, "/delta?since=bogus").unwrap();
        assert!(status.contains("400"), "bad since: {status}");
        assert!(body.contains("epoch number"));

        server.shutdown();
    }

    #[test]
    fn diff_endpoint_compares_retained_epochs() {
        let funcs = FuncRegistry::new();
        let hub = hub_with_one_delta(&funcs);
        // Second epoch: one lock-waiting sample shifts the time mix.
        let mut delta = ThreadProfile {
            tid: 1,
            periods: Periods::default(),
            ..ThreadProfile::default()
        };
        let leaf = delta.cct.child(
            ROOT,
            NodeKey::Stmt {
                ip: Ip::UNKNOWN,
                speculative: false,
            },
        );
        delta
            .cct
            .metrics_mut(leaf)
            .add_cycles_sample(TimeComponent::LockWaiting);
        delta.samples = 1;
        hub.publish(&delta);

        let mut server =
            LiveServer::start(Arc::clone(&hub), funcs.clone(), 0).expect("bind ephemeral port");
        let addr = server.addr();

        let (status, body) = http_get(addr, "/diff?from=1&to=2").unwrap();
        assert!(status.contains("200"), "diff status: {status}");
        assert!(body.starts_with("== live diff: epoch 1 (A, 1 samples) -> epoch 2 (B, 2 samples)"));
        assert!(body.contains("lock-wait"), "share deltas name components");

        // Omitted bounds default to the full retained range.
        let (status, default_body) = http_get(addr, "/diff").unwrap();
        assert!(status.contains("200"));
        assert_eq!(body, default_body);

        let (status, body) = http_get(addr, "/diff?from=99&to=2").unwrap();
        assert!(status.contains("404"), "unretained epoch: {status}");
        assert!(body.contains("retained range is 1..=2"));

        let (status, body) = http_get(addr, "/diff?from=bogus").unwrap();
        assert!(status.contains("400"), "bad epoch: {status}");
        assert!(body.contains("epoch number"));

        server.shutdown();
    }
}
