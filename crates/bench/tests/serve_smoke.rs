//! Serve-mode smoke test (wired into ci.sh): boot `repro serve`'s driver on
//! an ephemeral port, scrape the endpoints with the std-only test client
//! while the workload runs, check the Prometheus exposition is well-formed
//! with cycle shares summing to 1, check the live flamegraph agrees with an
//! offline render of the saved snapshot, and shut down cleanly. On the way
//! it misbehaves once each way a client can (an over-long request line, a
//! connection that never sends its request) and expects the scrapes after
//! it to be unaffected.

use std::io::{Read, Write};
use std::net::TcpStream;

use live::http_get;
use txbench::serve::{serve_start, ServeConfig};
use txbench::ExpConfig;

#[test]
fn serve_session_scrapes_and_shuts_down_cleanly() {
    let out_dir =
        std::env::temp_dir().join(format!("txsampler_serve_smoke_{}", std::process::id()));
    let mut handle = serve_start(ServeConfig {
        experiment: "micro/moderate".to_string(),
        port: 0,
        snapshot_interval: 32,
        rounds: 2,
        exp: ExpConfig::smoke(),
        out_dir: Some(out_dir.clone()),
    })
    .expect("serve session starts on an ephemeral port");
    let addr = handle.addr();

    // Liveness while the workload is (probably still) running. The JSON
    // body carries what an aggregator needs to gauge follower lag.
    let (status, body) = http_get(addr, "/healthz").expect("healthz reachable");
    assert!(status.contains("200 OK"), "healthz: {status}");
    assert!(body.starts_with("{\"status\":\"ok\","), "healthz: {body}");
    assert!(body.contains("\"epoch\":"), "healthz: {body}");
    assert!(
        body.contains("\"snapshot_policy\":\"every_samples\",\"snapshot_interval\":32"),
        "healthz: {body}"
    );

    // The driver publishes deltas as it goes; wait for it to finish so the
    // cumulative snapshot is deterministic for the remaining assertions.
    let outcome = handle.wait_workload().expect("driver joins");
    assert_eq!(outcome.rounds, 2);

    // Two hostile clients ahead of the scrape: one request line far over
    // the cap (refused with 414), and one connection held open without a
    // byte sent, which the server gives up on (408) instead of waiting.
    let mut long = TcpStream::connect(addr).expect("server accepts");
    write!(long, "GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024)).expect("request sent");
    let mut refusal = String::new();
    long.read_to_string(&mut refusal).expect("refusal read");
    assert!(refusal.starts_with("HTTP/1.1 414 "), "over-long: {refusal}");
    drop(long);
    let half_open = TcpStream::connect(addr).expect("server accepts");

    let (status, metrics) = http_get(addr, "/metrics").expect("metrics reachable");
    assert!(status.contains("200 OK"), "metrics: {status}");
    drop(half_open);
    assert!(
        metrics.contains("counter=\"http_bad_requests\"} 2\n"),
        "both refusals are counted"
    );
    // Well-formed exposition: comments are HELP/TYPE, samples are
    // `name[{labels}] value` with parseable float values.
    let mut cycle_share_sum = 0.0;
    let mut sample_lines = 0;
    for line in metrics.lines() {
        if let Some(comment) = line.strip_prefix('#') {
            assert!(
                comment.starts_with(" HELP ") || comment.starts_with(" TYPE "),
                "unexpected comment line: {line}"
            );
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without value: {line}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in: {line}"));
        assert!(!name.is_empty());
        if name.starts_with("txsampler_cycle_share{") {
            cycle_share_sum += value;
        }
        sample_lines += 1;
    }
    assert!(sample_lines > 20, "exposition has substance");
    assert!(
        (cycle_share_sum - 1.0).abs() < 1e-9,
        "cycle shares must sum to 1.0, got {cycle_share_sum}"
    );
    assert!(metrics.contains("txsampler_samples_total "));
    // The hub published at least one snapshot and said so via obs.
    assert!(
        !metrics.contains("counter=\"snapshots_merged\"} 0\n"),
        "live hub self-cost counters must be non-zero in serve mode"
    );

    // The live flamegraph must agree with an offline render of the saved
    // snapshot (what `repro flamegraph results/serve_<exp>.txsp` prints).
    let (status, live_folded) = http_get(addr, "/flamegraph").expect("flamegraph reachable");
    assert!(status.contains("200 OK"));
    assert!(!live_folded.is_empty(), "flamegraph has stacks");
    let saved = std::fs::read_to_string(out_dir.join("serve_micro_moderate.txsp"))
        .expect("serve saved a per-round snapshot");
    let (profile, names) = txsampler::store::load_with_funcs(&saved).expect("saved snapshot loads");
    assert_eq!(
        txsampler::report::render_folded_names(&profile, &names),
        live_folded,
        "offline flamegraph of the saved snapshot must match the live endpoint"
    );

    handle.shutdown();
    assert!(
        http_get(addr, "/healthz").is_err(),
        "server must stop listening after shutdown"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}
