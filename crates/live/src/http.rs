//! The one HTTP/1.1 plane both panes ([`crate::LiveServer`],
//! [`crate::AggServer`]) serve from: framing, request limits and the status
//! mapping live here and nowhere else (DESIGN.md, "One HTTP plane"). A pane
//! is a route function `Fn(&Request) -> Response` handed to [`serve`].
//!
//! Serial accept loop on one background thread: the plane is a debugging
//! aid on loopback, scraped by one Prometheus instance or one person with
//! `curl` plus at most one aggregator follower, so concurrency would buy
//! nothing and cost a thread pool. Every response carries `Content-Length`
//! and `Connection: close`, which keeps the protocol state machine trivial
//! (one request per connection). Because the loop is serial, no connection
//! may hold it: the head is read into a fixed buffer under one deadline.
//!
//! Shutdown uses a poison pill: [`ServerHandle::shutdown`] raises a flag
//! and then connects to the listener itself so the blocking `accept` wakes
//! up, observes the flag and returns. No platform-specific socket teardown.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::Counter;

// Constants, not options: the traffic they bound is one scraper and one
// follower on loopback, sending ~60-byte heads.
/// Cap on the request head (request line plus headers).
const MAX_HEAD: usize = 8 * 1024;
/// Overall deadline for receiving the head, measured from accept. Not a
/// per-`read` timeout: a client sending one byte every few seconds resets
/// those forever while the serial loop serves nobody else.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);
/// Per-`write` timeout: a client that stops reading must not park the loop.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// [`http_get`]'s connect and per-`read` timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Status line of a missing route, instance or epoch.
pub(crate) const NOT_FOUND: &str = "404 Not Found";

/// One response: status, content type, body. Framing is [`serve`]'s job.
pub(crate) struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: "200 OK",
            content_type,
            body,
        }
    }

    /// `200` with a plain-text body.
    pub(crate) fn text(body: String) -> Response {
        Response::ok("text/plain; charset=utf-8", body)
    }

    /// `200` with a JSON body.
    pub(crate) fn json(body: String) -> Response {
        Response::ok("application/json; charset=utf-8", body)
    }

    /// `200` with a Prometheus text-exposition body.
    pub(crate) fn prometheus(body: String) -> Response {
        Response::ok("text/plain; version=0.0.4; charset=utf-8", body)
    }

    /// A non-200 `status` line with a one-line plain-text explanation.
    pub(crate) fn error(status: &'static str, message: impl Into<String>) -> Response {
        Response {
            status,
            ..Response::text(message.into())
        }
    }
}

/// One parsed `GET`: the path, and the raw query string after `?`.
pub(crate) struct Request<'a> {
    pub(crate) path: &'a str,
    query: &'a str,
}

impl Request<'_> {
    /// Parse the `k=v&k=v` query against the route's `keys`, one slot per
    /// key in the same order. An unknown key, a pair without `=` or a
    /// value that is not a `T` is the client's error and comes back as a
    /// ready-made `400` (`noun` says what the values should have been).
    pub(crate) fn params<T: FromStr + Copy, const N: usize>(
        &self,
        keys: [&str; N],
        noun: &str,
    ) -> Result<[Option<T>; N], Response> {
        let bad = |message: String| Response::error("400 Bad Request", message);
        let mut values = [None; N];
        for pair in self.query.split('&').filter(|s| !s.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| bad(format!("malformed query parameter {pair:?}\n")))?;
            let slot = keys
                .iter()
                .position(|k| *k == key)
                .ok_or_else(|| bad(format!("unknown query parameter {key:?}\n")))?;
            let value = value
                .parse()
                .map_err(|_| bad(format!("{key} must be {noun}, got {value:?}\n")))?;
            values[slot] = Some(value);
        }
        Ok(values)
    }
}

/// Handle to a running server. Dropping it (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop and joins every
/// thread it owns.
#[derive(Debug)]
pub(crate) struct ServerHandle {
    /// The bound address (useful with port 0).
    pub(crate) addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Bind `127.0.0.1:port` (`port` 0 picks an ephemeral port) and answer
/// every `GET` with `route`, on a background thread called `name`.
pub(crate) fn serve(
    name: &str,
    port: u16,
    route: impl Fn(&Request<'_>) -> Response + Send + 'static,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
    let mut handle = ServerHandle {
        addr: listener.local_addr()?,
        stop: Arc::new(AtomicBool::new(false)),
        threads: Vec::new(),
    };
    handle.spawn_beside(name, move |stop| {
        for stream in listener.incoming().flatten() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // A connection that fails mid-answer is the client's loss (its
            // `Content-Length` check reports the short body); serve the next.
            let _ = handle_connection(stream, &route);
        }
    })?;
    Ok(handle)
}

impl ServerHandle {
    /// Run `work` on one more thread with this server's lifetime: it is
    /// handed the stop flag, and shutdown unparks and joins it.
    pub(crate) fn spawn_beside(
        &mut self,
        name: &str,
        work: impl FnOnce(&AtomicBool) + Send + 'static,
    ) -> io::Result<()> {
        let stop = Arc::clone(&self.stop);
        let spawned = std::thread::Builder::new().name(name.into());
        self.threads.push(spawned.spawn(move || work(&stop))?);
        Ok(())
    }

    /// Stop accepting, wake the accept loop and join the owned threads.
    pub(crate) fn shutdown(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Poison pill: unblock `accept` by connecting to ourselves. If the
        // connect fails the listener is already gone, which is fine.
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads.drain(..) {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    route: &impl Fn(&Request<'_>) -> Response,
) -> io::Result<()> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut buf = [0u8; MAX_HEAD];
    let answer = read_head(&mut stream, &mut buf, deadline)?
        .and_then(parse_request)
        .map(|(method, request)| match method {
            "GET" => route(&request),
            _ => Response::error("405 Method Not Allowed", "only GET is supported\n"),
        });
    let refusal = match answer {
        Ok(response) => return respond(&mut stream, &response),
        Err(refusal) => refusal,
    };
    obs::count(Counter::HttpBadRequests);
    respond(&mut stream, &refusal)?;
    // Closing with input unread makes the kernel reset the connection,
    // which can destroy the answer before the client reads it: half-close,
    // then discard what is in flight for the rest of the deadline.
    stream.shutdown(Shutdown::Write)?;
    while read_before(&mut stream, &mut buf, deadline)? > 0 {}
    Ok(())
}

/// One `read` that cannot outlive `deadline` (`TimedOut` once it passed).
fn read_before(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> io::Result<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(left))?;
    stream.read(buf)
}

/// Read up to the blank line that ends the request head, or say why not:
/// the inner `Err` is the refusal to send.
fn read_head<'b>(
    stream: &mut TcpStream,
    buf: &'b mut [u8; MAX_HEAD],
    deadline: Instant,
) -> io::Result<Result<&'b [u8], Response>> {
    let refuse = |status, message: &str| Ok(Err(Response::error(status, message)));
    let mut len = 0;
    while len < MAX_HEAD {
        let n = match read_before(stream, &mut buf[len..], deadline) {
            // Closed without sending a byte: the poison pill, a port probe.
            Ok(0) if len == 0 => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(0) => return refuse("400 Bad Request", "incomplete request head\n"),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return refuse("408 Request Timeout", "request head not received in time\n")
            }
            Err(e) => return Err(e),
        };
        // The blank line can straddle two reads by up to 2 bytes.
        let fresh = &buf[len.saturating_sub(2)..len + n];
        len += n;
        if fresh.windows(2).any(|w| w == b"\n\n") || fresh.windows(3).any(|w| w == b"\n\r\n") {
            return Ok(Ok(&buf[..len]));
        }
    }
    if buf.contains(&b'\n') {
        refuse("431 Request Header Fields Too Large", "headers too large\n")
    } else {
        refuse("414 URI Too Long", "request line too long\n")
    }
}

/// Split the request line into the method and the [`Request`]; the headers
/// only had to fit (no route reads one).
fn parse_request(head: &[u8]) -> Result<(&str, Request<'_>), Response> {
    let bad = |message: &str| Response::error("400 Bad Request", message);
    let head = std::str::from_utf8(head).map_err(|_| bad("request head is not UTF-8\n"))?;
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(target)) if target.starts_with('/') => {
            let (path, query) = target.split_once('?').unwrap_or((target, ""));
            Ok((method, Request { path, query }))
        }
        _ => Err(bad("malformed request line\n")),
    }
}

fn respond(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Issue one blocking GET against `addr` and return `(status_line, body)`:
/// the follower's and the tests' std-only stand-in for an HTTP client.
///
/// The body must be exactly as long as the response's `Content-Length`: a
/// `txsampler-delta` chunk cut at a line boundary still parses, so the
/// length is the only evidence that the sender finished. A short body is
/// `UnexpectedEof`; a missing, unparsable or exceeded length `InvalidData`.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
    let invalid = |message| io::Error::new(ErrorKind::InvalidData, message);
    let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("no header/body separator"))?;
    let mut lines = head.lines();
    let status = lines.next().unwrap_or("").to_string();
    let length: usize = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .ok_or_else(|| invalid("no usable Content-Length"))?;
    match body.len().cmp(&length) {
        std::cmp::Ordering::Less => Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            format!("body ended at {} of {length} bytes", body.len()),
        )),
        std::cmp::Ordering::Greater => Err(invalid("body longer than Content-Length")),
        std::cmp::Ordering::Equal => Ok((status, body.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::hub_with_one_delta;
    use crate::{AggServer, LiveServer};

    /// Send `request` raw and return the response, read to EOF, as
    /// `(status line, head, body)`.
    fn raw(addr: SocketAddr, request: &[u8]) -> (String, String, String) {
        let mut stream = TcpStream::connect(addr).expect("pane accepts");
        stream
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .expect("timeout set");
        stream.write_all(request).expect("request sent");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response read");
        let (head, body) = response.split_once("\r\n\r\n").expect("head ends");
        let status = head.lines().next().unwrap_or("").to_string();
        (status, head.to_string(), body.to_string())
    }

    /// Every answer, refusals included, is framed the same way.
    fn assert_framed(case: &str, head: &str, body: &str) {
        assert!(head.contains("\r\nConnection: close"), "{case}: {head}");
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap_or_else(|| panic!("{case}: no Content-Length in {head}"));
        assert_eq!(length, body.len().to_string(), "{case}: {head}");
    }

    #[test]
    fn both_panes_conform_to_the_one_wire_policy() {
        let funcs = txsim_pmu::FuncRegistry::new();
        let hub = hub_with_one_delta(&funcs);
        let live = LiveServer::start(hub, funcs, 0).expect("bind ephemeral port");
        let agg = AggServer::start(&[live.addr().to_string()], 0, Duration::from_millis(5))
            .expect("bind ephemeral port");
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(2 * MAX_HEAD));
        let flood = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Filler: yes\r\n".repeat(MAX_HEAD / 8)
        );

        for (pane, addr, routes, route, key) in [
            ("live", live.addr(), "/delta?since=N", "/delta", "since"),
            ("agg", agg.addr(), "/instances", "/flamegraph", "instance"),
        ] {
            let get = |target: String| format!("GET {target} HTTP/1.1\r\n\r\n").into_bytes();
            let table: [(&str, Vec<u8>, &str, &str); 11] = [
                ("scrape", get("/healthz".into()), "200", "\"status\":\"ok\""),
                // Routes without parameters ignore the query; bare LF is fine.
                (
                    "ignored query",
                    b"GET /healthz?x=1 HTTP/1.1\n\n".to_vec(),
                    "200",
                    "\"status\"",
                ),
                (
                    "post",
                    b"POST /healthz HTTP/1.1\r\n\r\n".to_vec(),
                    "405",
                    "only GET",
                ),
                ("unknown path", get("/nope".into()), "404", routes),
                (
                    "unknown key",
                    get(format!("{route}?bogus=1")),
                    "400",
                    "unknown query parameter",
                ),
                (
                    "no value",
                    get(format!("{route}?{key}")),
                    "400",
                    "malformed query parameter",
                ),
                (
                    "bad value",
                    get(format!("{route}?{key}=x")),
                    "400",
                    "must be",
                ),
                (
                    "not text",
                    b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(),
                    "400",
                    "not UTF-8",
                ),
                (
                    "no target",
                    b"GET\r\n\r\n".to_vec(),
                    "400",
                    "malformed request line",
                ),
                (
                    "over-long line",
                    long_line.clone().into_bytes(),
                    "414",
                    "too long",
                ),
                (
                    "header flood",
                    flood.clone().into_bytes(),
                    "431",
                    "too large",
                ),
            ];
            for (case, request, want_status, want_body) in table {
                let case = format!("{pane}: {case}");
                let (status, head, body) = raw(addr, &request);
                assert!(status.contains(want_status), "{case}: {status}");
                assert!(body.contains(want_body), "{case}: {body}");
                assert_framed(&case, &head, &body);
            }

            // A client dribbling its head a byte at a time keeps every
            // single `read` fed but runs into the overall deadline.
            let started = Instant::now();
            let mut dribbler = TcpStream::connect(addr).expect("pane accepts");
            dribbler
                .set_read_timeout(Some(Duration::from_millis(50)))
                .expect("timeout set");
            let mut response = Vec::new();
            let mut chunk = [0u8; 512];
            for byte in b"GET /healthz HTTP/1.1 ".iter().cycle() {
                let _ = dribbler.write_all(&[*byte]);
                match dribbler.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => response.extend_from_slice(&chunk[..n]),
                    Err(_) => assert!(started.elapsed() < 3 * HEAD_DEADLINE, "{pane}: no 408"),
                }
            }
            let elapsed = started.elapsed();
            let response = String::from_utf8(response).expect("refusal is text");
            let (head, body) = response.split_once("\r\n\r\n").expect("head ends");
            assert!(head.starts_with("HTTP/1.1 408"), "{pane}: {head}");
            assert_framed(&format!("{pane}: dribble"), head, body);
            assert!(
                elapsed >= HEAD_DEADLINE && elapsed < 2 * HEAD_DEADLINE,
                "{pane}: refused after {elapsed:?}"
            );
            // ...and the pane serves the next scrape as if nothing happened.
            let (status, _) = http_get(addr, "/metrics").expect("pane still serves");
            assert!(status.contains("200"), "{pane}: {status}");
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\tb\nc\"d\\e"), "a\\tb\\nc\\\"d\\\\e");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
