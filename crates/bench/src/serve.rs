//! `tierctl serve-metrics`: a dependency-free Prometheus
//! text-exposition endpoint over `std::net::TcpListener`.
//!
//! The server answers two routes:
//!
//! * `GET /metrics` — the run's metrics in Prometheus text exposition
//!   format 0.0.4 (the body is rendered once, up front, from a
//!   finished [`RunReport`] by [`render_prometheus`]; serving is pure
//!   I/O and touches no simulator state);
//! * `GET /healthz` — `200 ok`, for liveness probes and the CI gate.
//!
//! Everything else is `404`. Connections are `Connection: close` —
//! one request per accept — which keeps the loop allocation-light and
//! trivially correct; scrape intervals are seconds, not microseconds.
//!
//! This is host-domain plumbing: it lives in `pact-bench` (outside the
//! deterministic crates), and the *body* it serves is a pure function
//! of the run report, so two servers over the same report serve
//! byte-identical metrics regardless of host or timing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use pact_tiersim::RunReport;

/// Largest request head (request line + headers) the server reads;
/// anything longer is answered `404` and dropped.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long a single request head may take to arrive. A client that
/// dribbles bytes (or connects and sends nothing) is answered from
/// whatever arrived by the deadline instead of pinning the accept
/// loop forever.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// Content-Type of the Prometheus text exposition format.
const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Rewrites a registry metric name (`channel/slow/occupancy_cycles_p99`)
/// into a Prometheus-legal one (`pact_channel_slow_occupancy_cycles_p99`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("pact_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders `report` as Prometheus text exposition 0.0.4: run totals as
/// counters, the final window's metric snapshot as gauges, every
/// sample labelled `run="label"`. Deterministic: metric order is
/// fixed (totals first, then the snapshot in registration order) and
/// floats use Rust's shortest-roundtrip formatting.
pub fn render_prometheus(label: &str, report: &RunReport) -> String {
    use std::fmt::Write as _;
    let run = prom_label_value(label);
    let mut out = String::new();
    let sample = |out: &mut String, name: &str, kind: &str, help: &str, value: f64| {
        let n = prom_name(name);
        // Invariant: writing to a String cannot fail.
        writeln!(out, "# HELP {n} {help}").unwrap();
        writeln!(out, "# TYPE {n} {kind}").unwrap(); // Invariant: see above
        writeln!(out, "{n}{{run=\"{run}\"}} {value}").unwrap(); // Invariant: see above
    };
    sample(
        &mut out,
        "total_cycles",
        "counter",
        "Total simulated cycles of the run",
        report.total_cycles as f64,
    );
    sample(
        &mut out,
        "promotions",
        "counter",
        "Base pages promoted to the fast tier",
        report.promotions as f64,
    );
    sample(
        &mut out,
        "demotions",
        "counter",
        "Base pages demoted to the slow tier",
        report.demotions as f64,
    );
    sample(
        &mut out,
        "failed_promotions",
        "counter",
        "Promotions rejected for lack of fast-tier capacity",
        report.failed_promotions as f64,
    );
    sample(
        &mut out,
        "dropped_orders",
        "counter",
        "Migration orders shed on daemon-queue overflow",
        report.dropped_orders as f64,
    );
    sample(
        &mut out,
        "windows",
        "counter",
        "Sampling windows recorded",
        report.windows.len() as f64,
    );
    if let Some(w) = report.windows.last() {
        sample(
            &mut out,
            "trace_dropped_events",
            "gauge",
            "Trace events evicted from the ring buffer in the final window",
            w.trace_dropped_events as f64,
        );
        for &(name, value) in &w.metrics {
            sample(
                &mut out,
                name,
                "gauge",
                "Final-window registry metric snapshot",
                value,
            );
        }
    }
    out
}

/// A one-request-per-connection HTTP server over a pre-rendered
/// metrics body.
pub struct MetricsServer {
    listener: TcpListener,
    body: String,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and prepares to
    /// serve `body` at `/metrics`.
    pub fn bind(addr: SocketAddr, body: String) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            body,
        })
    }

    /// The bound address (the resolved port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and answers requests. With `max_requests = Some(n)` the
    /// server exits after `n` connections (the CI self-check and tests
    /// use this); `None` serves until the process dies.
    pub fn serve(&self, max_requests: Option<usize>) -> std::io::Result<()> {
        for (served, stream) in self.listener.incoming().enumerate() {
            match stream {
                Ok(s) => {
                    // A broken client connection is the client's
                    // problem; keep serving.
                    let _ = self.answer(s);
                }
                Err(e) => return Err(e),
            }
            if max_requests.is_some_and(|n| served + 1 >= n) {
                return Ok(());
            }
        }
        Ok(())
    }

    fn answer(&self, mut s: TcpStream) -> std::io::Result<()> {
        s.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut head = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            let budget = MAX_REQUEST_BYTES - head.len();
            if budget == 0 {
                break;
            }
            let want = budget.min(buf.len());
            let n = match s.read(&mut buf[..want]) {
                Ok(n) => n,
                // Deadline passed mid-head: answer from what arrived
                // (an incomplete request line falls through to 404).
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) => return Err(e),
            };
            if n == 0 {
                break;
            }
            head.extend_from_slice(&buf[..n]);
            if head.windows(4).any(|w| w == b"\r\n\r\n") {
                break;
            }
        }
        let line = std::str::from_utf8(&head)
            .unwrap_or("")
            .lines()
            .next()
            .unwrap_or("");
        let mut parts = line.split_whitespace();
        let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        // A head that filled the whole budget without ever reaching the
        // blank-line terminator is rejected outright, even when its
        // first line looks valid: answering it would reward clients
        // that spray unbounded header data.
        let oversized =
            head.len() >= MAX_REQUEST_BYTES && !head.windows(4).any(|w| w == b"\r\n\r\n");
        let (status, ctype, body): (&str, &str, &str) = match (method, path) {
            _ if oversized => ("404 Not Found", "text/plain; charset=utf-8", "not found\n"),
            ("GET", "/metrics") => ("200 OK", PROM_CONTENT_TYPE, &self.body),
            ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n"),
            _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n"),
        };
        write!(
            s,
            "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
        s.flush()?;
        if head.len() >= MAX_REQUEST_BYTES {
            // Lingering close: the client may still be writing the rest
            // of an oversized head. Dropping the socket with unread data
            // pending sends RST, which can discard the response we just
            // wrote before the client reads it. Drain until the client
            // half-closes (bounded by the read timeout set above).
            while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
        }
        Ok(())
    }
}

/// Issues one `GET path` against `addr` and returns `(status_line,
/// body)`. Plain blocking I/O — the in-process client the CI
/// self-check and the tests share.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut s = TcpStream::connect(addr)?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: pact\r\nConnection: close\r\n\r\n"
    )?;
    s.flush()?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)?;
    let status = resp.lines().next().unwrap_or("").to_string();
    let body = match resp.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

/// End-to-end check of a server over `body`: binds an ephemeral
/// loopback port, serves two requests from a helper thread, and
/// verifies `/healthz` and `/metrics` through a real TCP client.
/// Returns the error text on any mismatch.
pub fn self_check(body: String) -> Result<(), String> {
    let expect = body.clone();
    let server = MetricsServer::bind("127.0.0.1:0".parse().map_err(|e| format!("{e}"))?, body)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let handle = std::thread::spawn(move || server.serve(Some(2)));
    let (status, health) = http_get(addr, "/healthz").map_err(|e| format!("healthz: {e}"))?;
    if !status.contains("200") || health != "ok\n" {
        return Err(format!("healthz answered {status:?} {health:?}"));
    }
    let (status, metrics) = http_get(addr, "/metrics").map_err(|e| format!("metrics: {e}"))?;
    if !status.contains("200") || metrics != expect {
        return Err(format!(
            "metrics answered {status:?} ({} bytes, expected {})",
            metrics.len(),
            expect.len()
        ));
    }
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("serve: {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_tiersim::{Access, FirstTouch, Machine, MachineConfig, TraceWorkload, LINE_BYTES};

    fn small_report() -> RunReport {
        let trace: Vec<Access> = (0..20_000u64)
            .map(|i| Access::load((i * 13 % 1_500) * LINE_BYTES))
            .collect();
        let wl = TraceWorkload::new("unit", 1 << 20, trace);
        let mut cfg = MachineConfig::skylake_cxl(64);
        cfg.window_cycles = 20_000;
        let m = Machine::new(cfg).unwrap();
        m.try_run(&wl, &mut FirstTouch::new())
            .expect("run succeeds")
    }

    #[test]
    fn exposition_is_deterministic_and_well_formed() {
        let r = small_report();
        let body = render_prometheus("unit/notier", &r);
        assert_eq!(body, render_prometheus("unit/notier", &r));
        assert!(body.contains("# TYPE pact_total_cycles counter"));
        assert!(body.contains("pact_total_cycles{run=\"unit/notier\"}"));
        assert!(body.contains("pact_mem_fast_used{run=\"unit/notier\"}"));
        assert!(body.contains("pact_pebs_latency_cycles_p99"));
        // Every non-comment line is `name{labels} value`.
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let (name, rest) = line.split_once('{').expect("labelled sample");
            assert!(name.starts_with("pact_"), "{line}");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{line}"
            );
            let (_, value) = rest.rsplit_once(' ').expect("value");
            value.parse::<f64>().expect("numeric sample");
        }
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(prom_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(prom_name("channel/slow/lines"), "pact_channel_slow_lines");
    }

    #[test]
    fn server_answers_metrics_healthz_and_404() {
        let body = "# TYPE pact_x counter\npact_x{run=\"t\"} 1\n".to_string();
        let server = MetricsServer::bind("127.0.0.1:0".parse().unwrap(), body.clone()).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.serve(Some(3)));
        let (status, got) = http_get(addr, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        assert_eq!(got, body);
        let (status, got) = http_get(addr, "/healthz").unwrap();
        assert!(status.contains("200"), "{status}");
        assert_eq!(got, "ok\n");
        let (status, _) = http_get(addr, "/nope").unwrap();
        assert!(status.contains("404"), "{status}");
        t.join().unwrap().unwrap();
    }

    #[test]
    fn self_check_round_trips() {
        let r = small_report();
        self_check(render_prometheus("unit", &r)).unwrap();
    }

    /// Sends `raw` bytes (no well-formed request implied), half-closes
    /// the write side, and returns the status line of the answer.
    fn raw_request(addr: SocketAddr, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        // The server may answer before the full payload is written
        // (oversized-head rejection); a failed write or half-close is
        // part of the scenario, not a test failure — the response is
        // what the assertions check.
        let _ = s.write_all(raw);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        resp.lines().next().unwrap_or("").to_string()
    }

    #[test]
    fn oversized_request_head_is_rejected_not_buffered() {
        let server =
            MetricsServer::bind("127.0.0.1:0".parse().unwrap(), "x\n".to_string()).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.serve(Some(1)));
        // 64 KiB of header spam with no terminator: the server must
        // stop reading at MAX_REQUEST_BYTES and answer 404 rather than
        // buffer without bound or hang.
        let mut raw = b"GET /metrics HTTP/1.1\r\n".to_vec();
        raw.resize(64 * 1024, b'a');
        let status = raw_request(addr, &raw);
        assert!(status.contains("404"), "{status}");
        t.join().unwrap().unwrap();
    }

    #[test]
    fn partial_request_gets_an_answer_not_a_hang() {
        let server =
            MetricsServer::bind("127.0.0.1:0".parse().unwrap(), "x\n".to_string()).unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.serve(Some(2)));
        // A complete request line but a head that is cut off before the
        // blank line: once the client closes, the server answers from
        // what arrived instead of spinning on the socket.
        let status = raw_request(addr, b"GET /healthz HTTP/1.1\r\nHost: pact\r\n");
        assert!(status.contains("200"), "{status}");
        // Nothing but noise: still a prompt 404, never a panic.
        let status = raw_request(addr, b"\r\n");
        assert!(status.contains("404"), "{status}");
        t.join().unwrap().unwrap();
    }
}
