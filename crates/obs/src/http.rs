//! Tiny `std::net` HTTP server for telemetry endpoints (plus a matching
//! one-shot client).
//!
//! Serves exactly what a fleet operator needs from a campaign process:
//!
//! * `GET /metrics` — the global registry in Prometheus text format
//!   ([`crate::expo::render`]), optionally followed by extra exposition
//!   text (a coordinator appends re-labeled worker scrapes here);
//! * `GET /status`  — a caller-provided JSON document (the live fleet or
//!   worker view);
//! * `GET /`        — a two-line text index.
//!
//! Thread-per-accept with a non-blocking accept loop, `Connection:
//! close` on every response — deliberately the simplest thing that a
//! Prometheus scraper, `curl`, and the `campaign status`/`top`
//! subcommands can all talk to. Serving never touches campaign RNG
//! streams, so results remain bit-identical with telemetry on.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the accept loop checks the shutdown flag.
const ACCEPT_TICK: Duration = Duration::from_millis(50);
/// Per-connection I/O budget: telemetry requests are one-line GETs.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest request head we bother reading (anything bigger is a 431).
const MAX_HEAD: usize = 16 * 1024;

/// Pluggable content for the two dynamic endpoints.
pub struct Handlers {
    /// Body for `GET /status` (should be a JSON document).
    pub status: Box<dyn Fn() -> String + Send + Sync>,
    /// Extra exposition text appended after the registry render on
    /// `GET /metrics` (may be empty; must itself be lint-clean).
    pub metrics_extra: Box<dyn Fn() -> String + Send + Sync>,
}

impl Handlers {
    /// Handlers serving a fixed status document and no extra metrics.
    pub fn status_only(status: impl Fn() -> String + Send + Sync + 'static) -> Handlers {
        Handlers {
            status: Box::new(status),
            metrics_extra: Box::new(String::new),
        }
    }
}

/// A running telemetry server. Dropping the handle (or calling
/// [`TelemetryServer::shutdown`]) stops the accept loop and joins it.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Serve telemetry on `listener` (bind `port 0` for an ephemeral
    /// port and read it back from [`TelemetryServer::addr`]).
    pub fn start(listener: TcpListener, handlers: Handlers) -> std::io::Result<TelemetryServer> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handlers = Arc::new(handlers);
        let accept_thread =
            std::thread::Builder::new()
                .name("obs-http".into())
                .spawn(move || {
                    // Connection handlers are detached: each one serves a
                    // single request with a hard I/O timeout, so the longest
                    // a handler can outlive the accept loop is IO_TIMEOUT.
                    while !stop2.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let handlers = Arc::clone(&handlers);
                                let _ = std::thread::Builder::new()
                                    .name("obs-http-conn".into())
                                    .spawn(move || {
                                        let _ = handle_conn(stream, &handlers);
                                    });
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(ACCEPT_TICK);
                            }
                            Err(_) => break,
                        }
                    }
                })?;
        Ok(TelemetryServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve telemetry on it.
    pub fn bind(addr: &str, handlers: Handlers) -> std::io::Result<TelemetryServer> {
        TelemetryServer::start(TcpListener::bind(addr)?, handlers)
    }

    /// The bound address (resolves `:0` to the ephemeral port chosen).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

fn handle_conn(mut stream: TcpStream, handlers: &Handlers) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    // Read until the end of the request head; GETs have no body.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return respond(
                &mut stream,
                431,
                "Request Header Fields Too Large",
                "text/plain",
                "",
            );
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // peer hung up before finishing
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path); // ignore queries
    if method != "GET" {
        return respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
    }
    match path {
        "/metrics" => {
            let mut body = crate::expo::render(&crate::registry::global().snapshot());
            body.push_str(&(handlers.metrics_extra)());
            respond(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/status" => respond(
            &mut stream,
            200,
            "OK",
            "application/json; charset=utf-8",
            &(handlers.status)(),
        ),
        "/" => respond(
            &mut stream,
            200,
            "OK",
            "text/plain; charset=utf-8",
            "endpoints: /metrics (Prometheus text format), /status (JSON)\n",
        ),
        _ => respond(&mut stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

// ---------------------------------------------------------------------
// One-shot client
// ---------------------------------------------------------------------

/// `GET http://{addr}{path}` and return `(status code, body)`.
///
/// A deliberately minimal HTTP/1.1 client for in-fleet use: the
/// coordinator scraping worker `/metrics`, and the `campaign
/// status`/`top`/`scrape` subcommands polling a coordinator. Reads until
/// EOF (every server response here is `Connection: close`).
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true).ok();
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response (no header terminator)",
        ));
    };
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "malformed HTTP status line",
            )
        })?;
    Ok((code, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_status_index_and_404() {
        let _guard = crate::testutil::lock();
        crate::registry::global().clear();
        crate::registry::set_enabled(true);
        crate::registry::counter_add("http_test_hits", &[("app", "VA")], 2);
        let server = TelemetryServer::bind(
            "127.0.0.1:0",
            Handlers::status_only(|| "{\"ok\":true}".to_string()),
        )
        .expect("bind");
        let addr = server.addr().to_string();

        let (code, body) = http_get(&addr, "/metrics", IO_TIMEOUT).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("http_test_hits{app=\"VA\"} 2\n"), "{body}");
        crate::expo::lint(&body).expect("exposition lints");

        let (code, body) = http_get(&addr, "/status", IO_TIMEOUT).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "{\"ok\":true}");

        let (code, body) = http_get(&addr, "/", IO_TIMEOUT).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("/metrics"));

        let (code, _) = http_get(&addr, "/nope", IO_TIMEOUT).unwrap();
        assert_eq!(code, 404);

        crate::registry::set_enabled(false);
        crate::registry::global().clear();
    }

    #[test]
    fn metrics_extra_is_appended() {
        let _guard = crate::testutil::lock();
        crate::registry::global().clear();
        let server = TelemetryServer::bind(
            "127.0.0.1:0",
            Handlers {
                status: Box::new(|| "{}".to_string()),
                metrics_extra: Box::new(|| "extra_metric 7\n".to_string()),
            },
        )
        .expect("bind");
        let (code, body) = http_get(&server.addr().to_string(), "/metrics", IO_TIMEOUT).unwrap();
        assert_eq!(code, 200);
        assert!(body.ends_with("extra_metric 7\n"));
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server =
            TelemetryServer::bind("127.0.0.1:0", Handlers::status_only(String::new)).expect("bind");
        let addr = server.addr().to_string();
        server.shutdown();
        // The listener is gone: connects are refused (or time out).
        assert!(http_get(&addr, "/status", Duration::from_millis(500)).is_err());
    }
}
